package api

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
)

// TestSealEvery pins the in-process block producer: an idle pool seals
// no empty blocks, a pending transaction commits within a few ticks
// through the same seal path as POST /v1/blocks/seal (the skew hook
// fires), and after cancel SealEvery returns promptly and seals nothing
// more. The chain is only observed over HTTP, so the test is race-clean
// against the sealer goroutine.
func TestSealEvery(t *testing.T) {
	const interval = 20 * time.Millisecond
	user := identity.New("user", crypto.NewDRBGFromUint64(1, "api-test"))
	to := identity.New("to", crypto.NewDRBGFromUint64(2, "api-test"))
	m, err := market.New(market.Config{
		Seed:         1,
		GenesisAlloc: map[identity.Address]uint64{user.Address(): 1_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m, true)
	var skewCalls atomic.Int64
	srv.SetSealSkew(func() int64 { skewCalls.Add(1); return 0 })
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	status := func() StatusResponse {
		t.Helper()
		st, err := c.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	start := status().Height

	sealCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.SealEvery(sealCtx, interval)
	}()

	time.Sleep(8 * interval)
	if h := status().Height; h != start {
		t.Fatalf("idle pool sealed %d empty blocks", h-start)
	}

	tx := ledger.SignTx(user, to.Address(), 5, 0, 50_000, nil)
	if _, err := c.SubmitTx(ctx, tx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(50 * interval)
	for {
		if _, err := c.Receipt(ctx, tx.Hash()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pending transaction not sealed")
		}
		time.Sleep(interval / 4)
	}
	if skewCalls.Load() == 0 {
		t.Fatal("SealEvery bypassed the shared seal path (skew hook never ran)")
	}
	if st := status(); st.Height != start+1 || st.Pending != 0 {
		t.Fatalf("after commit: height +%d pending %d, want +1 and 0", st.Height-start, st.Pending)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(10 * interval):
		t.Fatal("SealEvery did not return after cancel")
	}
	after := status().Height
	if _, err := c.SubmitTx(ctx, ledger.SignTx(user, to.Address(), 5, 1, 50_000, nil)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(6 * interval)
	if st := status(); st.Height != after || st.Pending != 1 {
		t.Fatalf("sealed after cancel: height +%d pending %d", st.Height-after, st.Pending)
	}
}

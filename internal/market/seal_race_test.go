package market

import (
	"errors"
	"sync"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
)

// TestSealBlockEvictsPoisonOvergasTx pins the poison-tx fix end to end:
// a transaction whose intrinsic gas exceeds the block gas limit can
// never seal, and before the fix it wedged SealBlock forever — the
// halving loop stopped at batch size one and the transaction was never
// evicted, so every subsequent seal rebuilt a batch starting with it
// and failed identically. The chain must instead evict it and keep
// sealing the healthy backlog.
func TestSealBlockEvictsPoisonOvergasTx(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(99, "poison")
	ids := make([]*identity.Identity, 3)
	alloc := map[identity.Address]uint64{}
	for i := range ids {
		ids[i] = identity.New("acct", rng.Fork("id"))
		alloc[ids[i].Address()] = 1_000_000
	}
	m, err := New(Config{Seed: 99, GenesisAlloc: alloc, BlockGasLimit: 200_000})
	if err != nil {
		t.Fatal(err)
	}

	// 16kB of call data: intrinsic gas 21000 + 16*16384 = 283144, over
	// the 200k block limit — unsealable no matter how batches are cut.
	poison := m.SignedTx(ids[0], ids[1].Address(), 1, make([]byte, 16384))
	if err := m.Submit(poison); err != nil {
		t.Fatal(err)
	}
	healthy := []*ledger.Transaction{
		m.SignedTx(ids[1], ids[2].Address(), 5, nil),
		m.SignedTx(ids[2], ids[1].Address(), 7, nil),
	}
	for _, tx := range healthy {
		if err := m.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}

	block, err := m.SealBlock()
	if err != nil {
		t.Fatalf("seal wedged on poison tx: %v", err)
	}
	if len(block.Txs) != len(healthy) {
		t.Fatalf("sealed %d txs, want the %d healthy ones", len(block.Txs), len(healthy))
	}
	if m.Pool.Contains(poison.Hash()) {
		t.Fatal("poison tx still pending after seal")
	}
	if _, ok := m.Chain.Receipt(poison.Hash()); ok {
		t.Fatal("poison tx must not execute")
	}

	// The chain has recovered: later traffic seals normally.
	follow := m.SignedTx(ids[0], ids[2].Address(), 3, nil)
	if err := m.Submit(follow); err != nil {
		t.Fatal(err)
	}
	block, err = m.SealBlock()
	if err != nil {
		t.Fatalf("post-eviction seal failed: %v", err)
	}
	if len(block.Txs) != 1 || block.Txs[0].Hash() != follow.Hash() {
		t.Fatal("follow-up tx did not seal after poison eviction")
	}
}

// TestConcurrentImportSubmitSealRace stress-tests the state's
// concurrency contract under the race detector: a sealing node executes
// every block while API producers admit transactions through the
// lock-free Pool.Add fast path, unlocked readers read the live state,
// and a follower node imports every sealed block — re-executing it
// concurrently with the sealer's own execution. The two replicas must
// converge to the same root.
func TestConcurrentImportSubmitSealRace(t *testing.T) {
	const (
		producers   = 6
		txsPerActor = 50
	)
	rng := crypto.NewDRBGFromUint64(7777, "par-race")
	authority := identity.New("authority", rng.Fork("authority"))
	sink := identity.New("sink", rng.Fork("sink"))
	senders := make([]*identity.Identity, producers)
	alloc := map[identity.Address]uint64{sink.Address(): 1}
	for i := range senders {
		senders[i] = identity.New("sender", rng.Fork("sender"))
		alloc[senders[i].Address()] = 1_000_000
	}
	cfg := Config{
		Seed:         7777,
		GenesisAlloc: alloc,
		Authorities:  []*identity.Identity{authority},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same deterministic config ⇒ the follower rebuilds the identical
	// setup chain (registry and deed deploys included) and can import
	// the sealer's blocks from there.
	follower, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Chain.Head().Hash() != follower.Chain.Head().Hash() {
		t.Fatal("fixture: sealer and follower diverge before the race")
	}

	var mu sync.Mutex // the API server's serialization of Market methods
	blocks := make(chan *ledger.Block, 4096)
	done := make(chan struct{})
	var producersWG, helpersWG sync.WaitGroup

	for i := 0; i < producers; i++ {
		producersWG.Add(1)
		go func(id *identity.Identity) {
			defer producersWG.Done()
			base := m.Chain.State().Nonce(id.Address())
			for n := 0; n < txsPerActor; n++ {
				tx := ledger.SignTx(id, sink.Address(), 1, base+uint64(n), m.DefaultGasLimit, nil)
				for {
					if err := m.Pool.Add(tx); err == nil {
						break
					} else if !errors.Is(err, ledger.ErrMempoolFull) {
						t.Errorf("add: %v", err)
						return
					}
					mu.Lock()
					err := m.Submit(tx)
					mu.Unlock()
					if err == nil {
						break
					} else if !errors.Is(err, ledger.ErrMempoolFull) {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}
		}(senders[i])
	}

	// Sealer: each sealed block streams to the follower.
	helpersWG.Add(1)
	go func() {
		defer helpersWG.Done()
		defer close(blocks)
		for {
			mu.Lock()
			block, err := m.SealBlockAt(m.Timestamp() + 1)
			if err != nil {
				t.Errorf("seal: %v", err)
				mu.Unlock()
				return
			}
			empty := m.Pool.Len() == 0
			mu.Unlock()
			// Empty blocks ship too: the follower needs the full parent
			// chain to import.
			blocks <- block
			select {
			case <-done:
				if empty {
					return
				}
			default:
			}
		}
	}()

	// Follower: imports the sealed stream concurrently with the
	// sealer's own execution.
	helpersWG.Add(1)
	go func() {
		defer helpersWG.Done()
		for block := range blocks {
			if err := follower.Chain.ImportBlock(block); err != nil {
				t.Errorf("import height %d: %v", block.Header.Height, err)
				return
			}
		}
	}()

	// Readers: concurrent state reads against live execution —
	// explicitly allowed by the state's concurrency contract.
	for i := 0; i < 2; i++ {
		helpersWG.Add(1)
		go func() {
			defer helpersWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := m.Chain.State()
				st.Balance(sink.Address())
				st.Nonce(senders[0].Address())
				m.Pool.Len()
			}
		}()
	}

	producersWG.Wait()
	total := uint64(producers * txsPerActor)
	for {
		mu.Lock()
		delivered := m.Chain.State().Balance(sink.Address()) - 1
		mu.Unlock()
		if delivered == total {
			break
		}
	}
	close(done)
	helpersWG.Wait()

	if sealed, imported := m.Chain.State().Root(), follower.Chain.State().Root(); sealed != imported {
		t.Fatalf("follower diverged: sealer root %s, follower %s", sealed.Short(), imported.Short())
	}
	for i, id := range senders {
		if got := m.Chain.State().Nonce(id.Address()); got != uint64(txsPerActor) {
			t.Errorf("sender %d: nonce %d, want %d", i, got, txsPerActor)
		}
	}
}

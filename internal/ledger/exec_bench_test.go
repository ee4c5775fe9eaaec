package ledger

import (
	"encoding/binary"
	"fmt"
	"testing"

	"pds2/internal/identity"
)

// benchAddr fabricates a deterministic address. Benchmarks bypass
// signature verification (ExecuteBatch assumes the caller vouches for
// the transactions), so no keypairs are needed.
func benchAddr(i uint64) identity.Address {
	var a identity.Address
	a[0] = byte(i)
	binary.BigEndian.PutUint64(a[1:9], i)
	return a
}

// benchStorageApplier models contract execution with per-account
// storage: each transaction transfers its value, then reads and
// rewrites `slots` keys under its sender's own address, adding the
// value to each.
type benchStorageApplier struct{ slots int }

func (a benchStorageApplier) Apply(st *State, tx *Transaction, height uint64) (*Receipt, error) {
	rcpt := &Receipt{TxHash: tx.Hash(), GasUsed: tx.IntrinsicGas(), Height: height}
	st.BumpNonce(tx.From)
	if err := st.SubBalance(tx.From, tx.Value); err != nil {
		rcpt.Status = StatusFailed
		rcpt.Err = err.Error()
		return rcpt, nil
	}
	if err := st.AddBalance(tx.To, tx.Value); err != nil {
		rcpt.Status = StatusFailed
		rcpt.Err = err.Error()
		return rcpt, nil
	}
	for k := 0; k < a.slots; k++ {
		key := fmt.Sprintf("s/%d", k)
		var n uint64
		if b := st.GetStorage(tx.From, key); len(b) == 8 {
			n = binary.BigEndian.Uint64(b)
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], n+tx.Value)
		st.SetStorage(tx.From, key, buf[:])
	}
	rcpt.Status = StatusOK
	return rcpt, nil
}

const benchFunding = 1_000_000

// benchExecChain builds a chain funding nTxs distinct senders and the
// block of nTxs unit transfers, each to its own fresh recipient.
func benchExecChain(b *testing.B, applier TxApplier, nTxs int) (*Chain, []*Transaction) {
	b.Helper()
	alloc := make(map[identity.Address]uint64, nTxs)
	txs := make([]*Transaction, nTxs)
	for i := 0; i < nTxs; i++ {
		from := benchAddr(uint64(i))
		alloc[from] = benchFunding
		txs[i] = &Transaction{
			From:     from,
			To:       benchAddr(uint64(nTxs + i)),
			Value:    1,
			GasLimit: 1_000_000,
		}
	}
	var auth identity.Address
	auth[0] = 0xAA
	c, err := NewChain(ChainConfig{
		Authorities:   []identity.Address{auth},
		Applier:       applier,
		GenesisAlloc:  alloc,
		BlockGasLimit: 1 << 62,
	})
	if err != nil {
		b.Fatal(err)
	}
	return c, txs
}

// expectedPostState builds, without executing anything, the state the
// block must leave behind: every sender down one unit with nonce 1,
// every recipient holding one unit, and — for the storage workload —
// each of the sender's slots holding the value 1.
func expectedPostState(txs []*Transaction, slots int) *State {
	st := NewState()
	one := binary.BigEndian.AppendUint64(nil, 1)
	for _, tx := range txs {
		st.SetBalance(tx.From, benchFunding-1)
		st.SetNonce(tx.From, 1)
		st.SetBalance(tx.To, 1)
		for k := 0; k < slots; k++ {
			st.SetStorage(tx.From, fmt.Sprintf("s/%d", k), one)
		}
	}
	st.Commit()
	return st
}

// BenchmarkExecuteBlock measures block execution throughput through
// Chain.ExecuteBatch — execution plus the post-block state root — for
// plain transfers and for a storage-heavy contract workload. Every
// iteration's root is checked against a state built directly from the
// expected post-state, so a wrong executor fails the benchmark rather
// than producing fast wrong answers. The per-op metric is one whole
// block; tx/s is reported explicitly.
func BenchmarkExecuteBlock(b *testing.B) {
	workloads := []struct {
		name  string
		slots int
		nTxs  int
	}{
		{"transfers", 0, 8192},
		{"storage", 8, 4096},
	}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			var applier TxApplier = TransferApplier{}
			if w.slots > 0 {
				applier = benchStorageApplier{slots: w.slots}
			}
			c, txs := benchExecChain(b, applier, w.nTxs)
			wantRoot := expectedPostState(txs, w.slots).Root()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, root, err := c.ExecuteBatch(txs)
				if err != nil {
					b.Fatal(err)
				}
				if root != wantRoot {
					b.Fatalf("state root %s, want %s", root.Short(), wantRoot.Short())
				}
			}
			b.ReportMetric(float64(w.nTxs)*float64(b.N)/b.Elapsed().Seconds(), "tx/s")
		})
	}
}

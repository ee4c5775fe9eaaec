package ledger

import (
	"errors"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/identity"
)

// testChain builds a chain with a single authority and two funded users.
func testChain(t *testing.T) (*Chain, *identity.Identity, *identity.Identity, *identity.Identity) {
	t.Helper()
	authority := testIdentity(100)
	alice := testIdentity(1)
	bob := testIdentity(2)
	chain, err := NewChain(ChainConfig{
		Authorities: []identity.Address{authority.Address()},
		GenesisAlloc: map[identity.Address]uint64{
			alice.Address(): 1_000,
			bob.Address():   500,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return chain, authority, alice, bob
}

func TestChainGenesis(t *testing.T) {
	chain, _, alice, bob := testChain(t)
	if chain.Height() != 0 {
		t.Fatalf("genesis height = %d", chain.Height())
	}
	if chain.State().Balance(alice.Address()) != 1_000 || chain.State().Balance(bob.Address()) != 500 {
		t.Fatal("genesis allocation wrong")
	}
}

func TestChainTransfer(t *testing.T) {
	chain, authority, alice, bob := testChain(t)
	tx := SignTx(alice, bob.Address(), 100, 0, 50_000, nil)
	block, err := chain.ProposeBlock(authority, 1, []*Transaction{tx})
	if err != nil {
		t.Fatal(err)
	}
	if block.Header.Height != 1 {
		t.Fatalf("height = %d", block.Header.Height)
	}
	if chain.State().Balance(alice.Address()) != 900 || chain.State().Balance(bob.Address()) != 600 {
		t.Fatal("transfer not applied")
	}
	rcpt, ok := chain.Receipt(tx.Hash())
	if !ok || !rcpt.Succeeded() {
		t.Fatalf("receipt: %+v ok=%v", rcpt, ok)
	}
}

func TestChainFailedTransferKeepsNonceAndFunds(t *testing.T) {
	chain, authority, alice, bob := testChain(t)
	tx := SignTx(alice, bob.Address(), 10_000, 0, 50_000, nil) // overdraft
	if _, err := chain.ProposeBlock(authority, 1, []*Transaction{tx}); err != nil {
		t.Fatal(err)
	}
	rcpt, _ := chain.Receipt(tx.Hash())
	if rcpt.Succeeded() {
		t.Fatal("overdraft succeeded")
	}
	if chain.State().Balance(alice.Address()) != 1_000 {
		t.Fatal("failed tx moved funds")
	}
	if chain.State().Nonce(alice.Address()) != 1 {
		t.Fatal("failed tx did not consume nonce")
	}
}

func TestChainRejectsWrongNonce(t *testing.T) {
	chain, authority, alice, bob := testChain(t)
	tx := SignTx(alice, bob.Address(), 1, 5, 50_000, nil)
	if _, err := chain.ProposeBlock(authority, 1, []*Transaction{tx}); err == nil {
		t.Fatal("wrong nonce accepted")
	}
	if chain.Height() != 0 {
		t.Fatal("failed proposal advanced the chain")
	}
	if chain.State().Balance(alice.Address()) != 1_000 {
		t.Fatal("failed proposal mutated state")
	}
}

func TestChainRejectsWrongProposer(t *testing.T) {
	chain, _, alice, _ := testChain(t)
	if _, err := chain.ProposeBlock(alice, 1, nil); !errors.Is(err, ErrBadProposer) {
		t.Fatalf("want ErrBadProposer, got %v", err)
	}
}

func TestChainAuthorityRotation(t *testing.T) {
	auth1, auth2 := testIdentity(100), testIdentity(101)
	chain, err := NewChain(ChainConfig{
		Authorities: []identity.Address{auth1.Address(), auth2.Address()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain.ProposeBlock(auth1, 1, nil); err != nil {
		t.Fatalf("auth1 at height 1: %v", err)
	}
	if _, err := chain.ProposeBlock(auth1, 2, nil); !errors.Is(err, ErrBadProposer) {
		t.Fatal("rotation not enforced")
	}
	if _, err := chain.ProposeBlock(auth2, 2, nil); err != nil {
		t.Fatalf("auth2 at height 2: %v", err)
	}
}

func TestChainTimestampMonotonic(t *testing.T) {
	chain, authority, _, _ := testChain(t)
	if _, err := chain.ProposeBlock(authority, 5, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := chain.ProposeBlock(authority, 5, nil); !errors.Is(err, ErrNonMonotonicTS) {
		t.Fatalf("want ErrNonMonotonicTS, got %v", err)
	}
}

func TestChainImportBlockReplica(t *testing.T) {
	// Two replicas with identical config; blocks produced on one must
	// import cleanly on the other and converge to the same state root.
	authority := testIdentity(100)
	alice := testIdentity(1)
	cfg := ChainConfig{
		Authorities:  []identity.Address{authority.Address()},
		GenesisAlloc: map[identity.Address]uint64{alice.Address(): 1_000},
	}
	producer, _ := NewChain(cfg)
	replica, _ := NewChain(cfg)

	tx := SignTx(alice, testIdentity(2).Address(), 50, 0, 50_000, nil)
	block, err := producer.ProposeBlock(authority, 1, []*Transaction{tx})
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ImportBlock(block); err != nil {
		t.Fatalf("replica rejected valid block: %v", err)
	}
	if producer.State().Root() != replica.State().Root() {
		t.Fatal("replicas diverged")
	}
}

func TestChainImportRejectsTamperedBlock(t *testing.T) {
	authority := testIdentity(100)
	alice := testIdentity(1)
	cfg := ChainConfig{
		Authorities:  []identity.Address{authority.Address()},
		GenesisAlloc: map[identity.Address]uint64{alice.Address(): 1_000},
	}
	producer, _ := NewChain(cfg)

	tx := SignTx(alice, testIdentity(2).Address(), 50, 0, 50_000, nil)
	block, _ := producer.ProposeBlock(authority, 1, []*Transaction{tx})

	// Tampered state root.
	replica, _ := NewChain(cfg)
	bad := *block
	bad.Header.StateRoot = crypto.HashString("forged")
	if err := replica.ImportBlock(&bad); err == nil {
		t.Fatal("tampered state root accepted")
	}

	// Tampered tx list (tx root mismatch).
	bad2 := *block
	bad2.Txs = nil
	if err := replica.ImportBlock(&bad2); !errors.Is(err, ErrBadTxRoot) {
		t.Fatalf("want ErrBadTxRoot, got %v", err)
	}

	// Reseal by a non-authority.
	mallory := testIdentity(66)
	bad3 := *block
	bad3.seal(mallory)
	if err := replica.ImportBlock(&bad3); !errors.Is(err, ErrBadProposer) {
		t.Fatalf("want ErrBadProposer, got %v", err)
	}

	// The untampered block still imports.
	if err := replica.ImportBlock(block); err != nil {
		t.Fatalf("valid block rejected after attacks: %v", err)
	}
}

// countingApplier wraps an applier and counts Apply calls per tx hash,
// proving the import pipeline executes each transaction exactly once.
type countingApplier struct {
	inner  TxApplier
	counts map[crypto.Digest]int
}

func (a *countingApplier) Apply(st *State, tx *Transaction, height uint64) (*Receipt, error) {
	a.counts[tx.Hash()]++
	return a.inner.Apply(st, tx, height)
}

func TestChainImportExecutesExactlyOnce(t *testing.T) {
	authority := testIdentity(100)
	alice := testIdentity(1)
	cfg := ChainConfig{
		Authorities:  []identity.Address{authority.Address()},
		GenesisAlloc: map[identity.Address]uint64{alice.Address(): 1_000},
	}
	producer, _ := NewChain(cfg)
	txs := []*Transaction{
		SignTx(alice, testIdentity(2).Address(), 50, 0, 50_000, nil),
		SignTx(alice, testIdentity(2).Address(), 25, 1, 50_000, nil),
	}
	block, err := producer.ProposeBlock(authority, 1, txs)
	if err != nil {
		t.Fatal(err)
	}

	counting := &countingApplier{inner: TransferApplier{}, counts: map[crypto.Digest]int{}}
	replicaCfg := cfg
	replicaCfg.Applier = counting
	replica, _ := NewChain(replicaCfg)
	if err := replica.ImportBlock(block); err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		if got := counting.counts[tx.Hash()]; got != 1 {
			t.Fatalf("tx executed %d times on import, want exactly 1", got)
		}
	}
	if producer.State().Root() != replica.State().Root() {
		t.Fatal("single-execution import diverged from producer")
	}

	// The standalone audit path still works and leaves no residue: the
	// same block re-verifies on a fresh replica without advancing it.
	audit := &countingApplier{inner: TransferApplier{}, counts: map[crypto.Digest]int{}}
	auditCfg := cfg
	auditCfg.Applier = audit
	auditor, _ := NewChain(auditCfg)
	if err := auditor.VerifyBlock(block); err != nil {
		t.Fatal(err)
	}
	if auditor.Height() != 0 || auditor.State().Nonce(alice.Address()) != 0 {
		t.Fatal("VerifyBlock mutated the auditor chain")
	}
	if got := audit.counts[txs[0].Hash()]; got != 1 {
		t.Fatalf("audit executed tx %d times, want 1", got)
	}
}

func TestChainImportWrongRotationProposer(t *testing.T) {
	auth1, auth2 := testIdentity(100), testIdentity(101)
	cfg := ChainConfig{
		Authorities:  []identity.Address{auth1.Address(), auth2.Address()},
		GenesisAlloc: map[identity.Address]uint64{testIdentity(1).Address(): 1_000},
	}
	producer, _ := NewChain(cfg)
	b1, err := producer.ProposeBlock(auth1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := producer.ProposeBlock(auth2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}

	replica, _ := NewChain(cfg)
	// Height-2 block sealed by the height-1 authority: valid seal, wrong
	// rotation slot.
	bad := *b2
	bad.Header.Parent = b1.Hash()
	bad.seal(auth1)
	if err := replica.ImportBlock(b1); err != nil {
		t.Fatal(err)
	}
	if err := replica.ImportBlock(&bad); !errors.Is(err, ErrBadProposer) {
		t.Fatalf("want ErrBadProposer, got %v", err)
	}
	if err := replica.ImportBlock(b2); err != nil {
		t.Fatalf("correct rotation rejected: %v", err)
	}
}

func TestChainImportTimestampAtHeightOne(t *testing.T) {
	// Height 1 is exempt from monotonicity (genesis carries timestamp
	// 0 and no real clock): a height-1 block with timestamp 0 imports,
	// while height 2 must strictly increase.
	authority := testIdentity(100)
	cfg := ChainConfig{Authorities: []identity.Address{authority.Address()}}
	producer, _ := NewChain(cfg)
	b1, err := producer.ProposeBlock(authority, 0, nil)
	if err != nil {
		t.Fatalf("timestamp 0 at height 1 rejected: %v", err)
	}
	replica, _ := NewChain(cfg)
	if err := replica.ImportBlock(b1); err != nil {
		t.Fatalf("height-1 import with timestamp 0: %v", err)
	}
	if _, err := producer.ProposeBlock(authority, 0, nil); !errors.Is(err, ErrNonMonotonicTS) {
		t.Fatalf("want ErrNonMonotonicTS at height 2, got %v", err)
	}
}

func TestChainGasLimitBoundary(t *testing.T) {
	authority := testIdentity(100)
	alice := testIdentity(1)
	mk := func(limit uint64) *Chain {
		c, _ := NewChain(ChainConfig{
			Authorities:   []identity.Address{authority.Address()},
			GenesisAlloc:  map[identity.Address]uint64{alice.Address(): 1_000},
			BlockGasLimit: limit,
		})
		return c
	}
	txs := []*Transaction{
		SignTx(alice, testIdentity(2).Address(), 1, 0, 50_000, nil),
		SignTx(alice, testIdentity(2).Address(), 1, 1, 50_000, nil),
	}
	// Exactly at the limit: accepted.
	exact := mk(2 * TxBaseGas)
	block, err := exact.ProposeBlock(authority, 1, txs)
	if err != nil {
		t.Fatalf("block exactly at gas limit rejected: %v", err)
	}
	if block.Header.GasUsed != 2*TxBaseGas {
		t.Fatalf("gas used %d, want %d", block.Header.GasUsed, 2*TxBaseGas)
	}
	replica := mk(2 * TxBaseGas)
	if err := replica.ImportBlock(block); err != nil {
		t.Fatalf("at-limit block failed to import: %v", err)
	}
	// One over: rejected, state untouched.
	over := mk(2*TxBaseGas - 1)
	if _, err := over.ProposeBlock(authority, 1, txs); !errors.Is(err, ErrBlockGasLimit) {
		t.Fatalf("want ErrBlockGasLimit, got %v", err)
	}
	if err := over.ImportBlock(block); !errors.Is(err, ErrBlockGasLimit) {
		t.Fatalf("import over limit: want ErrBlockGasLimit, got %v", err)
	}
	if over.Height() != 0 || over.State().Nonce(alice.Address()) != 0 {
		t.Fatal("rejected block left residue")
	}
}

func TestChainImportStateRootMismatchAfterPartialFailure(t *testing.T) {
	// A block whose second tx fails (overdraft) is still valid — failed
	// txs get failed receipts and consume their nonce. Tampering with
	// its state root must be detected on import, and the rejection must
	// fully revert the partially-applied state.
	authority := testIdentity(100)
	alice := testIdentity(1)
	cfg := ChainConfig{
		Authorities:  []identity.Address{authority.Address()},
		GenesisAlloc: map[identity.Address]uint64{alice.Address(): 1_000},
	}
	producer, _ := NewChain(cfg)
	txs := []*Transaction{
		SignTx(alice, testIdentity(2).Address(), 100, 0, 50_000, nil),
		SignTx(alice, testIdentity(2).Address(), 10_000, 1, 50_000, nil), // overdraft: fails
	}
	block, err := producer.ProposeBlock(authority, 1, txs)
	if err != nil {
		t.Fatal(err)
	}
	rcpt, _ := producer.Receipt(txs[1].Hash())
	if rcpt.Succeeded() {
		t.Fatal("overdraft unexpectedly succeeded")
	}

	replica, _ := NewChain(cfg)
	bad := *block
	bad.Header.StateRoot = crypto.HashString("forged")
	bad.seal(authority) // reseal so only the state root is wrong
	if err := replica.ImportBlock(&bad); !errors.Is(err, ErrBadStateRoot) {
		t.Fatalf("want ErrBadStateRoot, got %v", err)
	}
	if replica.Height() != 0 {
		t.Fatal("rejected block advanced the chain")
	}
	if replica.State().Balance(alice.Address()) != 1_000 || replica.State().Nonce(alice.Address()) != 0 {
		t.Fatal("rejected import left partially-applied state")
	}
	// The honest block still imports and converges.
	if err := replica.ImportBlock(block); err != nil {
		t.Fatal(err)
	}
	if replica.State().Root() != producer.State().Root() {
		t.Fatal("replicas diverged after partial-failure block")
	}
}

func TestChainImportRejectsInvalidSignatureInBlock(t *testing.T) {
	// A tampered tx payload breaks both the tx root and the stateless
	// phase; with a recomputed root and reseal, the parallel stateless
	// verifier is the check that catches it, at every batch size around
	// the parallel threshold.
	authority := testIdentity(100)
	alice := testIdentity(1)
	for _, n := range []int{1, parallelVerifyThreshold, 64} {
		cfg := ChainConfig{
			Authorities:  []identity.Address{authority.Address()},
			GenesisAlloc: map[identity.Address]uint64{alice.Address(): 1 << 30},
		}
		producer, _ := NewChain(cfg)
		txs := make([]*Transaction, n)
		for i := range txs {
			txs[i] = SignTx(alice, testIdentity(2).Address(), 1, uint64(i), 50_000, nil)
		}
		block, err := producer.ProposeBlock(authority, 1, txs)
		if err != nil {
			t.Fatal(err)
		}
		bad := *block
		bad.Txs = append([]*Transaction(nil), block.Txs...)
		tampered := *block.Txs[n-1]
		tampered.Value = 999_999 // breaks the signature
		bad.Txs[n-1] = &tampered
		bad.Header.TxRoot = txRoot(bad.Txs)
		bad.seal(authority)
		replica, _ := NewChain(cfg)
		if err := replica.ImportBlock(&bad); !errors.Is(err, ErrTxSignature) {
			t.Fatalf("n=%d: want ErrTxSignature, got %v", n, err)
		}
		if replica.Height() != 0 {
			t.Fatalf("n=%d: invalid block advanced the chain", n)
		}
	}
}

func TestChainBlockGasLimit(t *testing.T) {
	authority := testIdentity(100)
	alice := testIdentity(1)
	chain, _ := NewChain(ChainConfig{
		Authorities:   []identity.Address{authority.Address()},
		GenesisAlloc:  map[identity.Address]uint64{alice.Address(): 1_000},
		BlockGasLimit: TxBaseGas + 10, // room for exactly one plain tx
	})
	tx0 := SignTx(alice, testIdentity(2).Address(), 1, 0, 50_000, nil)
	tx1 := SignTx(alice, testIdentity(2).Address(), 1, 1, 50_000, nil)
	if _, err := chain.ProposeBlock(authority, 1, []*Transaction{tx0, tx1}); !errors.Is(err, ErrBlockGasLimit) {
		t.Fatalf("want ErrBlockGasLimit, got %v", err)
	}
	if _, err := chain.ProposeBlock(authority, 1, []*Transaction{tx0}); err != nil {
		t.Fatalf("single tx should fit: %v", err)
	}
}

func TestChainBlockAt(t *testing.T) {
	chain, authority, _, _ := testChain(t)
	chain.ProposeBlock(authority, 1, nil)
	b, err := chain.BlockAt(1)
	if err != nil || b.Header.Height != 1 {
		t.Fatalf("BlockAt(1): %v, %v", b, err)
	}
	if _, err := chain.BlockAt(9); err == nil {
		t.Fatal("missing height accepted")
	}
}

func TestNewChainRequiresAuthority(t *testing.T) {
	if _, err := NewChain(ChainConfig{}); err == nil {
		t.Fatal("empty authority set accepted")
	}
}

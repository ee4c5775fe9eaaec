package ledger

import (
	"errors"
	"fmt"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/telemetry"
)

// Chain instrumentation: block production latency, per-block batch
// sizes, applied/failed transaction totals and the chain height. All
// are no-ops until telemetry is enabled.
var (
	mSealSeconds   = telemetry.H("ledger.block.seal_seconds", telemetry.TimeBuckets)
	mImportSeconds = telemetry.H("ledger.block.import_seconds", telemetry.TimeBuckets)
	mBlockTxs      = telemetry.H("ledger.block.txs", telemetry.CountBuckets)
	mBlockGas      = telemetry.H("ledger.block.gas", telemetry.GasBuckets)
	mTxApplied     = telemetry.C("ledger.tx.applied_total")
	mTxFailed      = telemetry.C("ledger.tx.failed_total")
	mHeight        = telemetry.G("ledger.block.height")
)

// TxApplier executes a transaction against the state and produces its
// receipt. The ledger ships a plain value-transfer applier; the contract
// runtime (internal/contract) wraps it to dispatch contract creation and
// calls. Apply must leave the state unchanged when it returns an error
// (as opposed to a failed receipt, which may still consume gas).
type TxApplier interface {
	Apply(st *State, tx *Transaction, height uint64) (*Receipt, error)
}

// TransferApplier is the base applier: native token transfers only.
// Transactions carrying data to a non-contract destination fail.
type TransferApplier struct{}

// Apply implements TxApplier.
func (TransferApplier) Apply(st *State, tx *Transaction, height uint64) (*Receipt, error) {
	rcpt := &Receipt{TxHash: tx.Hash(), GasUsed: tx.IntrinsicGas(), Height: height}
	snap := st.Snapshot()
	st.BumpNonce(tx.From)
	if err := st.SubBalance(tx.From, tx.Value); err != nil {
		st.RevertTo(snap)
		st.BumpNonce(tx.From) // failed txs still consume their nonce
		rcpt.Status = StatusFailed
		rcpt.Err = err.Error()
		return rcpt, nil
	}
	if err := st.AddBalance(tx.To, tx.Value); err != nil {
		st.RevertTo(snap)
		st.BumpNonce(tx.From)
		rcpt.Status = StatusFailed
		rcpt.Err = err.Error()
		return rcpt, nil
	}
	rcpt.Status = StatusOK
	return rcpt, nil
}

// ChainConfig parameterizes a Chain.
type ChainConfig struct {
	// Authorities is the proof-of-authority validator set, in rotation
	// order. Block at height h must be proposed (and sealed) by
	// Authorities[(h-1) % len(Authorities)].
	Authorities []identity.Address

	// BlockGasLimit bounds the total gas of a block. Zero selects
	// DefaultBlockGasLimit.
	BlockGasLimit uint64

	// Applier executes transactions. Nil selects TransferApplier.
	Applier TxApplier

	// Genesis allocations: balances credited at height 0.
	GenesisAlloc map[identity.Address]uint64

	// StatelessWorkers bounds the worker pool used for the stateless
	// transaction-verification phase (signature, sender binding and
	// intrinsic-gas checks). Zero selects GOMAXPROCS; one forces the
	// sequential path. Small batches always verify sequentially.
	StatelessWorkers int
}

// DefaultBlockGasLimit matches the order of magnitude of Ethereum blocks.
const DefaultBlockGasLimit uint64 = 30_000_000

// Chain is a validated proof-of-authority blockchain with its world
// state, receipts and a queryable event log.
type Chain struct {
	cfg      ChainConfig
	blocks   []*Block
	base     uint64 // height of blocks[0]: 0 for genesis, >0 when restored from a snapshot
	state    *State
	receipts map[crypto.Digest]*Receipt
	events   []Event // flat, append-only audit log across all blocks

	// onCommit, when set, observes every block the moment it commits
	// (seal and import alike) — the durable-store hook. It runs under
	// whatever lock serializes chain mutation.
	onCommit func(*Block)
}

// NewChain creates a chain with a genesis block at height 0.
func NewChain(cfg ChainConfig) (*Chain, error) {
	if len(cfg.Authorities) == 0 {
		return nil, errors.New("ledger: proof of authority requires at least one authority")
	}
	if cfg.BlockGasLimit == 0 {
		cfg.BlockGasLimit = DefaultBlockGasLimit
	}
	if cfg.Applier == nil {
		cfg.Applier = TransferApplier{}
	}
	st := NewState()
	for addr, bal := range cfg.GenesisAlloc {
		st.SetBalance(addr, bal)
	}
	st.Commit()
	genesis := &Block{Header: Header{
		Height:    0,
		StateRoot: st.Root(),
	}}
	return &Chain{
		cfg:      cfg,
		blocks:   []*Block{genesis},
		state:    st,
		receipts: make(map[crypto.Digest]*Receipt),
	}, nil
}

// Height returns the height of the latest block.
func (c *Chain) Height() uint64 { return c.blocks[len(c.blocks)-1].Header.Height }

// GasLimit returns the per-block gas limit this chain enforces.
func (c *Chain) GasLimit() uint64 { return c.cfg.BlockGasLimit }

// Head returns the latest block.
func (c *Chain) Head() *Block { return c.blocks[len(c.blocks)-1] }

// Base returns the height of the oldest block this chain holds: 0 for
// a chain grown from genesis, the snapshot height for a chain restored
// through NewChainFromSnapshot (earlier blocks are pruned).
func (c *Chain) Base() uint64 { return c.base }

// SetOnCommit installs a hook observing every committed block — the
// durable chain store's append point (nil removes it). The hook runs
// after the block and its receipts are recorded, under the caller's
// chain-serialization lock, so it must not call back into the chain.
func (c *Chain) SetOnCommit(fn func(*Block)) { c.onCommit = fn }

// BlockAt returns the block at the given height. Heights below the
// chain's base (pruned by a snapshot restore) are unavailable.
func (c *Chain) BlockAt(h uint64) (*Block, error) {
	if h < c.base {
		return nil, fmt.Errorf("ledger: block %d pruned (chain restored from snapshot at %d)", h, c.base)
	}
	if h-c.base >= uint64(len(c.blocks)) {
		return nil, fmt.Errorf("ledger: no block at height %d (head %d)", h, c.Height())
	}
	return c.blocks[h-c.base], nil
}

// State returns the live world state. Callers outside block processing
// must treat it as read-only; contract views go through it.
func (c *Chain) State() *State { return c.state }

// Receipt returns the receipt for a transaction hash.
func (c *Chain) Receipt(txHash crypto.Digest) (*Receipt, bool) {
	r, ok := c.receipts[txHash]
	return r, ok
}

// Events returns all audit-log events whose topic matches topic
// (empty string matches all), in chain order.
func (c *Chain) Events(topic string) []Event {
	if topic == "" {
		return append([]Event(nil), c.events...)
	}
	var out []Event
	for _, e := range c.events {
		if e.Topic == topic {
			out = append(out, e)
		}
	}
	return out
}

// EventsFrom returns events emitted by a specific contract, optionally
// filtered by topic.
func (c *Chain) EventsFrom(contract identity.Address, topic string) []Event {
	var out []Event
	for _, e := range c.events {
		if e.Contract != contract {
			continue
		}
		if topic != "" && e.Topic != topic {
			continue
		}
		out = append(out, e)
	}
	return out
}

// expectedProposer returns the authority expected to seal height h.
func (c *Chain) expectedProposer(h uint64) identity.Address {
	return c.cfg.Authorities[(h-1)%uint64(len(c.cfg.Authorities))]
}

// ProposeBlock builds, executes and seals the next block from the given
// transactions. The proposer identity must match the PoA rotation for the
// next height. On success the block is appended to the chain and its
// receipts recorded. Transactions that fail stateless verification cause
// the whole proposal to be rejected — a correct proposer never includes
// them.
func (c *Chain) ProposeBlock(proposer *identity.Identity, timestamp uint64, txs []*Transaction) (block *Block, err error) {
	// The component label makes seal cost (and everything it calls —
	// execution, root hashing, commit) attributable in CPU profiles.
	telemetry.WithComponent("ledger.seal", func() {
		block, err = c.proposeBlock(proposer, timestamp, txs)
	})
	return block, err
}

func (c *Chain) proposeBlock(proposer *identity.Identity, timestamp uint64, txs []*Transaction) (*Block, error) {
	timer := mSealSeconds.Time()
	height := c.Height() + 1
	if c.expectedProposer(height) != proposer.Address() {
		return nil, fmt.Errorf("%w: %s at height %d", ErrBadProposer, proposer.Address().Short(), height)
	}
	parent := c.Head()
	if timestamp <= parent.Header.Timestamp && height > 1 {
		return nil, ErrNonMonotonicTS
	}

	if err := c.verifyStateless(txs); err != nil {
		return nil, err
	}
	snap := c.state.Snapshot()
	receipts, gasUsed, err := c.applyTxs(txs, height)
	if err != nil {
		c.state.RevertTo(snap)
		return nil, err
	}

	block := &Block{
		Header: Header{
			Parent:    parent.Hash(),
			Height:    height,
			Timestamp: timestamp,
			TxRoot:    txRoot(txs),
			StateRoot: c.state.Root(),
			GasUsed:   gasUsed,
		},
		Txs: txs,
	}
	block.seal(proposer)
	c.commitBlock(block, receipts)
	timer.Stop()
	logPool.Info("sealed block",
		telemetry.U64("height", height), telemetry.Int("txs", len(txs)),
		telemetry.U64("gas", gasUsed))
	return block, nil
}

// applyTxs runs the already-stateless-verified transactions, enforcing
// nonces and the block gas limit. It returns the receipts and total gas
// used, leaving the state mutated; the caller owns snapshot/revert.
// Callers must run verifyStateless first — signature and intrinsic
// checks are not repeated here.
func (c *Chain) applyTxs(txs []*Transaction, height uint64) ([]*Receipt, uint64, error) {
	var gasUsed uint64
	receipts := make([]*Receipt, 0, len(txs))
	for i, tx := range txs {
		if want := c.state.Nonce(tx.From); tx.Nonce != want {
			return nil, 0, fmt.Errorf("ledger: tx %d nonce %d, want %d for %s", i, tx.Nonce, want, tx.From.Short())
		}
		rcpt, err := c.cfg.Applier.Apply(c.state, tx, height)
		if err != nil {
			return nil, 0, fmt.Errorf("ledger: tx %d apply: %w", i, err)
		}
		gasUsed += rcpt.GasUsed
		if gasUsed > c.cfg.BlockGasLimit {
			return nil, 0, fmt.Errorf("%w: %d > %d", ErrBlockGasLimit, gasUsed, c.cfg.BlockGasLimit)
		}
		receipts = append(receipts, rcpt)
	}
	return receipts, gasUsed, nil
}

// ExecuteBatch runs txs against the current state, returns the receipts
// and the post-execution state root, then reverts the state to where it
// was. Stateless verification is skipped: the caller vouches for the
// transactions. This is the benchmark entry point; it isolates
// execution cost from signature checking and never mutates the chain.
func (c *Chain) ExecuteBatch(txs []*Transaction) ([]*Receipt, crypto.Digest, error) {
	snap := c.state.Snapshot()
	receipts, _, err := c.applyTxs(txs, c.Height()+1)
	if err != nil {
		c.state.RevertTo(snap)
		return nil, crypto.Digest{}, err
	}
	root := c.state.Root()
	c.state.RevertTo(snap)
	return receipts, root, nil
}

func (c *Chain) commitBlock(block *Block, receipts []*Receipt) {
	c.state.Commit()
	c.blocks = append(c.blocks, block)
	for _, r := range receipts {
		c.receipts[r.TxHash] = r
		c.events = append(c.events, r.Events...)
		if r.Status == StatusOK {
			mTxApplied.Inc()
		} else {
			mTxFailed.Inc()
		}
	}
	mBlockTxs.Observe(float64(len(block.Txs)))
	mBlockGas.Observe(float64(block.Header.GasUsed))
	mHeight.Set(float64(block.Header.Height))
	if c.onCommit != nil {
		c.onCommit(block)
	}
}

// verifyHeader checks everything about a block that does not require
// executing its transactions: parent linkage, height, timestamp
// monotonicity, proposer rotation, the proposer seal and the tx root.
func (c *Chain) verifyHeader(block *Block) error {
	parent := c.Head()
	if block.Header.Parent != parent.Hash() {
		return ErrBadParent
	}
	if block.Header.Height != parent.Header.Height+1 {
		return ErrBadHeight
	}
	if block.Header.Height > 1 && block.Header.Timestamp <= parent.Header.Timestamp {
		return ErrNonMonotonicTS
	}
	if c.expectedProposer(block.Header.Height) != block.Header.Proposer {
		return ErrBadProposer
	}
	if err := block.verifySeal(); err != nil {
		return err
	}
	if txRoot(block.Txs) != block.Header.TxRoot {
		return ErrBadTxRoot
	}
	return nil
}

// executeAndCheck runs the block's transactions against the live state
// and checks the header's gas and state-root commitments. On any error
// the state is rolled back to where it was; on success the journal is
// left open at snap so the caller chooses between commit (import) and
// revert (audit-only verification).
func (c *Chain) executeAndCheck(block *Block) (receipts []*Receipt, snap int, err error) {
	snap = c.state.Snapshot()
	receipts, gasUsed, err := c.applyTxs(block.Txs, block.Header.Height)
	if err != nil {
		c.state.RevertTo(snap)
		return nil, snap, err
	}
	if gasUsed != block.Header.GasUsed {
		c.state.RevertTo(snap)
		return nil, snap, fmt.Errorf("ledger: gas used %d, header claims %d", gasUsed, block.Header.GasUsed)
	}
	if root := c.state.Root(); root != block.Header.StateRoot {
		c.state.RevertTo(snap)
		return nil, snap, fmt.Errorf("%w: computed %s, header %s", ErrBadStateRoot, root.Short(), block.Header.StateRoot.Short())
	}
	return receipts, snap, nil
}

// VerifyBlock re-validates a sealed block against this chain's tip
// without applying it: header and seal checks, stateless transaction
// verification, then a replay on a snapshot that is reverted before
// returning. Replicas that only audit use this; replicas that follow the
// chain use ImportBlock, which executes the transactions once and keeps
// the result instead of throwing it away.
func (c *Chain) VerifyBlock(block *Block) error {
	if err := c.verifyHeader(block); err != nil {
		return err
	}
	if err := c.verifyStateless(block.Txs); err != nil {
		return err
	}
	receipts, snap, err := c.executeAndCheck(block)
	if err != nil {
		return err
	}
	_ = receipts
	c.state.RevertTo(snap)
	return nil
}

// ImportBlock validates and appends a block produced by another node.
// Transactions execute exactly once: the header, seal and tx root are
// checked first, the stateless phase (signatures, sender binding,
// intrinsic gas) runs across a worker pool, and the block is then
// executed once against a snapshot whose gas total and state root are
// compared with the header before that same snapshot is committed. Any
// mismatch reverts the state and leaves the chain untouched.
func (c *Chain) ImportBlock(block *Block) (err error) {
	telemetry.WithComponent("ledger.import", func() { err = c.importBlock(block) })
	return err
}

func (c *Chain) importBlock(block *Block) error {
	timer := mImportSeconds.Time()
	defer timer.Stop()
	if err := c.verifyHeader(block); err != nil {
		logPool.Error("block import rejected at header check",
			telemetry.U64("height", block.Header.Height), telemetry.Err(err))
		return err
	}
	if err := c.verifyStateless(block.Txs); err != nil {
		logPool.Error("block import rejected at stateless verification",
			telemetry.U64("height", block.Header.Height), telemetry.Err(err))
		return err
	}
	receipts, _, err := c.executeAndCheck(block)
	if err != nil {
		logPool.Error("block import rejected at execution",
			telemetry.U64("height", block.Header.Height), telemetry.Err(err))
		return err
	}
	c.commitBlock(block, receipts)
	logPool.Info("imported block",
		telemetry.U64("height", block.Header.Height), telemetry.Int("txs", len(block.Txs)))
	return nil
}

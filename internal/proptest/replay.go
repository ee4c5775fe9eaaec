package proptest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"pds2/internal/chainstore"
	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/faults"
	"pds2/internal/ledger"
	"pds2/internal/market"
)

// The differential replay oracle: every generated chain is executed
// five independent ways and any divergence — in acceptance, in height,
// or in final state root — is a correctness failure of the ledger's
// import pipeline.
//
//	import   — a fresh replica importing block-by-block (ImportBlock)
//	audit    — a read-only auditor verifying each block (VerifyBlock)
//	           before advancing, checking that verification itself is
//	           side-effect free
//	replay   — the ledger's own export/replay path (ledger.Replay)
//	persist  — a durable replica importing through a chainstore, killed
//	           mid-run (deterministic kill/restart schedule, torn bytes
//	           appended to the log to simulate a crash mid-write) and
//	           reopened from snapshot + log tail each time
//	vm       — a bytecode-VM replica and a reference-interpreter replica
//	           (deployed policy programs re-executed from embedded
//	           source by the tree-walking oracle) importing in lockstep,
//	           compared on receipts, events and roots

// MarketRuntime builds a contract runtime with the full marketplace
// code registry — the applier any replica must run to re-validate a
// market chain.
func MarketRuntime() (*contract.Runtime, error) {
	return market.NewRuntime()
}

// ModeResult is the outcome of one replay mode over one exported chain.
type ModeResult struct {
	Mode     string
	Err      error  // nil when the whole chain was accepted
	FailedAt uint64 // height of the first rejected block (0 = none)
	Height   uint64 // final height reached
	Root     crypto.Digest
}

func (m ModeResult) String() string {
	if m.Err != nil {
		return fmt.Sprintf("%s: rejected block %d: %v", m.Mode, m.FailedAt, m.Err)
	}
	return fmt.Sprintf("%s: height %d root %s", m.Mode, m.Height, m.Root.Short())
}

// ExportMarket serializes a market's chain into the portable form the
// replay modes consume.
func ExportMarket(m *market.Market) ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Chain.Export(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// freshReplica rebuilds an empty chain from an export's embedded
// genesis configuration, with the marketplace applier.
func freshReplica(exp *ledger.ChainExport) (*ledger.Chain, error) {
	rt, err := MarketRuntime()
	if err != nil {
		return nil, err
	}
	return ledger.NewChain(ledger.ChainConfig{
		Authorities:   exp.Authorities,
		BlockGasLimit: exp.BlockGasLimit,
		GenesisAlloc:  exp.GenesisAlloc,
		Applier:       rt,
	})
}

// decodeExport parses exported chain bytes.
func decodeExport(data []byte) (*ledger.ChainExport, error) {
	var exp ledger.ChainExport
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("proptest: decode export: %w", err)
	}
	return &exp, nil
}

// runImportMode replays the chain on a fresh replica through
// ImportBlock — the path a following node runs.
func runImportMode(data []byte) ModeResult {
	res := ModeResult{Mode: "import"}
	exp, err := decodeExport(data)
	if err != nil {
		res.Err = err
		return res
	}
	chain, err := freshReplica(exp)
	if err != nil {
		res.Err = err
		return res
	}
	for _, b := range exp.Blocks {
		if err := chain.ImportBlock(b); err != nil {
			res.Err = err
			res.FailedAt = b.Header.Height
			res.Height = chain.Height()
			res.Root = chain.State().Root()
			return res
		}
	}
	res.Height = chain.Height()
	res.Root = chain.State().Root()
	return res
}

// runAuditMode replays the chain on a fresh replica through
// VerifyBlock — the read-only auditor's path — checking after every
// verification that the state is bit-identical to before (verification
// must be a pure read), then advancing with ImportBlock.
func runAuditMode(data []byte) ModeResult {
	res := ModeResult{Mode: "audit"}
	exp, err := decodeExport(data)
	if err != nil {
		res.Err = err
		return res
	}
	chain, err := freshReplica(exp)
	if err != nil {
		res.Err = err
		return res
	}
	for _, b := range exp.Blocks {
		before := chain.State().Root()
		verr := chain.VerifyBlock(b)
		if after := chain.State().Root(); after != before {
			res.Err = fmt.Errorf("proptest: VerifyBlock mutated state: %s -> %s", before.Short(), after.Short())
			res.FailedAt = b.Header.Height
			res.Height = chain.Height()
			res.Root = after
			return res
		}
		if verr != nil {
			res.Err = verr
			res.FailedAt = b.Header.Height
			res.Height = chain.Height()
			res.Root = before
			return res
		}
		if err := chain.ImportBlock(b); err != nil {
			res.Err = fmt.Errorf("proptest: verified block failed import: %w", err)
			res.FailedAt = b.Header.Height
			res.Height = chain.Height()
			res.Root = chain.State().Root()
			return res
		}
	}
	res.Height = chain.Height()
	res.Root = chain.State().Root()
	return res
}

// runReplayMode replays the chain through the ledger's own
// export/replay API.
func runReplayMode(data []byte) ModeResult {
	res := ModeResult{Mode: "replay"}
	rt, err := MarketRuntime()
	if err != nil {
		res.Err = err
		return res
	}
	chain, err := ledger.Replay(bytes.NewReader(data), rt)
	if err != nil {
		res.Err = err
		return res
	}
	res.Height = chain.Height()
	res.Root = chain.State().Root()
	return res
}

// runPersistMode replays the chain on a durable replica: blocks import
// through a chain attached to a chainstore in a scratch directory, a
// snapshot is taken every few blocks, and a deterministic kill/restart
// schedule (faults.KillRestart) crashes the replica mid-run — torn
// bytes are appended to the active log segment to simulate dying inside
// a write, then the store is reopened and the chain rebuilt from
// snapshot + log tail before importing resumes. The final root must
// match every other mode: persistence must be invisible to consensus.
func runPersistMode(data []byte) ModeResult {
	// Seed the kill schedule from the export content so each generated
	// chain crashes at different (but reproducible) heights.
	res, _ := persistReplay(data, faults.KillRestart(uint64(len(data))*2654435761))
	return res
}

// persistReplay is the persist oracle with an explicit kill schedule;
// it also reports how many kill/restart cycles actually fired so
// harnesses can assert the crash path was exercised.
func persistReplay(data []byte, sched faults.Schedule) (ModeResult, int) {
	res := ModeResult{Mode: "persist"}
	kills := 0
	exp, err := decodeExport(data)
	if err != nil {
		res.Err = err
		return res, kills
	}
	dir, err := os.MkdirTemp("", "pds2-persist-*")
	if err != nil {
		res.Err = err
		return res, kills
	}
	defer os.RemoveAll(dir)

	inj := faults.NewInjector(sched)

	const snapshotEvery = 4
	store, err := chainstore.Open(dir, nil)
	if err != nil {
		res.Err = err
		return res, kills
	}
	rt, err := MarketRuntime()
	if err != nil {
		res.Err = err
		return res, kills
	}
	chain, err := freshReplica(exp)
	if err != nil {
		res.Err = err
		return res, kills
	}
	if err := store.InitChain(chain); err != nil {
		res.Err = err
		return res, kills
	}
	store.AttachSnapshotting(chain, snapshotEvery)

	for i := 0; i < len(exp.Blocks); {
		b := exp.Blocks[i]
		if err := chain.ImportBlock(b); err != nil {
			res.Err = err
			res.FailedAt = b.Header.Height
			res.Height = chain.Height()
			res.Root = chain.State().Root()
			store.Close()
			return res, kills
		}
		i++
		if !inj.ShouldKill() {
			continue
		}
		kills++
		// Crash: abandon the store without Close, tear the log's tail
		// (a frame died mid-write), then reopen and rebuild.
		_ = store.Close() // the fsynced prefix is what survives either way
		if err := tearActiveSegment(dir); err != nil {
			res.Err = err
			return res, kills
		}
		store, err = chainstore.Open(dir, nil)
		if err != nil {
			res.Err = fmt.Errorf("proptest: reopen after kill: %w", err)
			return res, kills
		}
		chain, err = store.OpenChain(rt)
		if err != nil {
			res.Err = fmt.Errorf("proptest: rebuild after kill: %w", err)
			store.Close()
			return res, kills
		}
		store.AttachSnapshotting(chain, snapshotEvery)
		// Torn-tail truncation may have dropped the last committed
		// block; re-import from wherever the durable prefix ends.
		i = int(chain.Height()) - firstImportOffset(exp)
	}
	res.Height = chain.Height()
	res.Root = chain.State().Root()
	store.Close()
	return res, kills
}

// firstImportOffset maps a chain height back to an index into
// exp.Blocks (whose first entry is height 1... unless a market sealed
// setup blocks before the export; the blocks slice always starts at
// height Blocks[0].Header.Height).
func firstImportOffset(exp *ledger.ChainExport) int {
	if len(exp.Blocks) == 0 {
		return 0
	}
	return int(exp.Blocks[0].Header.Height) - 1
}

// tearActiveSegment appends garbage to the newest log segment,
// simulating a crash partway through an append: a frame header
// promising more bytes than were ever written.
func tearActiveSegment(dir string) error {
	names, err := filepath.Glob(filepath.Join(dir, "segments", "seg-*.log"))
	if err != nil || len(names) == 0 {
		return err
	}
	f, err := os.OpenFile(names[len(names)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write([]byte{0x00, 0x01, 0xFF, 0x03, 0xDE, 0xAD})
	return err
}

// runVMMode replays the chain on a replica whose registry runs deployed
// policy programs through the reference tree-walking evaluator instead
// of the bytecode VM, importing in lockstep with a normal (VM) replica.
// The two engines share one host adapter and one gas charge schedule,
// so every block must land on identical receipts, event logs and state
// roots — a VM miscompilation, dispatch bug or gas-charge drift breaks
// this mode even when each engine is self-consistent.
func runVMMode(data []byte) ModeResult {
	res := ModeResult{Mode: "vm"}
	exp, err := decodeExport(data)
	if err != nil {
		res.Err = err
		return res
	}
	vmChain, err := freshReplica(exp)
	if err != nil {
		res.Err = err
		return res
	}
	refRT, err := market.NewReferenceRuntime()
	if err != nil {
		res.Err = err
		return res
	}
	refChain, err := ledger.NewChain(ledger.ChainConfig{
		Authorities:   exp.Authorities,
		BlockGasLimit: exp.BlockGasLimit,
		GenesisAlloc:  exp.GenesisAlloc,
		Applier:       refRT,
	})
	if err != nil {
		res.Err = err
		return res
	}
	fail := func(b *ledger.Block, err error) ModeResult {
		res.Err = err
		res.FailedAt = b.Header.Height
		res.Height = refChain.Height()
		res.Root = refChain.State().Root()
		return res
	}
	for _, b := range exp.Blocks {
		verr, rerr := vmChain.ImportBlock(b), refChain.ImportBlock(b)
		if (verr == nil) != (rerr == nil) {
			return fail(b, fmt.Errorf("proptest: vm/reference acceptance split: vm %v, reference %v", verr, rerr))
		}
		if rerr != nil {
			return fail(b, rerr)
		}
		for _, tx := range b.Txs {
			vr, vok := vmChain.Receipt(tx.Hash())
			rr, rok := refChain.Receipt(tx.Hash())
			if !vok || !rok || !reflect.DeepEqual(vr, rr) {
				return fail(b, fmt.Errorf("proptest: vm/reference receipt divergence for tx %s: vm %+v, reference %+v",
					tx.Hash().Short(), vr, rr))
			}
		}
		if vev, rev := vmChain.Events(""), refChain.Events(""); !reflect.DeepEqual(vev, rev) {
			return fail(b, fmt.Errorf("proptest: vm/reference event-log divergence at height %d: vm %d events, reference %d",
				b.Header.Height, len(vev), len(rev)))
		}
	}
	res.Height = refChain.Height()
	res.Root = refChain.State().Root()
	return res
}

// RunReplayModes executes an exported chain through all five modes.
func RunReplayModes(data []byte) []ModeResult {
	return []ModeResult{
		runImportMode(data),
		runAuditMode(data),
		runReplayMode(data),
		runPersistMode(data),
		runVMMode(data),
	}
}

// DifferentialCheck asserts that every mode accepted the chain and that
// all modes converged on the same height and state root; live, when
// non-nil, is the originating market every mode must also agree with.
func DifferentialCheck(results []ModeResult, live *market.Market) error {
	if len(results) == 0 {
		return fmt.Errorf("proptest: no replay results")
	}
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("proptest: mode %s rejected the chain: %w", r.Mode, r.Err)
		}
	}
	want := results[0]
	for _, r := range results[1:] {
		if r.Height != want.Height || r.Root != want.Root {
			return fmt.Errorf("proptest: divergence: %s vs %s", want, r)
		}
	}
	if live != nil {
		if h := live.Height(); h != want.Height {
			return fmt.Errorf("proptest: replicas at height %d, live chain at %d", want.Height, h)
		}
		if root := live.Chain.State().Root(); root != want.Root {
			return fmt.Errorf("proptest: replica root %s, live root %s", want.Root.Short(), root.Short())
		}
	}
	return nil
}

// CheckDetection asserts that every mode rejected a (corrupted) chain —
// a corruption that slips past any replica is a validation hole.
func CheckDetection(results []ModeResult) error {
	for _, r := range results {
		if r.Err == nil {
			return fmt.Errorf("proptest: mode %s accepted a corrupted chain (height %d, root %s)",
				r.Mode, r.Height, r.Root.Short())
		}
	}
	return nil
}

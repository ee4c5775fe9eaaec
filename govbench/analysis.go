package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"

	"pds2/internal/telemetry"
)

// backlogGrowth is how much later (mean due→send) the last third of an
// open-loop phase may be sent than its first third before the phase
// counts as building a backlog.
const backlogGrowth = 50 * time.Millisecond

// window is the ops [lo, hi) of one phase, read after it settled.
type window struct {
	d      *generator
	lo, hi int
}

func (d *generator) window(lo, hi int) window { return window{d: d, lo: lo, hi: hi} }

func (w window) ok(i int) bool {
	return w.d.recs[i].status.Load() == int32(w.d.ops[i].want)
}

// each calls fn for every op of the window with its op and record.
func (w window) each(fn func(i int, o *op, r *rec)) {
	for i := w.lo; i < w.hi; i++ {
		fn(i, &w.d.ops[i], &w.d.recs[i])
	}
}

func msBetween(a, b int64) float64 { return float64(b-a) / 1e6 }

// done is when op i completed (a write committed, a read answered), or
// 0 if it failed or has not completed.
func (w window) done(i int) int64 {
	switch r := &w.d.recs[i]; {
	case !w.ok(i):
		return 0
	case w.d.ops[i].write:
		return r.commit.Load()
	default:
		return r.resp.Load()
	}
}

// completions returns due→complete latencies in ms for writes (until
// committed) and reads (until answered); an op that failed or never
// completed is +Inf, so it misses any limit.
func (w window) completions() (writes, reads []float64) {
	w.each(func(i int, o *op, r *rec) {
		lat := inf
		if end := w.done(i); end > 0 {
			lat = msBetween(r.due.Load(), end)
		}
		if o.write {
			writes = append(writes, lat)
		} else {
			reads = append(reads, lat)
		}
	})
	return writes, reads
}

// cpuPerOp is the node's CPU per completed op, in µs, over whole block
// intervals of a phase that ran in (start, stop]: from the first block
// seen in it to the last, against the writes those later blocks commit
// and the reads answered in between. Each interval holds exactly one
// seal, so the figure does not depend on how many seals the phase
// happened to span. It returns the ops counted.
func (w window) cpuPerOp(start, stop int64) (float64, int) {
	var in []blockObs
	for _, b := range w.d.snapshotBlocks() {
		if b.at > start && b.at <= stop {
			in = append(in, b)
		}
	}
	if len(in) < 2 {
		return 0, 0
	}
	from, to := in[0], in[len(in)-1]
	n := 0
	for i := w.lo; i < w.hi; i++ {
		if end := w.done(i); end > from.at && end <= to.at {
			n++
		}
	}
	return float64(to.cpu-from.cpu) / 1e3 / float64(max(n, 1)), n
}

// addLatency adds the fixed-rate write latencies: due→202 and
// due→commit observed.
func (w window) addLatency(res *result) {
	var submit []float64
	w.each(func(i int, o *op, r *rec) {
		if o.write && w.ok(i) {
			submit = append(submit, msBetween(r.due.Load(), r.resp.Load()))
		}
	})
	commit, _ := w.completions()
	res.e2e.addDist("submit", submit, "ms")
	res.e2e.addDist("commit", commit, "ms")
}

// addService adds the client spans of the fixed-rate phase: send→answer
// per request kind, and due→send waits.
func (w window) addService(res *result) {
	var submit, read, wait []float64
	w.each(func(i int, o *op, r *rec) {
		wait = append(wait, msBetween(r.due.Load(), r.send.Load()))
		if !w.ok(i) {
			return
		}
		us := msBetween(r.send.Load(), r.resp.Load()) * 1e3
		if o.write {
			submit = append(submit, us)
		} else {
			read = append(read, us)
		}
	})
	res.layers.addDist("api.submit_service", submit, "us")
	res.layers.addDist("api.read_service", read, "us")
	slices.Sort(wait)
	res.layers.add("api.wait_p99_ms", quantile(wait, 0.99), "ms", len(wait))
}

// lags returns the generator's own lateness per op, in ms.
func (w window) lags() []float64 {
	var out []float64
	w.each(func(i int, o *op, r *rec) { out = append(out, float64(r.lag.Load())/1e6) })
	return out
}

// meets reports whether an open-loop phase kept within the workload's
// limits: completion p99 of writes and reads under their limits, and
// no growing send backlog.
func (w window) meets(wl workload) bool {
	writes, reads := w.completions()
	if len(writes) > 0 && pct(writes, 0.99) > ms(wl.writeLimit) {
		return false
	}
	if len(reads) > 0 && pct(reads, 0.99) > ms(wl.readLimit) {
		return false
	}
	n := w.hi - w.lo
	if n < 3 {
		return true
	}
	wait := func(lo, hi int) float64 {
		var v []float64
		for i := lo; i < hi; i++ {
			r := &w.d.recs[i]
			v = append(v, msBetween(r.due.Load(), r.send.Load()))
		}
		return mean(v)
	}
	return wait(w.hi-n/3, w.hi)-wait(w.lo, w.lo+n/3) <= ms(backlogGrowth)
}

// peakSlices is how many equal slices of the closed loop peak takes
// the median over, so a short stall of the host does not set it.
const peakSlices = 4

// peak is the closed loop's completion rate: the ops sent in each slice
// of the phase that completed (writes committed, reads answered) by the
// end of the phase plus a drain of one write limit, per second of
// slice; the median over the slices. It returns the ops counted.
func (w window) peak(start, stop int64, drain time.Duration) (float64, int) {
	counts := make([]float64, peakSlices)
	slice := float64(stop-start) / peakSlices
	n := 0
	for i := w.lo; i < w.hi; i++ {
		if end := w.done(i); end == 0 || end > stop+int64(drain) {
			continue
		}
		k := min(int(float64(w.d.recs[i].send.Load()-start)/slice), peakSlices-1)
		counts[max(k, 0)]++
		n++
	}
	for k := range counts {
		counts[k] /= slice / 1e9
	}
	return median(counts), n
}

// addLayerCost adds the follower's replay costs, per committed tx or
// per block.
func addLayerCost(res *result, lc *layerCost) {
	tx := float64(max(lc.txs, 1))
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / tx }
	res.layers.add("api.decode_us_per_tx", us(lc.decode), "us", lc.txs)
	res.layers.add("ledger.hash_us_per_tx", us(lc.hash), "us", lc.txs)
	res.layers.add("ledger.verify_us_per_tx", us(lc.verify), "us", lc.txs)
	res.layers.add("ledger.mempool_add_us_per_tx", us(lc.mempoolAdd), "us", lc.txs)
	res.layers.add("ledger.pack_us_per_tx", us(lc.pack), "us", lc.txs)
	res.layers.add("ledger.exec_us_per_tx", us(lc.exec), "us", lc.txs)
	res.layers.add("ledger.root_ms_per_block", ms(lc.root)/float64(max(lc.blocks, 1)), "ms", lc.blocks)
	res.layers.add("ledger.import_us_per_tx", us(lc.import_), "us", lc.txs)
	res.layers.addDist("chainstore.append", lc.appendMS, "ms")
	res.layers.add("ledger.replay_seal_p50_ms", pct(lc.sealMS, 0.5), "ms", len(lc.sealMS))
}

// addNodeMetrics adds what the node's own registry says about the run:
// deltas of counters and sums, and the p50/p99 of histograms (which
// the node keeps since launch, including its four genesis blocks).
func addNodeMetrics(res *result, s0, s1 telemetry.Snapshot) {
	get := func(s telemetry.Snapshot, name string) telemetry.Metric {
		m, _ := s.Get(name) // a metric the node never touched reads as zero
		return m
	}
	delta := func(name string) float64 { return get(s1, name).Value - get(s0, name).Value }
	hist := func(name string) (sum, count float64) {
		a, b := get(s0, name), get(s1, name)
		return b.Sum - a.Sum, float64(b.Count - a.Count)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	seal := get(s1, "ledger.block.seal_seconds")
	res.layers.add("ledger.seal_p50_ms", seal.P50*1e3, "ms", int(seal.Count))
	res.layers.add("ledger.seal_p99_ms", seal.P99*1e3, "ms", int(seal.Count))
	if replayed, ok := res.layers.get("ledger.replay_seal_p50_ms"); ok {
		res.layers.add("ledger.seal_gap_p50_ms", seal.P50*1e3-replayed.value, "ms", int(seal.Count))
	} else {
		res.layers.add("ledger.seal_gap_p50_ms", 0, "ms", 0)
	}
	sum, count := hist("ledger.block.stateless_seconds")
	res.layers.add("ledger.propose_verify_ms_per_block", ratio(sum*1e3, count), "ms", int(count))
	fsync := get(s1, "chainstore.fsync_seconds")
	res.layers.add("chainstore.fsync_p50_ms", fsync.P50*1e3, "ms", int(fsync.Count))
	res.layers.add("chainstore.fsync_p99_ms", fsync.P99*1e3, "ms", int(fsync.Count))
	sum, count = hist("ledger.block.txs")
	res.layers.add("ledger.block_txs_mean", ratio(sum, count), "txs", int(count))
	committed := delta("ledger.tx.applied_total") + delta("ledger.tx.failed_total")
	res.layers.add("ledger.mempool_useful_frac", ratio(committed, delta("ledger.mempool.admitted_total")), "ratio", int(committed))
	res.layers.add("ledger.parallel_reexec_frac", ratio(delta("ledger.parallel.reexec_total"), delta("ledger.parallel.txs_total")), "ratio", int(delta("ledger.parallel.txs_total")))
	call := get(s1, "contract.call.seconds")
	res.layers.add("contract.call_p99_us", call.P99*1e6, "us", int(call.Count))
}

// writeTrace writes one span line per op of the run: due, send, answer
// and commit in ns since the generator started.
func (d *generator) writeTrace(path string, first int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type span struct {
		Op     int    `json:"op"`
		Class  string `json:"class"`
		Due    int64  `json:"due"`
		Send   int64  `json:"send"`
		Answer int64  `json:"answer"`
		Commit int64  `json:"commit,omitempty"`
		Status int32  `json:"status"`
	}
	for i := first; i < len(d.ops); i++ {
		r := &d.recs[i]
		if r.send.Load() == 0 {
			break
		}
		s := span{Op: i - first, Class: d.ops[i].class, Due: r.due.Load(), Send: r.send.Load(),
			Answer: r.resp.Load(), Commit: r.commit.Load(), Status: r.status.Load()}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

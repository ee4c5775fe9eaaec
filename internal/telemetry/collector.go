package telemetry

import (
	"encoding/json"
	"sort"
	"sync"
)

// Collector merges finished spans from many per-node registries into
// one trace set — the stitching half of distributed tracing. Each node
// records spans locally (cheap, lock-once-per-span); a collector pulls
// the ring snapshots together after the fact, deduplicates, and groups
// by TraceID so a workload that hopped consumer → governance → executor
// renders as a single tree.
type Collector struct {
	mu      sync.Mutex
	spans   map[SpanID]Span
	history map[historyKey]HistorySample
}

// historyKey identifies one history sample across repeated collection
// rounds: a node takes at most one registry snapshot per instant.
type historyKey struct {
	node   string
	unixNS int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		spans:   make(map[SpanID]Span),
		history: make(map[historyKey]HistorySample),
	}
}

// Add merges spans into the collector. Re-added span IDs overwrite, so
// repeated collection rounds from the same node are idempotent.
func (c *Collector) Add(spans ...Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range spans {
		c.spans[s.ID] = s
	}
}

// AddRegistry snapshots a registry's tracer into the collector.
func (c *Collector) AddRegistry(r *Registry) {
	c.Add(r.Tracer().Spans()...)
}

// AddHistory merges one node's metrics-history samples into the
// collector. Keyed by (node, sample time), so re-collecting the same
// ring — or a longer window that overlaps a previous pull — is
// idempotent. Nodes with disjoint metric sets coexist: each sample
// carries its own metric list and History() keeps them separate
// per node.
func (c *Collector) AddHistory(samples ...HistorySample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range samples {
		c.history[historyKey{node: s.Node, unixNS: s.UnixNS}] = s
	}
}

// AddHistoryDump merges a /v1/metrics/history response into the collector.
// Samples missing a node name inherit the dump's.
func (c *Collector) AddHistoryDump(d HistoryDump) {
	for i := range d.Samples {
		if d.Samples[i].Node == "" {
			d.Samples[i].Node = d.Node
		}
	}
	c.AddHistory(d.Samples...)
}

// History returns every collected sample ordered by sample time, ties
// broken by node name for determinism. Clock skew between nodes is the
// caller's problem to interpret — the merge preserves each node's own
// timestamps rather than trying to correct them, so a skewed node's
// samples interleave wherever its clock placed them.
func (c *Collector) History() []HistorySample {
	c.mu.Lock()
	out := make([]HistorySample, 0, len(c.history))
	for _, s := range c.history {
		out = append(out, s)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].UnixNS != out[j].UnixNS {
			return out[i].UnixNS < out[j].UnixNS
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// NodeHistory returns one node's samples in time order.
func (c *Collector) NodeHistory(node string) []HistorySample {
	all := c.History()
	out := all[:0:0]
	for _, s := range all {
		if s.Node == node {
			out = append(out, s)
		}
	}
	return out
}

// HistoryNodes returns the node names present in the merged history,
// sorted.
func (c *Collector) HistoryNodes() []string {
	c.mu.Lock()
	seen := make(map[string]bool)
	for k := range c.history {
		seen[k.node] = true
	}
	c.mu.Unlock()
	nodes := make([]string, 0, len(seen))
	for n := range seen {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// Series extracts one metric's merged time series for one node. Samples
// where the node never registered the metric are skipped, so nodes with
// disjoint metric sets yield disjoint series rather than zero-filled
// ones.
func (c *Collector) Series(node, metric string) []SeriesPoint {
	return seriesOf(c.NodeHistory(node), metric)
}

// Trace returns every collected span as one Trace, ordered by start
// time (ties broken by span ID for determinism).
func (c *Collector) Trace() Trace {
	c.mu.Lock()
	spans := make([]Span, 0, len(c.spans))
	for _, s := range c.spans {
		spans = append(spans, s)
	}
	c.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartNS != spans[j].StartNS {
			return spans[i].StartNS < spans[j].StartNS
		}
		return spans[i].ID < spans[j].ID
	})
	return Trace{Spans: spans}
}

// Traces splits the collected spans by TraceID, each sorted by start
// time, ordered by the earliest span of each trace. Spans recorded
// before trace propagation existed (TraceID 0) group together.
func (c *Collector) Traces() []Trace {
	all := c.Trace().Spans
	byTrace := make(map[TraceID][]Span)
	var order []TraceID
	for _, s := range all {
		if _, ok := byTrace[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	out := make([]Trace, 0, len(order))
	for _, id := range order {
		out = append(out, Trace{Spans: byTrace[id]})
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event format ("X" =
// complete event, "M" = metadata). chrome://tracing and Perfetto both
// load the {"traceEvents": [...]} container emitted by ChromeTraceJSON.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTraceJSON exports the trace in Chrome trace-event JSON. Each
// node maps to a process (pid) named after it via process_name metadata
// events, and each TraceID maps to a thread (tid) within the node, so
// the viewer lays a distributed workload out as parallel tracks with
// one row per node.
func (tr Trace) ChromeTraceJSON() ([]byte, error) {
	pids := make(map[string]int)
	tids := make(map[TraceID]int)
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	pidOf := func(node string) int {
		if node == "" {
			node = "unknown"
		}
		pid, ok := pids[node]
		if !ok {
			pid = len(pids) + 1
			pids[node] = pid
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": node},
			})
		}
		return pid
	}
	for _, s := range tr.Spans {
		tid, ok := tids[s.Trace]
		if !ok {
			tid = len(tids) + 1
			tids[s.Trace] = tid
		}
		args := map[string]any{
			"span":   SpanContext{Trace: s.Trace, Span: s.ID}.String(),
			"parent": uint64(s.Parent),
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			TS:   float64(s.StartNS) / 1e3,
			Dur:  float64(s.DurNS) / 1e3,
			PID:  pidOf(s.Node),
			TID:  tid,
			Cat:  "pds2",
			Args: args,
		})
	}
	return json.MarshalIndent(out, "", " ")
}

// Roots returns the spans with no parent present in the trace, in start
// order — the tree roots TreeString would render at depth zero.
func (tr Trace) Roots() []Span {
	present := make(map[SpanID]bool, len(tr.Spans))
	for _, s := range tr.Spans {
		present[s.ID] = true
	}
	var roots []Span
	for _, s := range tr.Spans {
		if s.Parent == 0 || !present[s.Parent] {
			roots = append(roots, s)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].StartNS < roots[j].StartNS })
	return roots
}

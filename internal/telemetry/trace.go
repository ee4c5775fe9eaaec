package telemetry

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a recorded span. 0 is "no span" and is the parent of
// root spans. The high 32 bits are a per-tracer random salt, so span IDs
// from different nodes' registries never collide when a Collector merges
// them.
type SpanID uint64

// TraceID groups all spans of one distributed workload, across however
// many nodes it touched. A root span allocates a fresh trace ID; every
// descendant — including spans recorded on other nodes after the context
// crossed the wire — inherits it. 0 means "no trace".
type TraceID uint64

// SpanContext is the compact trace context that crosses process and
// node boundaries: enough to continue a trace on the receiving side.
// It rides in simnet message envelopes, gossip payloads and the
// X-PDS2-Trace HTTP header.
type SpanContext struct {
	Trace TraceID `json:"trace,omitempty"`
	Span  SpanID  `json:"span,omitempty"`
}

// IsZero reports whether the context carries no trace.
func (c SpanContext) IsZero() bool { return c.Trace == 0 && c.Span == 0 }

// String encodes the context as "traceID-spanID" in fixed-width hex —
// the HTTP header wire format.
func (c SpanContext) String() string {
	return fmt.Sprintf("%016x-%016x", uint64(c.Trace), uint64(c.Span))
}

// ParseSpanContext decodes the String form. An empty string is the zero
// context, not an error, so absent headers parse cleanly.
func ParseSpanContext(s string) (SpanContext, error) {
	if s == "" {
		return SpanContext{}, nil
	}
	var tr, sp uint64
	if _, err := fmt.Sscanf(s, "%16x-%16x", &tr, &sp); err != nil {
		return SpanContext{}, fmt.Errorf("telemetry: bad span context %q: %w", s, err)
	}
	return SpanContext{Trace: TraceID(tr), Span: SpanID(sp)}, nil
}

// Span is one finished timed operation. Spans link to their parent by
// ID, forming per-workload trees (workload.lifecycle → submit → match →
// execute → settle); Trace stitches the fragments of one workload back
// together after they were recorded on different nodes, and Node says
// where the span ran.
type Span struct {
	ID      SpanID            `json:"id"`
	Parent  SpanID            `json:"parent,omitempty"`
	Trace   TraceID           `json:"trace,omitempty"`
	Name    string            `json:"name"`
	Node    string            `json:"node,omitempty"`
	StartNS int64             `json:"start_ns"` // unix nanoseconds
	DurNS   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Context returns the span's propagation context, for parenting remote
// children.
func (s Span) Context() SpanContext { return SpanContext{Trace: s.Trace, Span: s.ID} }

// DefaultSpanCapacity bounds the tracer ring buffer: old spans are
// overwritten once the buffer is full, so tracing is always safe to
// leave on.
const DefaultSpanCapacity = 4096

// Tracer records finished spans into a fixed-capacity ring buffer.
// Starting a span is one atomic increment; recording takes the tracer
// lock once, at End.
type Tracer struct {
	r         *Registry
	salt      uint64 // random high 32 bits of every ID this tracer mints
	next      atomic.Uint64
	nextTrace atomic.Uint64

	mu   sync.Mutex
	buf  []Span
	pos  int
	full bool
}

func newTracer(r *Registry, capacity int) *Tracer {
	if capacity < 1 {
		capacity = DefaultSpanCapacity
	}
	return &Tracer{r: r, salt: idSalt(), buf: make([]Span, capacity)}
}

// idSalt draws the random high half of this tracer's span and trace IDs.
// Two registries colliding requires a 32-bit birthday collision, far
// beyond any realistic node count per collector.
func idSalt() uint64 {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to
		// an unsalted tracer rather than panicking in instrumentation.
		return 0
	}
	return uint64(binary.BigEndian.Uint32(b[:])) << 32
}

// Start opens a span under the given parent context. A zero parent
// starts a new trace. It returns nil when the registry is disabled; all
// ActiveSpan methods are nil-safe, so callers never branch.
func (t *Tracer) Start(name string, parent SpanContext) *ActiveSpan {
	if t == nil || !t.r.enabled.Load() {
		return nil
	}
	trace := parent.Trace
	if trace == 0 {
		trace = TraceID(t.salt | t.nextTrace.Add(1)&0xffffffff)
	}
	return &ActiveSpan{
		t:      t,
		id:     SpanID(t.salt | t.next.Add(1)&0xffffffff),
		trace:  trace,
		parent: parent.Span,
		name:   name,
		start:  time.Now(),
	}
}

// record appends a finished span, overwriting the oldest when full.
func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.buf[t.pos] = s
	t.pos++
	if t.pos == len(t.buf) {
		t.pos = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Spans returns the recorded spans, oldest first.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Span(nil), t.buf[:t.pos]...)
	}
	out := make([]Span, 0, len(t.buf))
	out = append(out, t.buf[t.pos:]...)
	return append(out, t.buf[:t.pos]...)
}

// Reset drops all recorded spans. Span IDs keep increasing, so parent
// links from before a reset never collide with spans after it.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.pos, t.full = 0, false
	t.mu.Unlock()
}

// Trace is the exportable form of the span buffer (the /v1/trace body).
type Trace struct {
	Spans []Span `json:"spans"`
}

// Export snapshots the recorded spans. The slice is never nil, so an
// empty tracer serializes as {"spans": []} rather than null.
func (t *Tracer) Export() Trace {
	spans := t.Spans()
	if spans == nil {
		spans = []Span{}
	}
	return Trace{Spans: spans}
}

// TreeString renders the spans as an indented forest, children under
// parents in start order — the human-readable form for the CLI.
func (tr Trace) TreeString() string {
	children := make(map[SpanID][]Span)
	byID := make(map[SpanID]bool, len(tr.Spans))
	for _, s := range tr.Spans {
		byID[s.ID] = true
	}
	var roots []Span
	for _, s := range tr.Spans {
		// A span whose parent fell off the ring renders as a root.
		if s.Parent == 0 || !byID[s.Parent] {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byStart := func(spans []Span) {
		sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	}
	byStart(roots)
	var sb strings.Builder
	var render func(s Span, depth int)
	render = func(s Span, depth int) {
		fmt.Fprintf(&sb, "%s%s  %s", strings.Repeat("  ", depth), s.Name,
			time.Duration(s.DurNS).Round(time.Microsecond))
		if s.Node != "" {
			fmt.Fprintf(&sb, " @%s", s.Node)
		}
		if len(s.Attrs) > 0 {
			keys := make([]string, 0, len(s.Attrs))
			for k := range s.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, " %s=%s", k, s.Attrs[k])
			}
		}
		sb.WriteByte('\n')
		kids := children[s.ID]
		byStart(kids)
		for _, c := range kids {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
	return sb.String()
}

// ActiveSpan is an open span held by the code path being traced. The
// nil ActiveSpan (telemetry disabled) accepts every call and does
// nothing.
type ActiveSpan struct {
	t      *Tracer
	id     SpanID
	trace  TraceID
	parent SpanID
	name   string
	start  time.Time
	attrs  map[string]string
}

// ID returns the span's ID, for parenting children. Nil spans return 0,
// so children of a disabled span become roots — harmless, since they
// are only created when telemetry is re-enabled mid-flight.
func (s *ActiveSpan) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Context returns the propagation context children should parent under,
// locally or across the wire. Nil spans return the zero context, so
// disabled-telemetry sends carry no trace bytes.
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.trace, Span: s.id}
}

// SetAttr attaches a key/value label to the span.
func (s *ActiveSpan) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[k] = v
}

// End closes the span and records it. Calling End twice records twice;
// don't.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.t.record(Span{
		ID:      s.id,
		Parent:  s.parent,
		Trace:   s.trace,
		Name:    s.name,
		Node:    s.t.r.Node(),
		StartNS: s.start.UnixNano(),
		DurNS:   int64(time.Since(s.start)),
		Attrs:   s.attrs,
	})
}

package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LogLevel orders structured-log severities. A component emits a record
// only when the record's level is at or above the component's effective
// level; LevelOff silences the component entirely and is the default,
// matching the rest of telemetry.
type LogLevel int32

// Log levels, least to most severe.
const (
	LevelDebug LogLevel = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff // disables a component; never used on records
)

// String implements fmt.Stringer.
func (l LogLevel) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	case LevelOff:
		return "off"
	default:
		return fmt.Sprintf("LogLevel(%d)", int32(l))
	}
}

// ParseLogLevel parses a level name as used by -log-level specs.
func ParseLogLevel(s string) (LogLevel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off", "none":
		return LevelOff, nil
	default:
		return LevelOff, fmt.Errorf("telemetry: unknown log level %q", s)
	}
}

// F is one structured field of a log record. Constructors only copy
// values — no formatting, no allocation — so a filtered-out call costs
// the level check plus a few stack stores (see BenchmarkLogDisabled).
// Formatting to text happens in emit, on the enabled path only.
type F struct {
	K    string
	s    string
	num  uint64 // int64/float64 bit patterns and bools share one word
	kind uint8
}

const (
	fkString uint8 = iota
	fkInt
	fkUint
	fkFloat
	fkBool
)

// Str builds a string field. The value is referenced, not formatted.
func Str(k, v string) F { return F{K: k, kind: fkString, s: v} }

// Int builds an int field.
func Int(k string, v int) F { return F{K: k, kind: fkInt, num: uint64(v)} }

// I64 builds an int64 field.
func I64(k string, v int64) F { return F{K: k, kind: fkInt, num: uint64(v)} }

// U64 builds a uint64 field.
func U64(k string, v uint64) F { return F{K: k, kind: fkUint, num: v} }

// F64 builds a float64 field.
func F64(k string, v float64) F { return F{K: k, kind: fkFloat, num: math.Float64bits(v)} }

// Bool builds a bool field.
func Bool(k string, v bool) F {
	var u uint64
	if v {
		u = 1
	}
	return F{K: k, kind: fkBool, num: u}
}

// Err builds the conventional "err" field from an error.
func Err(err error) F {
	if err == nil {
		return F{K: "err", kind: fkString, s: "<nil>"}
	}
	return F{K: "err", kind: fkString, s: err.Error()}
}

// value formats the field for retention; only emit calls it.
func (f F) value() string {
	switch f.kind {
	case fkInt:
		return strconv.FormatInt(int64(f.num), 10)
	case fkUint:
		return strconv.FormatUint(f.num, 10)
	case fkFloat:
		return strconv.FormatFloat(math.Float64frombits(f.num), 'g', -1, 64)
	case fkBool:
		return strconv.FormatBool(f.num == 1)
	default:
		return f.s
	}
}

// LogField is the retained (formatted) form of a field.
type LogField struct {
	K string `json:"k"`
	V string `json:"v"`
}

// LogEvent is one retained structured-log record — the GET /v1/logs wire
// element.
type LogEvent struct {
	// Seq numbers records monotonically from 1 for the life of the
	// log (Reset does not rewind it), so consumers can page through
	// the ring with a stable cursor even while old records are
	// evicted.
	Seq       uint64     `json:"seq"`
	TimeNS    int64      `json:"time_ns"`
	Level     string     `json:"level"`
	Component string     `json:"component"`
	Node      string     `json:"node,omitempty"`
	Msg       string     `json:"msg"`
	Fields    []LogField `json:"fields,omitempty"`
}

// Text renders the event as one "ts level component msg k=v …" line.
func (e LogEvent) Text() string {
	var sb strings.Builder
	sb.Grow(64)
	sb.WriteString(time.Unix(0, e.TimeNS).UTC().Format("15:04:05.000000"))
	fmt.Fprintf(&sb, " %-5s %-8s %s", e.Level, e.Component, e.Msg)
	for _, f := range e.Fields {
		sb.WriteByte(' ')
		sb.WriteString(f.K)
		sb.WriteByte('=')
		sb.WriteString(f.V)
	}
	return sb.String()
}

// DefaultLogCapacity bounds the log ring: old records are overwritten
// once the buffer is full, so logging is always safe to leave on.
const DefaultLogCapacity = 4096

// Log is a leveled, structured, ring-retained event log. Components
// (per-subsystem handles) carry their own atomic effective level, so a
// record below a component's level costs one atomic load and no lock;
// enabled records take the ring mutex once.
type Log struct {
	def atomic.Int32 // default LogLevel for components without overrides

	mu        sync.Mutex
	comps     map[string]*Component
	overrides map[string]LogLevel
	node      string
	out       io.Writer // optional mirror, one Text line per record
	buf       []LogEvent
	pos       int
	full      bool
	seq       uint64 // last assigned LogEvent.Seq
}

// NewLog returns a log retaining up to capacity records (<= 0 selects
// DefaultLogCapacity). All components start at LevelOff.
func NewLog(capacity int) *Log {
	if capacity < 1 {
		capacity = DefaultLogCapacity
	}
	l := &Log{
		comps:     make(map[string]*Component),
		overrides: make(map[string]LogLevel),
		buf:       make([]LogEvent, capacity),
	}
	l.def.Store(int32(LevelOff))
	return l
}

// Component returns the named component handle, creating it at the
// current effective level on first use.
func (l *Log) Component(name string) *Component {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok := l.comps[name]; ok {
		return c
	}
	c := &Component{l: l, name: name}
	lvl := LogLevel(l.def.Load())
	if o, ok := l.overrides[name]; ok {
		lvl = o
	}
	c.level.Store(int32(lvl))
	l.comps[name] = c
	return c
}

// SetDefaultLevel sets the level of every component without an explicit
// override.
func (l *Log) SetDefaultLevel(lvl LogLevel) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.def.Store(int32(lvl))
	for name, c := range l.comps {
		if _, ok := l.overrides[name]; !ok {
			c.level.Store(int32(lvl))
		}
	}
}

// SetLevel overrides one component's level, creating the component if
// needed.
func (l *Log) SetLevel(component string, lvl LogLevel) {
	c := l.Component(component)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.overrides[component] = lvl
	c.level.Store(int32(lvl))
}

// SetLevelSpec applies a -log-level spec: a default level optionally
// followed by per-component overrides, e.g. "info" or
// "info,ledger=debug,gossip=off". Component entries contain '='; the
// bare entry (at most one) sets the default.
func (l *Log) SetLevelSpec(spec string) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, lvlStr, ok := strings.Cut(part, "="); ok {
			lvl, err := ParseLogLevel(lvlStr)
			if err != nil {
				return err
			}
			l.SetLevel(strings.TrimSpace(name), lvl)
			continue
		}
		lvl, err := ParseLogLevel(part)
		if err != nil {
			return err
		}
		l.SetDefaultLevel(lvl)
	}
	return nil
}

// SetOutput mirrors every retained record as a Text line to w (nil
// disables the mirror). The ring is unaffected.
func (l *Log) SetOutput(w io.Writer) {
	l.mu.Lock()
	l.out = w
	l.mu.Unlock()
}

// SetNode stamps subsequent records with the node's identity.
func (l *Log) SetNode(name string) {
	l.mu.Lock()
	l.node = name
	l.mu.Unlock()
}

// emit formats the fields and appends the record to the ring,
// overwriting the oldest when full. It never retains the fields slice,
// so variadic call sites keep it on their stack.
func (l *Log) emit(lvl LogLevel, component, msg string, fields []F) {
	ev := LogEvent{
		TimeNS:    time.Now().UnixNano(),
		Level:     lvl.String(),
		Component: component,
		Msg:       msg,
	}
	if len(fields) > 0 {
		fs := make([]LogField, len(fields))
		for i, f := range fields {
			fs[i] = LogField{K: f.K, V: f.value()}
		}
		ev.Fields = fs
	}
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	ev.Node = l.node
	out := l.out
	l.buf[l.pos] = ev
	l.pos++
	if l.pos == len(l.buf) {
		l.pos = 0
		l.full = true
	}
	l.mu.Unlock()
	if out != nil {
		fmt.Fprintln(out, ev.Text())
	}
}

// Events returns the retained records, oldest first.
func (l *Log) Events() []LogEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		return append([]LogEvent(nil), l.buf[:l.pos]...)
	}
	out := make([]LogEvent, 0, len(l.buf))
	out = append(out, l.buf[l.pos:]...)
	return append(out, l.buf[:l.pos]...)
}

// Reset drops all retained records; levels and components persist.
func (l *Log) Reset() {
	l.mu.Lock()
	l.pos, l.full = 0, false
	l.mu.Unlock()
}

// Components returns the sorted names of all registered components.
func (l *Log) Components() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.comps))
	for name := range l.comps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Component is a subsystem's handle into a Log. All methods are
// nil-safe; a nil component is inert.
type Component struct {
	l     *Log
	name  string
	level atomic.Int32
}

// Enabled reports whether records at lvl would be retained — the guard
// for call sites whose field *values* are expensive to obtain.
func (c *Component) Enabled(lvl LogLevel) bool {
	return c != nil && lvl >= LogLevel(c.level.Load())
}

// slow is the retained-record path, outlined so the level-filtered
// fast path above stays within the inlining budget.
//
//go:noinline
func (c *Component) slow(lvl LogLevel, msg string, fields []F) {
	c.l.emit(lvl, c.name, msg, fields)
}

// Debug records a debug-level event.
func (c *Component) Debug(msg string, fields ...F) {
	if c == nil || c.level.Load() > int32(LevelDebug) {
		return
	}
	c.slow(LevelDebug, msg, fields)
}

// Info records an info-level event.
func (c *Component) Info(msg string, fields ...F) {
	if c == nil || c.level.Load() > int32(LevelInfo) {
		return
	}
	c.slow(LevelInfo, msg, fields)
}

// Warn records a warn-level event.
func (c *Component) Warn(msg string, fields ...F) {
	if c == nil || c.level.Load() > int32(LevelWarn) {
		return
	}
	c.slow(LevelWarn, msg, fields)
}

// Error records an error-level event.
func (c *Component) Error(msg string, fields ...F) {
	if c == nil || c.level.Load() > int32(LevelError) {
		return
	}
	c.slow(LevelError, msg, fields)
}

// stdLog is the process-wide log every instrumented package reports
// into. Like the metrics registry it starts silent (LevelOff).
var stdLog = NewLog(DefaultLogCapacity)

// DefaultLog returns the process-wide log.
func DefaultLog() *Log { return stdLog }

// L returns a component of the process-wide log — the form instrumented
// packages use for their package-level logger vars.
func L(component string) *Component { return stdLog.Component(component) }

// SetLogSpec applies a -log-level spec to the process-wide log.
func SetLogSpec(spec string) error { return stdLog.SetLevelSpec(spec) }

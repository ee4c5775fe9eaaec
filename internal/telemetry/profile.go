package telemetry

import (
	"context"
	"runtime/pprof"
)

// LabelComponent is the pprof label key stamped on hot-path goroutines.
// A CPU profile of a busy node then attributes samples by subsystem
// ("ledger.seal", "ledger.import", "chainstore.fsync", ...) instead of
// lumping everything under anonymous goroutine stacks — the attribution
// that answers "where does the node's CPU go".
const LabelComponent = "component"

// WithComponent runs f with the component pprof label applied to the
// current goroutine (and inherited by goroutines it spawns). The label
// shows up in CPU and goroutine profiles under the "component" key.
//
// Cost when nobody is profiling is a few tens of nanoseconds — cheap
// enough for per-block paths (seal, import, fsync).
func WithComponent(name string, f func()) {
	pprof.Do(context.Background(), pprof.Labels(LabelComponent, name), func(context.Context) { f() })
}

// WithComponentCtx is WithComponent for callers that already carry a
// context and want the label set alongside it.
func WithComponentCtx(ctx context.Context, name string, f func(context.Context)) {
	pprof.Do(ctx, pprof.Labels(LabelComponent, name), f)
}

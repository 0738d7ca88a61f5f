// Package obs is the solver observability layer: a leveled structured
// logger (log/slog-backed), a concurrency-safe metrics registry with
// Prometheus-text and expvar output, and lightweight phase spans that
// nest into a per-run trace tree serializable to JSON.
//
// Everything is opt-in and nil-safe: a nil *Logger discards records, a
// nil *Trace makes spans no-ops, and a nil *Registry records nothing, so
// un-instrumented runs pay only a nil check on the hot path. Commands
// install the process-wide logger and serve the process-wide registry
// from their -v/-debug-addr flags, and hand the trace -trace creates
// (CLI.Trace) to what they run; library callers inject per-run sinks
// through core.Options.{Logger,Trace,Metrics,Progress}.
//
// The package depends only on the standard library and imports nothing
// from the rest of the repository, so any package (sparse kernels
// included) may report through it without layering cycles.
package obs

import (
	"sync/atomic"
	"time"
)

// Package-wide defaults, installed by CLI.Start (or tests) and picked up
// by solvers whose Options carry no explicit sinks. Traces have no
// default: a trace reaches a run only through its Options.
var (
	defaultLogger   atomic.Pointer[Logger]
	defaultRegistry atomic.Pointer[Registry]
)

func init() {
	defaultRegistry.Store(NewRegistry())
}

// Default returns the process-wide logger, or nil when logging is off.
func Default() *Logger { return defaultLogger.Load() }

// SetDefault installs the process-wide logger; nil turns logging off.
func SetDefault(l *Logger) { defaultLogger.Store(l) }

// DefaultRegistry returns the process-wide metrics registry (never nil).
func DefaultRegistry() *Registry { return defaultRegistry.Load() }

// Progress is one solver progress event: a KSI sweep finishing, a
// randomized-SVD Krylov block landing, and so on. Delivered to the
// Options.Progress hook when one is set.
type Progress struct {
	// Phase names the step kind: "ksi.sweep", "rsvd.block", ...
	Phase string
	// Step counts from 1; Total is the budget (0 when open-ended).
	Step, Total int
	// Residual is the phase's convergence measure, when it has one
	// (KSI subspace residual); 0 otherwise.
	Residual float64
	// Elapsed is the wall-clock duration of this step.
	Elapsed time.Duration
}

// Run bundles the observability sinks for one solver run. Any field may
// be nil (and a nil *Run is itself safe): each sink is consulted
// independently, so a caller can ask for a trace without logs, a
// progress callback without metrics, etc.
type Run struct {
	Log      *Logger
	Trace    *Trace
	Metrics  *Registry
	Progress func(Progress)
}

// Span opens a span on the run's trace (no-op when untraced).
func (r *Run) Span(name string) *Span {
	if r == nil {
		return nil
	}
	return r.Trace.StartSpan(name)
}

// Logger returns the run's logger, which may be nil (nil is safe to log to).
func (r *Run) Logger() *Logger {
	if r == nil {
		return nil
	}
	return r.Log
}

// Registry returns the run's metrics registry, which may be nil.
func (r *Run) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.Metrics
}

// Emit delivers a progress event to the run's hook, if any.
func (r *Run) Emit(ev Progress) {
	if r == nil || r.Progress == nil {
		return
	}
	r.Progress(ev)
}

package obs

import (
	"log/slog"
	"os"
)

// Observer bundles the two observability facilities a run threads
// through the engine and the distributed runtime: the task-timeline
// tracer and the structured logger. A nil *Observer means
// "observability off": every call site guards on one nil check and
// the disabled path records nothing.
type Observer struct {
	Tracer *Tracer
	Log    *slog.Logger
}

// Options configures New.
type Options struct {
	// TraceCapacity is the event-buffer size (DefaultTraceCapacity if
	// zero or negative). Once full, new events are dropped and counted.
	TraceCapacity int
	// Log replaces the default logger (stderr text handler at Warn —
	// quiet by default). Use Quiet() in tests.
	Log *slog.Logger
}

// New builds a fully wired Observer: a tracer and a quiet-by-default
// structured logger.
func New(opts Options) *Observer {
	o := &Observer{
		Tracer: NewTracer(opts.TraceCapacity),
		Log:    opts.Log,
	}
	if o.Log == nil {
		o.Log = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	}
	return o
}

// Logger returns the observer's logger, falling back to slog's default
// when the observer (or its logger) is nil — so un-instrumented runs
// keep their warnings.
func (o *Observer) Logger() *slog.Logger {
	if o != nil && o.Log != nil {
		return o.Log
	}
	return slog.Default()
}

// Quiet returns a logger that discards everything (tests, benchmarks).
func Quiet() *slog.Logger { return slog.New(slog.DiscardHandler) }

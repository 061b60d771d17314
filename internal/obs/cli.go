package obs

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
)

// CLI is the observability command-line surface shared by the er
// commands that run jobs (ermatch, erworker): trace capture and the
// structured-log threshold.
// Register the flags, then call Start once flags are parsed and Finish
// on the way out.
type CLI struct {
	TracePath   string
	TraceFormat string
	LogLevel    string

	obs *Observer
}

// RegisterFlags installs the shared flags on fs (typically
// flag.CommandLine).
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.TracePath, "trace", "", "write the run's task timeline to this file on exit (see -trace-format)")
	fs.StringVar(&c.TraceFormat, "trace-format", "chrome", "trace export format: chrome (trace_event JSON, Perfetto-loadable) or ndjson")
	fs.StringVar(&c.LogLevel, "log-level", "warn", "structured log threshold: debug, info, warn, or error")
}

// ParseLevel maps the -log-level strings to slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
}

// Start materializes the flags: it installs the leveled stderr logger
// as the process default (the engine and dist runtime resolve to
// slog.Default when not configured explicitly) and builds the Observer
// when a trace was requested (nil otherwise — hot paths stay on the
// zero-overhead disabled branch).
func (c *CLI) Start() (*Observer, error) {
	lvl, err := ParseLevel(c.LogLevel)
	if err != nil {
		return nil, err
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(log)
	if c.TracePath == "" {
		return nil, nil
	}
	if c.TraceFormat != "chrome" && c.TraceFormat != "ndjson" {
		return nil, fmt.Errorf("unknown -trace-format %q (want chrome or ndjson)", c.TraceFormat)
	}
	c.obs = New(Options{Log: log})
	return c.obs, nil
}

// Finish writes the -trace file (atomically: temp file renamed over
// the target on success). Safe to call when Start returned a nil
// Observer; only the first call writes.
func (c *CLI) Finish() error {
	o := c.obs
	if c.obs = nil; o == nil || c.TracePath == "" {
		return nil
	}
	f, err := os.CreateTemp(filepath.Dir(c.TracePath), "."+filepath.Base(c.TracePath)+".tmp-*")
	if err != nil {
		return err
	}
	switch c.TraceFormat {
	case "ndjson":
		err = WriteNDJSON(f, o.Tracer)
	default:
		err = WriteChromeTrace(f, o.Tracer)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), c.TracePath); err != nil {
		os.Remove(f.Name())
		return err
	}
	if n := o.Tracer.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "obs: trace ring overflowed; %d events dropped (raise the capacity)\n", n)
	}
	return nil
}

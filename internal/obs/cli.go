package obs

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
)

// CLI is the observability command-line surface shared by the er
// commands that run jobs (ermatch, erworker): trace capture,
// the live introspection server, and the structured-log threshold.
// Register the flags, then call Start once flags are parsed and Finish
// on the way out.
type CLI struct {
	TracePath   string
	TraceFormat string
	Addr        string
	PProf       bool
	LogLevel    string

	obs    *Observer
	closer func()
}

// RegisterFlags installs the shared flags on fs (typically
// flag.CommandLine).
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.TracePath, "trace", "", "write the run's task timeline to this file on exit (see -trace-format)")
	fs.StringVar(&c.TraceFormat, "trace-format", "chrome", "trace export format: chrome (trace_event JSON, Perfetto-loadable) or ndjson")
	fs.StringVar(&c.Addr, "obs-addr", "", "serve /debug/vars and /status on this address while running (e.g. 127.0.0.1:6060)")
	fs.BoolVar(&c.PProf, "pprof", false, "with -obs-addr: also mount the net/http/pprof handlers")
	fs.StringVar(&c.LogLevel, "log-level", "warn", "structured log threshold: debug, info, warn, or error")
}

// Enabled reports whether any tracing/metrics surface was requested.
// Logging level applies regardless.
func (c *CLI) Enabled() bool { return c.TracePath != "" || c.Addr != "" }

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
// slog.Default when not configured explicitly), builds the Observer
// when tracing or the introspection server was requested (nil
// otherwise — hot paths stay on the zero-overhead disabled branch),
// and binds the -obs-addr listener. status feeds /status and may be
// nil.
func (c *CLI) Start(status func() any) (*Observer, error) {
	lvl, err := ParseLevel(c.LogLevel)
	if err != nil {
		return nil, err
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(log)
	if !c.Enabled() {
		return nil, nil
	}
	if c.TraceFormat != "chrome" && c.TraceFormat != "ndjson" {
		return nil, fmt.Errorf("unknown -trace-format %q (want chrome or ndjson)", c.TraceFormat)
	}
	c.obs = New(Options{Log: log})
	if c.Addr != "" {
		url, closer, err := Serve(c.Addr, c.obs, status, c.PProf)
		if err != nil {
			return nil, err
		}
		c.closer = closer
		fmt.Fprintf(os.Stderr, "obs: serving /debug/vars at %s\n", url)
	}
	return c.obs, nil
}

// Finish writes the -trace file (atomically: temp file renamed over
// the target on success) and stops the introspection server. Safe to
// call when Start returned a nil Observer; only the first call writes.
func (c *CLI) Finish() error {
	if c.closer != nil {
		c.closer()
		c.closer = nil
	}
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

package obs

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
)

// CLI is the standard observability flag bundle shared by every command:
//
//	-v           info-level solver logging to stderr
//	-vv          debug-level logging (per-sweep telemetry; implies -v)
//	-trace FILE  write the run's JSON phase-trace tree to FILE on exit
//	-debug-addr  serve /metrics, /debug/vars and /debug/pprof on an address
type CLI struct {
	Verbose   bool
	Debug     bool
	TracePath string
	DebugAddr string

	trace *Trace // created by Start when TracePath is set
}

// RegisterFlags installs the observability flags on fs (typically
// flag.CommandLine) and returns the bundle to Start after fs is parsed.
func RegisterFlags(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.BoolVar(&c.Verbose, "v", false, "info-level solver logging to stderr")
	fs.BoolVar(&c.Debug, "vv", false, "debug-level solver logging (per-sweep telemetry)")
	fs.StringVar(&c.TracePath, "trace", "", "write JSON phase-trace tree to this file")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. :8080 or :0)")
	return c
}

// Active reports whether any observability sink was requested.
func (c *CLI) Active() bool {
	return c.Verbose || c.Debug || c.TracePath != "" || c.DebugAddr != ""
}

// Start applies the parsed flags: installs the process-wide logger,
// launches the debug server and, for -trace, creates the run's trace
// (see Trace). The returned stop function flushes the trace file and
// must be called before the program exits successfully (a skipped stop
// only loses the trace file).
func (c *CLI) Start(component string) (stop func(), err error) {
	if c.Verbose || c.Debug {
		level := slog.LevelInfo
		if c.Debug {
			level = slog.LevelDebug
		}
		SetDefault(NewTextLogger(os.Stderr, level).With("component", component))
	}
	if c.DebugAddr != "" {
		addr, err := ServeDebug(c.DebugAddr, DefaultRegistry())
		if err != nil {
			return nil, fmt.Errorf("obs: debug server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: debug server on http://%s (metrics, expvar, pprof)\n", component, addr)
	}
	if c.TracePath != "" {
		c.trace = NewTrace(component)
	}
	tr := c.trace
	return func() {
		if tr == nil {
			return
		}
		if err := tr.WriteFile(c.TracePath); err != nil {
			fmt.Fprintf(os.Stderr, "%s: writing trace: %v\n", component, err)
			return
		}
		fmt.Fprintf(os.Stderr, "%s: wrote trace to %s\n", component, c.TracePath)
	}, nil
}

// Trace returns the trace Start created for -trace, or nil when tracing
// is off. The command passes it to what it runs (core.Options.Trace,
// experiments.Config.Trace); nothing picks it up implicitly.
func (c *CLI) Trace() *Trace { return c.trace }

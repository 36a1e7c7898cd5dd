package telemetry

import (
	_ "expvar" // registers /debug/vars (memstats, cmdline) on the default mux
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime/pprof"
	"runtime/trace"
)

// ProfileConfig selects which profiling hooks to arm. Zero values mean
// off; the zero config starts nothing.
type ProfileConfig struct {
	// PprofAddr starts an HTTP server (e.g. "localhost:6060") serving
	// /debug/pprof and /debug/vars for live inspection of long runs.
	PprofAddr string
	// CPUProfile writes a CPU profile to this file for the whole run.
	CPUProfile string
	// TracePath captures a runtime/trace (goroutine scheduling, GC,
	// syscalls) to this file for the whole run.
	TracePath string
}

// StartProfiling arms the configured hooks and returns a stop function
// that flushes and closes them; call it exactly once, deferred. On
// error, anything already started is torn down.
func StartProfiling(cfg ProfileConfig) (stop func() error, err error) {
	var stops []func() error
	teardown := func() error {
		var first error
		// Reverse order: the pprof server outlives the profiles it serves.
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	defer func() {
		if err != nil {
			teardown()
		}
	}()

	if cfg.PprofAddr != "" {
		ln, lerr := net.Listen("tcp", cfg.PprofAddr)
		if lerr != nil {
			return nil, fmt.Errorf("telemetry: pprof listen: %w", lerr)
		}
		srv := &http.Server{Handler: http.DefaultServeMux}
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "pprof: serving http://%s/debug/pprof (and /debug/vars)\n", ln.Addr())
		stops = append(stops, func() error { return srv.Close() })
	}
	if cfg.CPUProfile != "" {
		f, ferr := os.Create(cfg.CPUProfile)
		if ferr != nil {
			return nil, fmt.Errorf("telemetry: cpu profile: %w", ferr)
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			return nil, fmt.Errorf("telemetry: cpu profile: %w", perr)
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if cfg.TracePath != "" {
		f, ferr := os.Create(cfg.TracePath)
		if ferr != nil {
			return nil, fmt.Errorf("telemetry: runtime trace: %w", ferr)
		}
		if terr := trace.Start(f); terr != nil {
			f.Close()
			return nil, fmt.Errorf("telemetry: runtime trace: %w", terr)
		}
		stops = append(stops, func() error {
			trace.Stop()
			return f.Close()
		})
	}
	return teardown, nil
}

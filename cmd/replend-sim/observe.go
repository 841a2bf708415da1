package main

// Run observability: the -telemetry, -progress and -pprof flags. All of
// it is write-only instrumentation — attaching any of it changes no
// random draw and no result byte, which the world and CLI tests pin.

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro/internal/telemetry"
	"repro/internal/world"
)

// obs carries the observability flags that attach to a single
// in-process run.
type obs struct {
	// telemetryPath streams the run's trace events and metric samples as
	// JSONL: a file path, or "-" for stdout. Empty disables.
	telemetryPath string
	// progress turns on the live stderr ticker.
	progress bool
}

func (o obs) enabled() bool { return o.telemetryPath != "" || o.progress }

// startPprof binds addr and serves net/http/pprof on it for the life of
// the process. The bind happens synchronously so a bad address fails the
// run instead of logging into the void.
func startPprof(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-pprof: %w", err)
	}
	logf("pprof serving on http://%s/debug/pprof/", ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			logf("pprof server stopped: %v", err)
		}
	}()
	return nil
}

// attach wires the observability stack to one world: the streaming JSONL
// sink, the progress ticker and the wall-clock span recorder. The
// returned finish function stops the ticker, flushes the stream and
// prints the span table to stderr; call it after the run completes.
func (o obs) attach(w *world.World, label string) (finish func() error, err error) {
	if !o.enabled() {
		return func() error { return nil }, nil
	}
	bus := telemetry.NewBus()
	var stream *telemetry.StreamSink
	if o.telemetryPath != "" {
		if stream, err = telemetry.CreateStream(o.telemetryPath); err != nil {
			return nil, fmt.Errorf("-telemetry: %w", err)
		}
		bus.Attach(stream)
	}
	var stopTicker func()
	if o.progress {
		p := &telemetry.Progress{}
		bus.Attach(p)
		stopTicker = p.StartTicker(os.Stderr, label, time.Second)
	}
	spans := telemetry.NewSpans()
	w.SetSpans(spans)
	w.SetTelemetry(bus)
	return func() error {
		if stopTicker != nil {
			stopTicker()
		}
		if err := bus.Flush(); err != nil {
			return fmt.Errorf("-telemetry: %w", err)
		}
		if stream != nil {
			if err := stream.Close(); err != nil {
				return fmt.Errorf("-telemetry: %w", err)
			}
			logf("telemetry: %d records streamed (peak %d retained)", stream.Written(), stream.PeakRetained())
		}
		if table := spans.Table(); table != "" {
			fmt.Fprint(os.Stderr, table)
		}
		return nil
	}, nil
}

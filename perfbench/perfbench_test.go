package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeEveryMetric runs each workload at reduced size (a warm-up, one
// traced and one untraced iteration) and checks that every catalogued
// metric is measured, printed with its unit, and that the output checks
// passed.
func TestSmokeEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var stderr bytes.Buffer
			rep, err := measure(options{wl: wl, seed: wl.defaultSeed, small: true, traced: true,
				out: t.TempDir(), stderr: &stderr})
			if err != nil {
				t.Fatalf("measure: %v\n%s", err, stderr.String())
			}
			if rep.failed != 0 || rep.attempted != 3 {
				t.Fatalf("attempted %d, failed %d\n%s", rep.attempted, rep.failed, stderr.String())
			}
			for _, traced := range []bool{false, true} {
				rep.traced = traced
				var out bytes.Buffer
				if err := rep.write(&out); err != nil {
					t.Fatalf("write (traced=%v): %v", traced, err)
				}
				checkPrinted(t, out.String(), traced)
			}
		})
	}
}

// checkPrinted checks the table and the final JSON line of one report.
func checkPrinted(t *testing.T, out string, traced bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("result = %+v", res)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("result has %d metrics, catalogue %d", len(res.Metrics), len(defs))
	}
	table := strings.Join(lines[:len(lines)-1], "\n")
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
		if !strings.Contains(table, d.name+" ") {
			t.Errorf("metric %s missing from the printed table", d.name)
		}
	}
	if traced {
		for _, name := range []string{"trace.coverage", "sim.events", "transport.sent"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
			}
		}
	}
}

// TestBenchmarkFileMatchesCatalogue checks BENCHMARK.json at the root of
// the tree names exactly the catalogued metrics, with the same units.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json above this directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, catalogue %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), catalogue %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name {
			t.Errorf("workload %d = %s, benchmark has %s", i, spec.Workloads[i].Name, wl.name)
		}
	}
}

// cannedTraces is `go tool pprof -traces` output with four samples: a map
// access under rocq, an overlay frame in setup, Ed25519 signing under
// transport, and a GC worker with no repro/internal frame at all.
const cannedTraces = `File: perfbench
Type: cpu
Duration: 1.20s, Total samples = 100ms ( 8.33%)
-----------+-------------------------------------------------------
     phase:  run
      40ms   runtime.mapaccess2
             repro/internal/rocq.(*Store).Credibility (inline)
             repro/internal/world.(*World).report
             main.runWindows
-----------+-------------------------------------------------------
     phase:  setup
      10ms   repro/internal/overlay.(*Ring).Join
             repro/internal/world.New
-----------+-------------------------------------------------------
     phase:  run
      30ms   crypto/internal/fips140/edwards25519.(*Point).ScalarBaseMult
             crypto/ed25519.Sign
             repro/internal/transport.(*Signer).Sign
             repro/internal/lending.(*Protocol).lend
-----------+-------------------------------------------------------
      20ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
`

func TestAttributionCanned(t *testing.T) {
	samples, err := parseTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(samples))
	}
	if s := samples[0]; s.phase != "run" || s.value != 40 || s.frames[1] != "repro/internal/rocq.(*Store).Credibility" {
		t.Fatalf("first sample = %+v", s)
	}
	a := newAttribution()
	for _, s := range samples {
		a.add(s)
	}
	m := a.metrics()
	want := map[string]float64{
		"trace.coverage":              0.8,
		"rocq.self_share":             0.4,
		"transport.self_share":        0.3,
		"overlay.self_share":          0.1,
		"world.self_share":            0,
		"lending.self_share":          0,
		"runtime.map_share":           0.4,
		"crypto.self_share":           0.3,
		"runtime.gc_share":            0.2,
		"rocq.self_share.run":         4.0 / 7,
		"transport.self_share.run":    3.0 / 7,
		"overlay.self_share.setup":    1,
		"overlay.self_share.run":      0,
		"world.self_share.checkpoint": 0,
	}
	for name, v := range want {
		if got, ok := m[name]; !ok || math.Abs(got-v) > 1e-12 {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, v)
		}
	}
}

func TestParseTracesRejectsUnknownLines(t *testing.T) {
	bad := "-----------+------\n  not a sample line ???\n"
	if _, err := parseTraces(strings.NewReader(bad)); err == nil {
		t.Fatal("want an error for a block without a value line")
	}
}

func TestModuleOf(t *testing.T) {
	for frame, want := range map[string]string{
		"repro/internal/world.(*World).report": "world",
		"repro/internal/lint/maporder.Run":     "lint",
		"repro/internal/sim.(*Engine).Step":    "sim",
		"runtime.mapaccess2":                   "",
		"main.runWindows":                      "",
	} {
		got, ok := moduleOf(frame)
		if got != want || ok != (want != "") {
			t.Errorf("moduleOf(%q) = %q, %v; want %q", frame, got, ok, want)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 = %v, want 190", got)
	}
	if got := percentile(xs, 50); got != 100 {
		t.Errorf("p50 = %v, want 100", got)
	}
}

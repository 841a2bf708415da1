// Command perfbench is the repository's benchmark. It runs one workload
// drawn from the paper (fig1-growth, churn-checkpoint, founders-100k) as
// a closed, single-threaded job, repeats it for --seconds, checks every
// run's output, and prints its metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{"wall_s":{"value":…,"unit":"s"},…}}
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// alternates untraced and traced runs and reports the per-layer metrics.
// See README.md in this directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	wl      *workload
	seed    uint64
	small   bool
	seconds time.Duration
	traced  bool
	out     string // directory for CPU profiles and span logs
	stderr  io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig1-growth, churn-checkpoint or founders-100k")
	seed := fs.String("seed", "", "workload seed (default: the workload's own)")
	secs := fs.Float64("seconds", 40, "measure for this many seconds (a warm-up and one measured iteration always run)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-trace"), "directory for the traced runs' CPU profiles and span logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o := options{wl: wl, seed: wl.defaultSeed, seconds: time.Duration(*secs * float64(time.Second)),
		traced: *trace == 1, out: *out, stderr: stderr}
	if *seed != "" {
		if o.seed, err = strconv.ParseUint(*seed, 10, 64); err != nil {
			fmt.Fprintln(stderr, "perfbench: --seed:", err)
			return 2
		}
	}
	rep, err := measure(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// provenance identifies the machine, binary and input of a result.
type provenance struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	CPU      string `json:"cpu"`
	NProc    int    `json:"nproc"`
	Commit   string `json:"commit"`
	Go       string `json:"go"`
}

func newProvenance(o options) provenance {
	p := provenance{Workload: o.wl.name, Seed: o.seed, CPU: "unknown", NProc: runtime.NumCPU(),
		Commit: "unknown", Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			p.Commit += "+modified"
		}
	}
	return p
}

// report is the outcome of one benchmark invocation.
type report struct {
	prov      provenance
	traced    bool
	attempted int
	failed    int
	// values holds every metric measured; samples the number of
	// measurements behind each median.
	values  map[string]float64
	samples map[string]int
	units   map[string]string
}

func (r *report) set(def metricDef, v float64, n int) {
	r.values[def.name], r.samples[def.name], r.units[def.name] = v, n, def.unit
}

// measure runs the workload for o.seconds and aggregates the metrics.
func measure(o options) (*report, error) {
	rn := &runner{wl: o.wl, seed: o.seed, small: o.small}
	rep := &report{prov: newProvenance(o), traced: o.traced,
		values: map[string]float64{}, samples: map[string]int{}, units: map[string]string{}}
	if o.traced {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	var setups []float64
	for i := 0; i < o.wl.extraSetups; i++ {
		d, err := rn.setupOnly()
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", o.wl.name, err)
		}
		setups = append(setups, d.Seconds())
	}

	var (
		untraced, traced []*iteration
		warm             *iteration // the first iteration, left out of the medians
		profiles         []string
		firstErr         error
		reference        = map[string]float64{} // first value seen of every count
		last             time.Duration
	)
	// Iteration 0 warms the heap and page tables up and is checked but
	// not measured. When traced, the traced and untraced iterations then
	// come in whole pairs whose order alternates (TU, UT, TU, ...), so
	// neither side always runs first.
	minRuns := 2
	if o.traced {
		minRuns = 3
	}
	for k := 0; ; k++ {
		isTraced := o.traced && k > 0 && ((k-1)%2 == 0) == ((k-1)/2%2 == 0)
		prof := filepath.Join(o.out, fmt.Sprintf("cpu-%s-%d-%d.pprof", o.wl.name, o.seed, k))
		t0 := time.Now()
		rep.attempted++
		it, err := rn.iterate(isTraced, prof)
		last = time.Since(t0)
		if err == nil {
			err = sameCounts(reference, it.counts)
		}
		switch {
		case err != nil:
			rep.failed++
			fmt.Fprintf(o.stderr, "perfbench: %s seed %d run %d: %v\n", o.wl.name, o.seed, k, err)
			if firstErr == nil {
				firstErr = err
			}
		case isTraced:
			it.log.iter = k
			profiles = append(profiles, prof)
			if n := len(traced); n > 0 {
				traced[n-1].final = nil // only the last traced world is probed
			}
			traced = append(traced, it)
		case k == 0:
			it.log.iter = k
			it.final = nil
			warm = it
		default:
			it.log.iter = k
			it.final = nil
			untraced = append(untraced, it)
		}
		if err == nil {
			fmt.Fprintf(o.stderr, "perfbench: %s seed %d run %d traced=%v wall %.3fs setup %.3fs\n",
				o.wl.name, o.seed, k, isTraced, it.wall().Seconds(), it.setup().Seconds())
			for name, v := range it.counts {
				if _, ok := reference[name]; !ok {
					reference[name] = v
				}
			}
		}
		if k+1 < minRuns {
			continue
		}
		if !o.traced {
			if time.Since(start)+last > o.seconds {
				break
			}
		} else if k%2 == 0 && time.Since(start)+2*last > o.seconds {
			break // traced runs stop at a pair boundary
		}
	}
	if len(untraced) == 0 && warm != nil {
		untraced = append(untraced, warm)
	}
	if len(untraced) == 0 || (o.traced && len(traced) == 0) {
		return nil, fmt.Errorf("%s seed %d: no run completed: %w", o.wl.name, o.seed, firstErr)
	}
	for _, it := range untraced {
		setups = append(setups, it.setup().Seconds())
	}

	rep.set(endToEnd[0], medianOf(untraced, func(it *iteration) float64 { return it.wall().Seconds() }), len(untraced))
	rep.set(endToEnd[1], median(setups), len(setups))
	rep.set(endToEnd[2], peakRSSMB(), 1)
	rep.set(endToEnd[3], medianOf(untraced, func(it *iteration) float64 { return float64(it.allocs) / 1e6 }), len(untraced))
	rep.set(metricDef{"ticks_per_s", "1/s"}, medianOf(untraced, ticksPerSecond), len(untraced))
	if o.wl.cut > 0 {
		rep.set(metricDef{"checkpoint_s", "s"}, medianOf(untraced, func(it *iteration) float64 { return it.checkpoint().Seconds() }), len(untraced))
		rep.set(metricDef{"checkpoint_mb", "MB"}, float64(untraced[0].ckptBytes)/1e6, len(untraced))
	}
	rep.set(metricDef{"failed_frac", "ratio"}, float64(rep.failed)/float64(rep.attempted), rep.attempted)
	if !o.traced {
		return rep, nil
	}

	if err := perLayerMetrics(rep, o, untraced, traced, profiles); err != nil {
		return nil, err
	}
	var logs []*spanLog
	if warm != nil && warm != untraced[0] {
		logs = append(logs, warm.log)
	}
	for _, its := range [][]*iteration{untraced, traced} {
		for _, it := range its {
			logs = append(logs, it.log)
		}
	}
	if err := writeSpans(filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.wl.name, o.seed)), logs); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return rep, nil
}

// perLayerMetrics fills in the per-layer metrics from the traced
// iterations, their CPU profiles and the probes.
func perLayerMetrics(rep *report, o options, untraced, traced []*iteration, profiles []string) error {
	n := len(traced)
	first := traced[0]
	count := func(name string) float64 { return first.counts[name] }
	setMedian := func(name string, f func(*iteration) float64) {
		rep.set(metricDef{name, unitOf(name)}, medianOf(traced, f), n)
	}
	setCount := func(name string, v float64) { rep.set(metricDef{name, unitOf(name)}, v, n) }
	spanMS := func(span string) func(*iteration) float64 {
		return func(it *iteration) float64 { return ms(it.spans[span].Total) }
	}
	windowPct := func(p float64) func(*iteration) float64 {
		return func(it *iteration) float64 {
			var xs []float64
			for _, d := range it.log.durations("window") {
				xs = append(xs, ms(d))
			}
			return percentile(xs, p)
		}
	}
	ratio := func(a, b string) float64 { return share(count(a), count(b)) }

	setCount("sim.events", count("sim.events"))
	setMedian("sim.ticks_per_s", ticksPerSecond)
	setCount("sim.windows", float64(len(first.log.durations("window"))))
	setMedian("sim.window_p50_ms", windowPct(50))
	setMedian("sim.window_p95_ms", windowPct(95))
	setCount("world.population", count("world.population"))
	setMedian("world.sampling_ms", spanMS("sampling"))
	setCount("overlay.joins", count("span.overlay-join"))
	setMedian("overlay.join_ms", spanMS("overlay-join"))
	setCount("overlay.leaves", count("span.overlay-leave"))
	setMedian("overlay.leave_ms", spanMS("overlay-leave"))
	setCount("overlay.lookups", count("overlay.lookups"))
	setCount("overlay.mean_hops", count("overlay.mean_hops"))
	setCount("rocq.reports", count("rocq.reports"))
	setCount("rocq.subjects", count("rocq.subjects"))
	setCount("lending.requests", count("lending.requests"))
	setCount("lending.grant_ratio", ratio("lending.granted", "lending.requests"))
	setCount("lending.fanouts", count("span.lending-fanout"))
	setMedian("lending.fanout_ms", spanMS("lending-fanout"))
	setCount("transport.sent", count("transport.sent"))
	setCount("transport.delivery_ratio", ratio("transport.delivered", "transport.sent"))
	for _, c := range []string{"departures", "crashes", "rejoins", "migrated", "wipeouts", "lease_evictions"} {
		setCount("churn."+c, count("churn."+c))
	}
	setCount("arena.live", count("arena.live"))
	setCount("arena.occupancy", ratio("arena.live", "arena.capacity"))
	setCount("arena.protocol_live", count("arena.protocol_live"))
	setCount("arena.protocol_occupancy", ratio("arena.protocol_live", "arena.protocol_capacity"))
	for _, step := range []string{"capture", "encode", "decode", "resume"} {
		setMedian("snapshot."+step+"_s", func(it *iteration) float64 { return it.log.total(step).Seconds() })
	}
	setCount("snapshot.bytes", count("snapshot.bytes"))
	setMedian("checkpoint_s", func(it *iteration) float64 { return it.checkpoint().Seconds() })
	setCount("checkpoint_mb", count("snapshot.bytes")/1e6)
	setMedian("runtime.gc_cycles", func(it *iteration) float64 { return float64(it.gcCycles) })
	setMedian("runtime.gc_pause_ms", func(it *iteration) float64 { return ms(it.gcPause) })
	wallU := medianOf(untraced, func(it *iteration) float64 { return it.wall().Seconds() })
	wallT := medianOf(traced, func(it *iteration) float64 { return it.wall().Seconds() })
	setCount("trace.overhead", wallT/wallU-1)

	attr, err := attributeProfiles(profiles)
	if err != nil {
		return err
	}
	for name, v := range attr.metrics() {
		setCount(name, v)
	}

	last := traced[n-1]
	probes, err := probe(last.log, last.final, o.seed)
	if err != nil {
		return err
	}
	last.final = nil
	for name, v := range probes {
		rep.set(metricDef{name, unitOf(name)}, v, 1)
	}
	return nil
}

// unitOf looks a per-layer metric's unit up in the catalogue.
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: metric " + name + " missing from the per-layer catalogue")
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the provenance and a table of every measured metric,
// then the result object as the last line.
func (r *report) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	prov, err := json.Marshal(r.prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "provenance %s\n", prov)
	fmt.Fprintf(bw, "%-34s %16s  %-6s %s\n", "metric", "value", "unit", "n")
	for _, name := range sortedKeys(r.values) {
		fmt.Fprintf(bw, "%-34s %16.6g  %-6s %d\n", name, r.values[name], r.units[name], r.samples[name])
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

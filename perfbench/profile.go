package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// modules are the repro/internal packages the profile attribution reports
// a self share for, each with the phases it can take samples in; samples
// charged to any other repro/internal package still count as attributed
// (trace.coverage) but get no metric of their own. scenario is left out:
// it only calls into deeper modules, so it is never the innermost frame.
var modules = []struct {
	name   string
	phases []string
}{
	{"sim", phases}, {"world", phases}, {"overlay", phases}, {"rocq", phases},
	{"lending", phases}, {"transport", phases}, {"churn", phases}, {"arena", phases},
	{"id", phases}, {"rng", phases}, {"topology", phases},
	// The checkpoint codec runs only inside the checkpoint phase.
	{"checkpoint", []string{"checkpoint"}},
}

// phases are the CPU-profile label values the benchmark sets.
var phases = []string{"setup", "run", "checkpoint"}

const modulePrefix = "repro/internal/"

// sample is one stack from the CPU profile.
type sample struct {
	phase  string   // value of the "phase" label; "" when unlabelled
	value  float64  // CPU milliseconds
	frames []string // leaf first
}

// attribution is a CPU profile charged to modules: each sample goes to
// the innermost repro/internal/<module> frame, so runtime and standard
// library frames count against the module that called them. Samples
// without such a frame are unattributed.
type attribution struct {
	total      float64
	attributed float64
	byPhase    map[string]float64
	// module[phase][module] is CPU time; phase "" sums every sample.
	module map[string]map[string]float64
	// Leaf-level shares of the whole profile: samples whose frames below
	// the charged module (or whole stack, when unattributed) include a
	// map operation, a crypto package, or (anywhere) the garbage collector.
	mapTime, cryptoTime, gcTime float64
}

func newAttribution() *attribution {
	return &attribution{byPhase: map[string]float64{}, module: map[string]map[string]float64{"": {}}}
}

// moduleOf returns the repro/internal module a frame belongs to.
func moduleOf(frame string) (string, bool) {
	rest, ok := strings.CutPrefix(frame, modulePrefix)
	if !ok {
		return "", false
	}
	if end := strings.IndexAny(rest, "./"); end >= 0 {
		rest = rest[:end]
	}
	return rest, rest != ""
}

var gcPrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.greyobject", "runtime.sweepone",
	"runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked).sweep", "runtime.wbBufFlush",
}

func hasAnyPrefix(frames []string, prefixes ...string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

func (a *attribution) add(s sample) {
	a.total += s.value
	a.byPhase[s.phase] += s.value
	tail := s.frames
	for i, f := range s.frames {
		if mod, ok := moduleOf(f); ok {
			tail = s.frames[:i]
			a.attributed += s.value
			a.charge("", mod, s.value)
			if s.phase != "" {
				a.charge(s.phase, mod, s.value)
			}
			break
		}
	}
	if hasAnyPrefix(tail, "runtime.map", "internal/runtime/maps.") {
		a.mapTime += s.value
	}
	if hasAnyPrefix(tail, "crypto/") {
		a.cryptoTime += s.value
	}
	if hasAnyPrefix(s.frames, gcPrefixes...) {
		a.gcTime += s.value
	}
}

func (a *attribution) charge(phase, mod string, v float64) {
	if a.module[phase] == nil {
		a.module[phase] = map[string]float64{}
	}
	a.module[phase][mod] += v
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// metrics renders the attribution as per-layer metrics.
func (a *attribution) metrics() map[string]float64 {
	out := map[string]float64{
		"trace.coverage":    share(a.attributed, a.total),
		"runtime.map_share": share(a.mapTime, a.total),
		"runtime.gc_share":  share(a.gcTime, a.total),
		"crypto.self_share": share(a.cryptoTime, a.total),
	}
	for _, mod := range modules {
		out[mod.name+".self_share"] = share(a.module[""][mod.name], a.total)
		for _, ph := range mod.phases {
			out[mod.name+".self_share."+ph] = share(a.module[ph][mod.name], a.byPhase[ph])
		}
	}
	return out
}

var (
	separatorRE = regexp.MustCompile(`^-+\+-+$`)
	valueRE     = regexp.MustCompile(`^\s*([0-9]+(?:\.[0-9]+)?)(ns|us|µs|ms|s|mins|hrs)\s+(\S.*)$`)
	labelRE     = regexp.MustCompile(`^\s*([A-Za-z_][A-Za-z0-9_.-]*):\s+(.*)$`)
)

var unitMillis = map[string]float64{
	"ns": 1e-6, "us": 1e-3, "µs": 1e-3, "ms": 1, "s": 1e3, "mins": 60e3, "hrs": 3600e3,
}

// parseTraces reads the text `go tool pprof -traces` prints: a header,
// then blocks separated by dashed lines, each holding optional
// "key: value" label lines, a value line carrying the leaf frame, and
// the remaining frames one per line.
func parseTraces(r io.Reader) ([]sample, error) {
	var (
		out    []sample
		cur    *sample
		inBody bool
		labels = map[string]string{}
	)
	flush := func() {
		if cur != nil {
			out = append(out, *cur)
		}
		cur = nil
		labels = map[string]string{}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if separatorRE.MatchString(strings.TrimSpace(line)) {
			flush()
			inBody = true
			continue
		}
		if !inBody || strings.TrimSpace(line) == "" {
			continue
		}
		frame := func(s string) string { return strings.TrimSuffix(strings.TrimSpace(s), " (inline)") }
		if cur == nil {
			if m := valueRE.FindStringSubmatch(line); m != nil {
				v, err := strconv.ParseFloat(m[1], 64)
				if err != nil {
					return nil, fmt.Errorf("pprof traces line %d: %w", n, err)
				}
				cur = &sample{phase: labels["phase"], value: v * unitMillis[m[2]], frames: []string{frame(m[3])}}
				continue
			}
			if m := labelRE.FindStringSubmatch(line); m != nil {
				labels[m[1]] = strings.Trim(strings.TrimSpace(m[2]), "[]")
				continue
			}
			return nil, fmt.Errorf("pprof traces line %d: unexpected %q", n, line)
		}
		cur.frames = append(cur.frames, frame(line))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return out, nil
}

// attributeProfiles runs `go tool pprof -traces` on each CPU profile and
// charges every sample.
func attributeProfiles(paths []string) (*attribution, error) {
	a := newAttribution()
	for _, path := range paths {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", path)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go tool pprof -traces %s: %w: %s", path, err, stderr.String())
		}
		samples, err := parseTraces(&stdout)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, s := range samples {
			a.add(s)
		}
	}
	return a, nil
}

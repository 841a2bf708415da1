package main

import (
	"math"
	"sort"
)

// metricDef names a metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports: what a user who
// regenerates a result pays in host time and memory.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"allocs_m", "M"},
}

// perLayer are the metrics a traced run reports.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.ticks_per_s", "1/s"},
		{"sim.windows", "count"},
		{"sim.window_p50_ms", "ms"},
		{"sim.window_p95_ms", "ms"},
		{"world.population", "count"},
		{"world.sampling_ms", "ms"},
		{"world.query_reputation_us", "us"},
		{"world.placement_cached_us", "us"},
		{"overlay.joins", "count"},
		{"overlay.join_ms", "ms"},
		{"overlay.leaves", "count"},
		{"overlay.leave_ms", "ms"},
		{"overlay.lookups", "count"},
		{"overlay.mean_hops", "hops"},
		{"overlay.placement_us", "us"},
		{"rocq.reports", "count"},
		{"rocq.subjects", "count"},
		{"rocq.credibility_ns", "ns"},
		{"lending.requests", "count"},
		{"lending.grant_ratio", "ratio"},
		{"lending.fanouts", "count"},
		{"lending.fanout_ms", "ms"},
		{"transport.sent", "count"},
		{"transport.delivery_ratio", "ratio"},
		{"transport.sign_us", "us"},
		{"transport.verify_us", "us"},
		{"churn.departures", "count"},
		{"churn.crashes", "count"},
		{"churn.rejoins", "count"},
		{"churn.migrated", "count"},
		{"churn.wipeouts", "count"},
		{"churn.lease_evictions", "count"},
		{"arena.live", "count"},
		{"arena.occupancy", "ratio"},
		{"arena.protocol_live", "count"},
		{"arena.protocol_occupancy", "ratio"},
		{"snapshot.capture_s", "s"},
		{"snapshot.encode_s", "s"},
		{"snapshot.decode_s", "s"},
		{"snapshot.resume_s", "s"},
		{"snapshot.bytes", "bytes"},
		{"checkpoint_s", "s"},
		{"checkpoint_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"runtime.map_share", "share"},
		{"runtime.gc_share", "share"},
		{"crypto.self_share", "share"},
		{"trace.coverage", "share"},
		{"trace.overhead", "ratio"},
	}
	for _, mod := range modules {
		defs = append(defs, metricDef{mod.name + ".self_share", "share"})
		for _, ph := range mod.phases {
			defs = append(defs, metricDef{mod.name + ".self_share." + ph, "share"})
		}
	}
	return defs
}()

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// medianOf is the median of f over the iterations.
func medianOf(its []*iteration, f func(*iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return median(xs)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

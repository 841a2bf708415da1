package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/config"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// windowTicks is the length of one timed RunFor window.
const windowTicks = 1_000

// workload is one closed simulation job the benchmark repeats.
type workload struct {
	name string
	// defaultSeed is the config seed used when --seed is not given; the
	// summary digest is pinned at this seed.
	defaultSeed uint64
	// build returns the spec at full size, or at a size small enough for
	// the package's smoke tests.
	build func(small bool) (*scenario.Spec, error)
	// cut, when positive, is the share of the run after which the
	// workload checkpoints and resumes through the scenario API.
	cut float64
	// extraSetups is how many setup-only constructions a run adds to the
	// one each iteration makes, so a cheap setup_s is a median of many.
	extraSetups int
	// digest is the SHA-256 of Result.Summary() at defaultSeed, full size.
	digest string
}

var workloads = []*workload{
	// The paper's Figure-1 world at paper scale (Table 1, λ=0.1, powerlaw,
	// Ed25519, 500 founders): the admission and transaction hot path, with
	// no churn and no checkpoint.
	{
		name:        "fig1-growth",
		defaultSeed: 1,
		build: func(small bool) (*scenario.Spec, error) {
			cfg := config.Default()
			cfg.Lambda = 0.1
			cfg.NumTrans = 200_000
			if small {
				cfg.NumInit = 60
				cfg.NumTrans = 4_000
				cfg.WaitPeriod = 100
			}
			return &scenario.Spec{
				Name:        "fig1-growth",
				Description: "Table 1 with lambda=0.1: the Figure-1 growth world at paper scale.",
				Base:        cfg,
			}, nil
		},
		extraSetups: 30,
		digest:      "034c6bfd4932742a3572866adc28ca636834618ec0d64268db21acc6c43aff44",
	},
	// The churn-steady builtin cut at half time through the user path:
	// overlay leave and repair, record migration and the checkpoint codec.
	{
		name:        "churn-checkpoint",
		defaultSeed: 29,
		build: func(small bool) (*scenario.Spec, error) {
			s, err := scenario.Get("churn-steady")
			if err != nil {
				return nil, err
			}
			if small {
				s.Base.NumInit = 60
				s.Base.NumTrans = 6_000
				s.Base.WaitPeriod = 100
			}
			return s, nil
		},
		cut:         0.5,
		extraSetups: 30,
		digest:      "484ae732ea42af1ad42e8608dc4b1e5be9bea6c96adb4ee76477ed0c2a11fe33",
	},
	// The mega builtin at 10^5 founders: the founder build into an empty
	// overlay and the arena footprint, with signing off.
	{
		name:        "founders-100k",
		defaultSeed: 10,
		build: func(small bool) (*scenario.Spec, error) {
			s, err := scenario.Get("mega")
			if err != nil {
				return nil, err
			}
			s.Base.NumInit = 100_000
			if small {
				s.Base.NumInit = 2_000
				s.Base.NumTrans = 1_000
			}
			return s, nil
		},
		digest: "afaeed1ce9efd8458715d6158082fad09a0946be5e184cfb85eb7e911fb7456b",
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// iteration is one complete run of a workload: setup, timed windows, the
// optional checkpoint round trip, the closing sample and the output checks.
type iteration struct {
	traced bool
	log    *spanLog
	// ticks is the simulated run length (one transaction per tick).
	ticks    int64
	allocs   uint64
	gcCycles uint32
	gcPause  time.Duration
	// ckptBytes is the encoded checkpoint size (0 without a checkpoint).
	ckptBytes int
	// counts are exact figures that must repeat across iterations of one
	// seed (the determinism check compares them).
	counts map[string]float64
	// spans are the program's own span totals (traced iterations only).
	spans map[string]telemetry.SpanStat
	// final is the finished world, kept for the probes.
	final *world.World
}

// wall is the host time of the iteration, from setup to the passed output
// check, without the resumed run's re-snapshot check: that repeats a
// capture and an encode only the benchmark needs.
func (it *iteration) wall() time.Duration {
	return it.log.total("iteration") - it.log.total("recheck")
}
func (it *iteration) setup() time.Duration { return it.log.total("setup") }

// runPhase is the host time of the run phase: the windows plus the
// closing Finish, excluding setup and the checkpoint round trip.
func (it *iteration) runPhase() time.Duration {
	return it.log.total("window") + it.log.total("finish")
}

// ticksPerSecond is the simulated ticks per host second of the run phase.
func ticksPerSecond(it *iteration) float64 { return float64(it.ticks) / it.runPhase().Seconds() }

func (it *iteration) checkpoint() time.Duration {
	return it.log.total("capture") + it.log.total("encode") + it.log.total("decode") + it.log.total("resume")
}

// runner executes iterations of one workload at one seed.
type runner struct {
	wl    *workload
	seed  uint64
	small bool
}

func (rn *runner) spec() (*scenario.Spec, error) {
	s, err := rn.wl.build(rn.small)
	if err != nil {
		return nil, err
	}
	s.Base.Seed = rn.seed
	return s, nil
}

// setupOnly times one world construction and discards the world.
func (rn *runner) setupOnly() (time.Duration, error) {
	spec, err := rn.spec()
	if err != nil {
		return 0, err
	}
	runtime.GC()
	t0 := time.Now()
	if _, err := spec.Start(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// phase runs fn inside a span of the iteration's log and, when traced,
// under the CPU profile label phase=name.
func phase(it *iteration, name string, fn func() error) error {
	defer it.log.begin(name)()
	if !it.traced {
		return fn()
	}
	var err error
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { err = fn() })
	return err
}

// iterate runs the workload once. A traced iteration attaches the
// program's spans (re-attached after Resume) and records a CPU profile to
// profPath; an untraced one does neither.
func (rn *runner) iterate(traced bool, profPath string) (it *iteration, err error) {
	spec, err := rn.spec()
	if err != nil {
		return nil, err
	}
	it = &iteration{traced: traced, log: newSpanLog(), ticks: spec.Base.NumTrans, counts: map[string]float64{}}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var spans *telemetry.Spans
	if traced {
		spans = telemetry.NewSpans()
		f, err := os.Create(profPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil && cerr != nil {
				err = cerr
			}
		}()
	}

	endIter := it.log.begin("iteration")

	var r *scenario.Run
	if err := phase(it, "setup", func() (err error) { r, err = spec.Start(); return err }); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.World().SetSpans(spans)

	end := sim.Tick(spec.Base.NumTrans)
	cutAt := sim.Tick(0)
	if rn.wl.cut > 0 {
		cutAt = sim.Tick(math.Round(rn.wl.cut * float64(end)))
	}
	var eventsBeforeCut int64
	if cutAt > 0 {
		if err := runWindows(it, r, cutAt); err != nil {
			return nil, err
		}
		eventsBeforeCut = r.World().Engine().Processed()
		var data []byte
		if r, data, err = checkpointRoundTrip(it, r); err != nil {
			return nil, err
		}
		it.ckptBytes = len(data)
		r.World().SetSpans(spans)
		endRecheck := it.log.begin("recheck")
		err = phase(it, "check", func() error { return reencodeIdentical(r, data) })
		endRecheck()
		if err != nil {
			return nil, err
		}
	}
	if err := runWindows(it, r, end); err != nil {
		return nil, err
	}
	var res *scenario.Result
	if err := phase(it, "finish", func() (err error) { res, err = r.Finish(); return err }); err != nil {
		return nil, err
	}
	w := r.World()
	err = phase(it, "check", func() error { return rn.checkOutputs(res, w) })
	endIter()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	it.allocs = m1.Mallocs - m0.Mallocs
	it.gcCycles = m1.NumGC - m0.NumGC
	it.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	it.final = w
	collectCounts(it, res, w, eventsBeforeCut)
	if traced {
		it.spans = map[string]telemetry.SpanStat{}
		for _, st := range spans.Stats() {
			it.spans[st.Name] = st
		}
		for _, name := range []string{"overlay-join", "overlay-leave", "lending-fanout"} {
			it.counts["span."+name] = float64(it.spans[name].Count)
		}
	}
	return it, nil
}

// runWindows advances the run to tick `to` in windowTicks steps, one span
// per window.
func runWindows(it *iteration, r *scenario.Run, to sim.Tick) error {
	return phase(it, "run", func() error {
		for now := r.World().Engine().Now(); now < to; now = r.World().Engine().Now() {
			next := min(now+windowTicks, to)
			endWin := it.log.begin("window")
			err := r.RunToTick(next)
			endWin()
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// checkpointRoundTrip cuts the run through the user path: capture, encode,
// decode, resume. It returns the resumed run and the encoded checkpoint.
func checkpointRoundTrip(it *iteration, r *scenario.Run) (*scenario.Run, []byte, error) {
	var (
		st   *scenario.RunState
		data []byte
		back *scenario.Run
	)
	err := phase(it, "checkpoint", func() (err error) {
		steps := []struct {
			name string
			fn   func() error
		}{
			{"capture", func() (err error) { st, err = r.Snapshot(); return err }},
			{"encode", func() (err error) { data, err = st.Encode(); return err }},
			{"decode", func() (err error) { st, err = scenario.DecodeRunState(data); return err }},
			{"resume", func() (err error) { back, err = scenario.Resume(st); return err }},
		}
		for _, s := range steps {
			endStep := it.log.begin(s.name)
			err := s.fn()
			endStep()
			if err != nil {
				return fmt.Errorf("checkpoint %s: %w", s.name, err)
			}
		}
		return nil
	})
	return back, data, err
}

// reencodeIdentical checks that the resumed run re-snapshots to exactly
// the bytes it was resumed from.
func reencodeIdentical(r *scenario.Run, data []byte) error {
	st, err := r.Snapshot()
	if err != nil {
		return fmt.Errorf("re-snapshot after resume: %w", err)
	}
	again, err := st.Encode()
	if err != nil {
		return fmt.Errorf("re-encode after resume: %w", err)
	}
	if !bytes.Equal(again, data) {
		return fmt.Errorf("output check: resumed run re-encodes to %d bytes that differ from the %d-byte checkpoint", len(again), len(data))
	}
	return nil
}

// checkOutputs applies the conservation laws that hold at any seed, and
// at the default seed of a full-size run the pinned summary digest.
func (rn *runner) checkOutputs(res *scenario.Result, w *world.World) error {
	m := &res.Metrics
	if got, want := m.Served+m.Denied, res.Spec.Base.NumTrans; got != want {
		return fmt.Errorf("output check: served+denied = %d, want %d ticks", got, want)
	}
	if got, want := m.CoopInSystem+m.UncoopInSystem, int64(res.Members); got != want {
		return fmt.Errorf("output check: coop+uncoop in system = %d, population %d", got, want)
	}
	p := res.Proto
	closed := p.SettledMass + p.RefundedMass + p.StrandedMass + p.PendingMass
	if math.Abs(p.StakedMass-closed) > 1e-9*math.Max(1, p.StakedMass) {
		return fmt.Errorf("output check: staked mass %v != settled+refunded+stranded+pending %v", p.StakedMass, closed)
	}
	ts := w.Bus().Stats()
	if got := ts.Delivered + ts.Dropped + ts.Crashed + ts.NoRoute; got != ts.Sent {
		return fmt.Errorf("output check: transport sent %d != delivered+dropped+crashed+noRoute %d", ts.Sent, got)
	}
	if !rn.small && rn.seed == rn.wl.defaultSeed && rn.wl.digest != "" {
		sum := sha256.Sum256([]byte(res.Summary()))
		if got := hex.EncodeToString(sum[:]); got != rn.wl.digest {
			return fmt.Errorf("output check: summary digest %s, pinned %s:\n%s", got, rn.wl.digest, res.Summary())
		}
	}
	return nil
}

// collectCounts records the exact per-layer figures of a finished run.
func collectCounts(it *iteration, res *scenario.Result, w *world.World, eventsBeforeCut int64) {
	c := it.counts
	live, capacity := w.ArenaSlots()
	plive, pcap := w.Protocol().ArenaSlots()
	c["arena.live"] = float64(live)
	c["arena.capacity"] = float64(capacity)
	c["arena.protocol_live"] = float64(plive)
	c["arena.protocol_capacity"] = float64(pcap)

	c["sim.events"] = float64(eventsBeforeCut + w.Engine().Processed())
	c["world.population"] = float64(w.PopulationSize())
	lookups, hops := w.Ring().RoutingStats()
	c["overlay.lookups"] = float64(lookups)
	c["overlay.mean_hops"] = hops

	var reports, subjects int64
	for _, pid := range w.AdmittedPeers() {
		st := w.Store(pid)
		reports += st.Reports()
		subjects += int64(st.Subjects())
	}
	c["rocq.reports"] = float64(reports)
	c["rocq.subjects"] = float64(subjects)

	p := res.Proto
	c["lending.requests"] = float64(p.Requests)
	c["lending.granted"] = float64(p.Granted)
	ts := w.Bus().Stats()
	c["transport.sent"] = float64(ts.Sent)
	c["transport.delivered"] = float64(ts.Delivered)
	ch := res.Metrics.Churn
	c["churn.departures"] = float64(ch.Departures)
	c["churn.crashes"] = float64(ch.Crashes)
	c["churn.rejoins"] = float64(ch.Rejoins)
	c["churn.migrated"] = float64(ch.Migrated)
	c["churn.wipeouts"] = float64(ch.Wipeouts)
	c["churn.lease_evictions"] = float64(ch.LeaseEvictions)
	c["snapshot.bytes"] = float64(it.ckptBytes)
	sum := sha256.Sum256([]byte(res.Summary()))
	c["summary.digest32"] = float64(uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3]))
}

// sameCounts reports the first count that differs between two iterations
// of one seed, over the names both recorded.
func sameCounts(a, b map[string]float64) error {
	for _, name := range sortedKeys(a) {
		if vb, ok := b[name]; ok && vb != a[name] {
			return fmt.Errorf("determinism check: %s = %v in one iteration, %v in another", name, a[name], vb)
		}
	}
	return nil
}

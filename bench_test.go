// Package repro's root benchmarks regenerate every table and figure of
// the paper at a reduced but shape-preserving scale, one testing.B target
// per result (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkFig1        Figure 1  — uncoop vs coop growth, both topologies
//	BenchmarkSuccessRate §4.1 / T2 — decision success rate with vs without introductions
//	BenchmarkFig2        Figure 2  — cooperative reputation over time per λ
//	BenchmarkFig3        Figure 3  — population vs proportion of naive introducers
//	BenchmarkFig4        Figure 4+5 — counts and proportions vs reputation lent
//	BenchmarkFig6        Figure 6  — population vs percentage of freeriding entrants
//	BenchmarkCollusion   A1        — the §1 collusion attack under staking
//	BenchmarkBaselines   A2        — admission-policy ablation
//
// Each iteration runs the full (scaled) experiment; the reported metric is
// therefore end-to-end experiment regeneration cost. Micro-benchmarks for
// the substrates (DHT lookups, ROCQ updates, transaction throughput) are
// alongside.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/churn"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/id"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/rocq"
	"repro/internal/world"
)

// benchOptions shrinks experiments so a full -bench=. pass stays in
// minutes while preserving the paper's qualitative shapes.
func benchOptions(b *testing.B) experiments.Options {
	b.Helper()
	return experiments.Options{Runs: 2, Scale: 0.04, SeedBase: 1}
}

func reportShape(b *testing.B, keyvals ...any) {
	b.Helper()
	for i := 0; i+1 < len(keyvals); i += 2 {
		if v, ok := keyvals[i+1].(float64); ok {
			b.ReportMetric(v, fmt.Sprint(keyvals[i]))
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig1(benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"coop_powerlaw", f.FinalCoop["powerlaw"],
				"uncoop_powerlaw", f.FinalUncoop["powerlaw"],
				"slope_powerlaw", f.Slope["powerlaw"],
			)
		}
	}
}

func BenchmarkSuccessRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunSuccessRate(benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"sr_with", s.WithIntroductions.Mean(),
				"sr_without", s.WithoutIntroductions.Mean(),
			)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	// Two contrasting arrival rates carry the figure's shape.
	lambdas := []float64{0.1, 0.005}
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig2(lambdas, benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"final_rep_lambda_0.1", f.Final[0.1],
				"final_rep_lambda_0.005", f.Final[0.005],
			)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	fractions := []float64{0, 0.5, 1}
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig3(fractions, benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"uncoop_all_selective", f.Uncoop[0],
				"uncoop_all_naive", f.Uncoop[2],
			)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	amounts := []float64{0.05, 0.25, 0.45}
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig45(amounts, benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"coop_amt_0.05", f.Coop[0],
				"coop_amt_0.45", f.Coop[2],
				"refused_rep_amt_0.45", f.RefusedRep[2],
			)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	percentages := []float64{0, 50, 100}
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig6(percentages, benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"coop_pct_0", f.Coop[0],
				"coop_pct_100", f.Coop[2],
				"uncoop_pct_100", f.Uncoop[2],
			)
		}
	}
}

func BenchmarkCollusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunCollusion(benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"colluders_admitted", float64(c.ColludersAdmitted),
				"colluders_refused", float64(c.ColludersRefused),
				"max_colluder_rep", c.MaxColluderRep,
			)
		}
	}
}

func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBaselines(benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range r.Rows {
				if row.Policy == "reputation-lending" || row.Policy == "complaints-based" {
					b.ReportMetric(row.UncoopPerCoop, "uncoop_per_coop_"+row.Policy)
				}
			}
		}
	}
}

// BenchmarkFig1Macro is the headline scaling benchmark: the Figure 1
// population-growth sweep at half paper scale (≈2000 peers by run end,
// both topologies, 2 replicas). It exercises the simulator's hot paths
// under sustained arrivals — placement caching under churn, the lending
// fan-out, per-tick transactions and sampling — and is the wall-clock
// number BENCH_2.json tracks across PRs.
func BenchmarkFig1Macro(b *testing.B) {
	if testing.Short() {
		b.Skip("macro benchmark: minutes of simulated growth")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig1(experiments.Options{Runs: 2, Scale: 0.5, SeedBase: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnMacro is the membership-churn macro benchmark: the churn
// sweep (four μ points, 2 replicas each) at half paper scale. On top of
// Fig1Macro's hot paths it exercises the departure clocks, batch
// detachment, score-manager state migration and the periodic sampling
// walk under sustained membership loss — the BENCH_3.json workload.
func BenchmarkChurnMacro(b *testing.B) {
	if testing.Short() {
		b.Skip("macro benchmark: minutes of simulated churn")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunChurn(nil, experiments.Options{Runs: 2, Scale: 0.5, SeedBase: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnNullSign is BenchmarkChurnMacro with signing switched to
// null identities — the measured value of the explicit Ed25519 opt-out
// on the churn sweep (compare the two directly; BENCH_3.json also
// records the opt-out on the admission-heavy Fig-1 macro, where the
// signature floor is ~22% of the wall clock).
func BenchmarkChurnNullSign(b *testing.B) {
	if testing.Short() {
		b.Skip("macro benchmark: minutes of simulated churn")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunChurn(nil, experiments.Options{Runs: 2, Scale: 0.5, SeedBase: 1, NullSign: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkTransactionTick measures the cost of one simulated transaction
// in a mid-sized community — the simulator's hot path.
func BenchmarkTransactionTick(b *testing.B) {
	cfg := config.Default()
	cfg.NumInit = 1000
	cfg.NumTrans = int64(b.N) + 1
	cfg.Lambda = 0
	w, err := world.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDHTLookup measures greedy finger-table routing on a 4096-node
// ring.
func BenchmarkDHTLookup(b *testing.B) {
	ring := overlay.NewRing()
	var members []id.ID
	for i := 0; i < 4096; i++ {
		n := id.HashString(fmt.Sprintf("bench-node-%d", i))
		if err := ring.Join(n); err != nil {
			b.Fatal(err)
		}
		members = append(members, n)
	}
	src := rng.New(1)
	keys := make([]id.ID, 1024)
	for i := range keys {
		keys[i] = id.FromUint64(src.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ring.Lookup(members[i%len(members)], keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreManagerPlacement measures replica-key placement on a
// growing ring — the per-transaction placement cost.
func BenchmarkScoreManagerPlacement(b *testing.B) {
	ring := overlay.NewRing()
	var members []id.ID
	for i := 0; i < 4096; i++ {
		n := id.HashString(fmt.Sprintf("bench-node-%d", i))
		if err := ring.Join(n); err != nil {
			b.Fatal(err)
		}
		members = append(members, n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ring.ScoreManagers(members[i%len(members)], 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkROCQReport measures one feedback report folded into a score
// manager's aggregate.
func BenchmarkROCQReport(b *testing.B) {
	store := rocq.NewStore(rocq.DefaultParams())
	subject := id.FromUint64(1)
	store.Credit(subject, 0.1)
	op := rocq.Opinion{Value: 1, Quality: 0.8, Count: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Report(id.FromUint64(uint64(i%64+2)), subject, op)
	}
}

// BenchmarkRingJoin measures membership growth cost (the churn path).
func BenchmarkRingJoin(b *testing.B) {
	ring := overlay.NewRing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ring.Join(id.HashString(fmt.Sprintf("join-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingChurn measures a join/leave pair on a standing 4096-node
// ring — the refused-peer path that every admission attempt under a
// selective community exercises.
func BenchmarkRingChurn(b *testing.B) {
	ring := overlay.NewRing()
	for i := 0; i < 4096; i++ {
		if err := ring.Join(id.HashString(fmt.Sprintf("churn-node-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := id.HashString(fmt.Sprintf("churn-%d", i))
		if err := ring.Join(n); err != nil {
			b.Fatal(err)
		}
		if err := ring.Leave(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFounderBuild measures founding-community construction —
// world.New at 10^4 founders (2 000 under -short) — with and without
// score-manager record migration armed. Signing is null so the figure is
// the overlay join and the placement sweep, not Ed25519 key generation.
func BenchmarkFounderBuild(b *testing.B) {
	n := 10_000
	if testing.Short() {
		n = 2_000
	}
	for _, migrate := range []bool{false, true} {
		b.Run(fmt.Sprintf("migrate=%v", migrate), func(b *testing.B) {
			cfg := config.Default()
			cfg.NumInit = n
			cfg.NullSign = true
			cfg.Churn = churn.Params{Migrate: migrate}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := world.New(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWhitewash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := experiments.RunWhitewash(benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range w.Rows {
				if row.Policy == "reputation-lending" || row.Policy == "complaints-based" {
					b.ReportMetric(row.ServicePerIdentity, "service_per_identity_"+row.Policy)
				}
			}
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblation(benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"coop_reward_ratio_0", a.RewardCoop[0],
				"coop_reward_ratio_1", a.RewardCoop[len(a.RewardCoop)-1],
			)
		}
	}
}

func BenchmarkTraitor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := experiments.RunTraitor(benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"rep_at_defection", tr.RepAtDefection,
				"rep_after", tr.RepAfter,
			)
		}
	}
}

// BenchmarkChurnMacroFleet is BenchmarkChurnMacro dispatched through the
// fleet coordinator (2 protocol workers, in-process transports): the same
// units flow through job serialization, the scheduler, heartbeats and
// result decoding, so the delta against BenchmarkChurnMacro is the
// fleet's protocol-and-scheduling overhead. Cross-process scaling numbers
// (real worker processes, 1/2/4 workers) are recorded in BENCH_4.json —
// on a multi-core box the sweep parallelizes across worker processes;
// the protocol cost measured here is what bounds the 1-worker penalty.
func BenchmarkChurnMacroFleet(b *testing.B) {
	if testing.Short() {
		b.Skip("macro benchmark: minutes of simulated churn")
	}
	f, err := fleet.New(fleet.Config{Workers: 2, Spawn: fleet.PipeSpawn()})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunChurn(nil, experiments.Options{Runs: 2, Scale: 0.5, SeedBase: 1, Fleet: f}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetProtocol is the protocol microbenchmark: one tiny unit
// round-tripped through a single pipe worker — frame encode, dispatch,
// worker decode, execution of a minimal world, result encode and merge.
// The non-execution share is the per-unit floor a fleet adds.
func BenchmarkFleetProtocol(b *testing.B) {
	f, err := fleet.New(fleet.Config{Workers: 1, Spawn: fleet.PipeSpawn()})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	c := config.Default()
	c.NumInit = 20
	c.NumTrans = 100
	c.Lambda = 0
	data, err := json.Marshal(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Run([]fleet.Job{{Kind: fleet.KindConfig, Config: data, Seed: 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

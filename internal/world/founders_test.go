package world

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/churn"
	"repro/internal/config"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/rocq"
	"repro/internal/sim"
	"repro/internal/workload"
)

// newIncremental is the reference founder build the bulk path in
// createFounders must reproduce: founders join the ring one at a time,
// each join runs the cache patching a run-time arrival gets
// (noteRingJoin), founder-time migration is skipped, and the placements
// are then filled in admission order through the treap-backed ring.
func newIncremental(cfg config.Config) (*World, error) {
	w, err := newBare(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.NumInit; i++ {
		pid := w.newPeerID()
		style := peer.AssignStyle(peer.Cooperative, cfg.FracNaive, w.behaveRand)
		p := w.newPeer(pid, peer.Cooperative, style)
		ident, err := w.newIdentity(pid)
		if err != nil {
			return nil, err
		}
		if err := w.ring.Join(pid); err != nil {
			return nil, err
		}
		w.noteRingJoin(pid)
		w.proto.RegisterPeer(pid, ident)
		w.ensureSlot(pid).pr = p
		w.admit(p, 0)
		w.m.Founders++
	}
	for _, p := range w.admittedPeers {
		for _, st := range w.smEntry(p.ID).stores {
			st.Init(p.ID, cfg.FounderRep)
		}
	}
	return w, w.err
}

// startedSnapshot starts the world and returns its sealed snapshot.
func startedSnapshot(t *testing.T, w *World) []byte {
	t.Helper()
	w.Start()
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}

// founderMatrixCfg is the base of the bulk-vs-incremental matrix in one
// of three regimes: no churn, Poisson churn with record migration, or a
// cohort workload (which implies migration).
func founderMatrixCfg(regime string, numInit int, nullSign bool) config.Config {
	c := config.Default()
	c.NumInit = numInit
	c.NumSM = 4
	c.NumTrans = 5_000
	c.Lambda = 0.05
	c.WaitPeriod = 150
	c.SampleEvery = 500
	c.NullSign = nullSign
	c.Seed = uint64(numInit) + 3
	switch regime {
	case "churn":
		c.StakeTimeout = 600
		c.Churn = churn.Params{
			Mu: 0.01, CrashFrac: 0.4, RejoinProb: 0.5, DowntimeMean: 250,
			SessionMean: 1500, SessionDist: churn.SessionPareto,
		}
	case "cohorts":
		c.Workload = &workload.Spec{Cohorts: []workload.Cohort{
			{Name: "steady", Weight: 3},
			{Name: "flaky", Weight: 1, SessionDist: "pareto"},
		}}
	}
	return c
}

// TestBulkFoundersMatchIncremental pins the bulk founder build to the
// one-at-a-time reference: byte-identical sealed snapshots right after
// construction, and identical fingerprints after 5 000 ticks (1 000
// under -short, which the race job runs).
func TestBulkFoundersMatchIncremental(t *testing.T) {
	const numSM = 4
	ticks := sim.Tick(5_000)
	if testing.Short() {
		ticks = 1_000
	}
	for _, regime := range []string{"none", "churn", "cohorts"} {
		for _, n := range []int{1, 2, numSM - 1, numSM, numSM + 1, 500} {
			for _, nullSign := range []bool{true, false} {
				cfg := founderMatrixCfg(regime, n, nullSign)
				t.Run(fmt.Sprintf("%s/n=%d/null=%v", regime, n, nullSign), func(t *testing.T) {
					bulk, err := New(cfg)
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					ref, err := newIncremental(cfg)
					if err != nil {
						t.Fatalf("incremental build: %v", err)
					}
					if !bytes.Equal(startedSnapshot(t, bulk), startedSnapshot(t, ref)) {
						t.Fatal("bulk founder build differs from the incremental reference")
					}
					if err := bulk.RunFor(ticks); err != nil {
						t.Fatalf("bulk run: %v", err)
					}
					if err := ref.RunFor(ticks); err != nil {
						t.Fatalf("reference run: %v", err)
					}
					bulk.Finish()
					ref.Finish()
					if !bytes.Equal(fingerprint(t, bulk), fingerprint(t, ref)) {
						t.Fatalf("bulk-built world diverged from the reference over %d ticks", ticks)
					}
				})
			}
		}
	}
}

// TestFounderStateInvariants checks the state a bulk founder build
// leaves on migrating worlds: no record migrated, every founder known
// with exactly the founder reputation at each of its score managers,
// and no store holding a slot for a subject it does not manage, nor any
// store on a node that manages nobody.
func TestFounderStateInvariants(t *testing.T) {
	steady := config.Default() // churn-steady's base at its own size
	steady.NumInit = 250
	steady.NumTrans = 250_000
	steady.WaitPeriod = 500
	steady.SampleEvery = 2_500
	steady.Seed = 29
	steady.Churn = churn.Params{Mu: 0.005, CrashFrac: 0.25, RejoinProb: 0.4, DowntimeMean: 2_500}

	mega := config.Default() // the mega builtin at 2 000 founders
	mega.NumInit = 2_000
	mega.NumTrans = 2_000
	mega.Lambda = 0.1
	mega.WaitPeriod = 500
	mega.SampleEvery = 1_000
	mega.NullSign = true
	mega.Seed = 10
	mega.Churn = churn.Params{Mu: 0.05, CrashFrac: 0.25, RejoinProb: 0.5, DowntimeMean: 300, LeaseTTL: 600}

	for name, cfg := range map[string]config.Config{"churn-steady": steady, "mega": mega} {
		t.Run(name, func(t *testing.T) {
			w, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if !w.migrating() {
				t.Fatal("config does not migrate records")
			}
			if got := w.Metrics().Churn.Migrated; got != 0 {
				t.Fatalf("founder build migrated %d records", got)
			}
			ref := rocq.NewStore(rocq.DefaultParams())
			ref.Init(id.ID{}, cfg.FounderRep)
			want, _ := ref.Export(id.ID{})

			managers := map[id.ID]bool{}
			placed := 0
			for _, pid := range w.AdmittedPeers() {
				sms := w.ScoreManagers(pid)
				for i, m := range sms {
					if id.Contains(sms[:i], m) {
						continue
					}
					managers[m] = true
					placed++
					st, ok := w.storeAt(m)
					if !ok {
						t.Fatalf("manager %s of %s hosts no store", m.Short(), pid.Short())
					}
					if got, ok := st.Export(pid); !ok || got != want {
						t.Fatalf("founder %s at manager %s: record %+v (known %v), want %+v", pid.Short(), m.Short(), got, ok, want)
					}
				}
			}
			known := 0
			for _, node := range w.slotIDsSorted(func(s *worldSlot) bool { return s.store != nil }) {
				if !managers[node] {
					t.Fatalf("node %s hosts a store but manages no founder", node.Short())
				}
				st, _ := w.storeAt(node)
				if live, _ := st.ArenaSlots(); live != st.Subjects() {
					t.Fatalf("store at %s keeps %d slots for %d known subjects", node.Short(), live, st.Subjects())
				}
				known += st.Subjects()
			}
			if known != placed {
				t.Fatalf("stores know %d subjects, placements name %d manager slots", known, placed)
			}
		})
	}
}

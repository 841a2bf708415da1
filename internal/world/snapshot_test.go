package world

// Checkpoint property tests: a restored world must continue
// byte-identically to the uninterrupted run (over randomized
// churn/crash/rejoin schedules and seed-derived checkpoint ticks),
// snapshotting must be idempotent (snapshot(restore(s)) == s), and the
// encoding must be deterministic — the same world serializes to the
// same bytes every time, which is what catches any map-iteration site
// that leaks into the capture.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/churn"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// churnyCfg is a fast configuration that exercises every checkpointable
// event kind: Poisson arrivals and departures, session clocks with
// crashes and rejoins, waiting-period intro events, stake timeouts and
// offline-stake expiries.
func churnyCfg(seed uint64) config.Config {
	c := config.Default()
	c.NumInit = 25
	c.NumTrans = 4000
	c.Lambda = 0.05
	c.WaitPeriod = 150
	c.SampleEvery = 500
	c.NumSM = 3
	c.Seed = seed
	c.StakeTimeout = 600
	c.Churn = churn.Params{
		Mu:           0.01,
		CrashFrac:    0.4,
		RejoinProb:   0.5,
		DowntimeMean: 250,
		SessionMean:  1500,
		SessionDist:  churn.SessionPareto,
	}
	return c
}

// fingerprint pins a world's complete observable output: the sealed
// snapshot encoding plus the rendered time series and protocol stats.
func fingerprint(t *testing.T, w *World) []byte {
	t.Helper()
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var buf bytes.Buffer
	buf.Write(data)
	buf.WriteString(metrics.CSV(w.Metrics().CoopCount, w.Metrics().UncoopCount, w.Metrics().CoopReputation))
	fmt.Fprintf(&buf, "%+v\n%+v\n", w.Protocol().Stats(), w.Bus().Stats())
	return buf.Bytes()
}

// roundTrip encodes, decodes and restores a world, asserting
// double-checkpoint idempotence along the way.
func roundTrip(t *testing.T, w *World) *World {
	t.Helper()
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot at tick %d: %v", w.Engine().Now(), err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	restored, err := Restore(dec)
	if err != nil {
		t.Fatalf("Restore at tick %d: %v", snap.Now, err)
	}
	snap2, err := restored.Snapshot()
	if err != nil {
		t.Fatalf("re-Snapshot after restore: %v", err)
	}
	data2, err := snap2.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("snapshot(restore(s)) != s at tick %d: %d vs %d bytes", snap.Now, len(data), len(data2))
	}
	return restored
}

// TestSnapshotRestoreByteIdentity cuts churning worlds at nine
// seed-derived ticks each and requires every resume to finish
// byte-identical to the uninterrupted run. The seeds sweep a factorial
// of placement width (NumSM 2–5), record migration on and off, and a
// cooperative-only versus 30%-freerider population; -short keeps one
// seed per NumSM for the race job.
func TestSnapshotRestoreByteIdentity(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if testing.Short() {
		seeds = []uint64{1, 6, 11, 16}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			i := int(seed - 1)
			cfg := churnyCfg(seed)
			cfg.NumSM = 2 + i%4
			cfg.Churn.Migrate = i&4 == 0
			if i&8 != 0 {
				cfg.FracUncoop = 0.3
			}

			ref, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := ref.Run(); err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			want := fingerprint(t, ref)

			// finish runs a world to the end and compares it with the
			// uninterrupted run.
			end := sim.Tick(cfg.NumTrans)
			finish := func(w *World, from, cut sim.Tick) {
				t.Helper()
				if err := w.RunFor(end - from); err != nil {
					t.Fatalf("RunFor tail after cut %d: %v", cut, err)
				}
				w.Finish()
				if got := fingerprint(t, w); !bytes.Equal(want, got) {
					t.Fatalf("run resumed at tick %d diverged from the uninterrupted run (fingerprints differ: %d vs %d bytes)", cut, len(want), len(got))
				}
			}

			// The main line round-trips through chained checkpoints,
			// restoring into a fresh world at every cut; each cut also
			// forks a second restored world that runs to the end on its
			// own, so a divergence names the cut that caused it.
			w, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			w.Start()
			now := sim.Tick(0)
			for k := uint64(1); k <= 9; k++ {
				cut := sim.Tick(400*k + (seed*(97+k*131))%400)
				if err := w.RunFor(cut - now); err != nil {
					t.Fatalf("RunFor to %d: %v", cut, err)
				}
				finish(roundTrip(t, w), cut, cut)
				w = roundTrip(t, w)
				now = cut
			}
			finish(w, now, now)
		})
	}
}

// TestSnapshotScriptedChurn exercises the scripted lifecycle paths a
// process-driven schedule cannot hit deterministically: batch crashes,
// scripted departures and explicit rejoins around the checkpoint.
func TestSnapshotScriptedChurn(t *testing.T) {
	cfg := churnyCfg(9)
	cfg.Churn.Mu = 0
	cfg.Churn.SessionMean = 0
	cfg.Churn.Migrate = true

	script := func(w *World) {
		if err := w.RunFor(900); err != nil {
			t.Fatalf("RunFor: %v", err)
		}
		admitted := w.AdmittedPeers()
		if len(admitted) < 8 {
			t.Fatalf("only %d admitted members", len(admitted))
		}
		if err := w.DepartBatch(admitted[2:4], true); err != nil {
			t.Fatalf("DepartBatch: %v", err)
		}
		if err := w.Crash(admitted[5]); err != nil {
			t.Fatalf("Crash: %v", err)
		}
		if err := w.RunFor(400); err != nil {
			t.Fatalf("RunFor: %v", err)
		}
	}
	after := func(w *World) {
		departed := w.DepartedPeers()
		if len(departed) == 0 {
			t.Fatal("no departed peers to rejoin")
		}
		if err := w.Rejoin(departed[0]); err != nil {
			t.Fatalf("Rejoin: %v", err)
		}
		if err := w.RunFor(1200); err != nil {
			t.Fatalf("RunFor: %v", err)
		}
		w.Finish()
	}

	ref, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref.Start()
	script(ref)
	after(ref)
	want := fingerprint(t, ref)

	w, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	script(w)
	w = roundTrip(t, w)
	after(w)
	got := fingerprint(t, w)
	if !bytes.Equal(want, got) {
		t.Fatal("restored scripted-churn run diverged from uninterrupted run")
	}
}

// TestSnapshotEncodeDeterministic captures the same world twice and
// asserts identical bytes — Go randomizes map iteration per walk, so
// any capture path iterating a map raw fails this with high
// probability (the PR 4 rebuildSMDeps bug class).
func TestSnapshotEncodeDeterministic(t *testing.T) {
	w, err := New(churnyCfg(3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	if err := w.RunFor(1500); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	var prev []byte
	for i := 0; i < 3; i++ {
		snap, err := w.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		data, err := snap.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if prev != nil && !bytes.Equal(prev, data) {
			t.Fatalf("capture %d of the same world produced different bytes", i)
		}
		prev = data
	}
}

func TestSnapshotPreconditions(t *testing.T) {
	w, err := New(churnyCfg(5))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := w.Snapshot(); err == nil {
		t.Fatal("Snapshot before Start should fail")
	}
	w.Start()
	if _, err := w.Snapshot(); err != nil {
		t.Fatalf("Snapshot after Start: %v", err)
	}
	w.Bus().SetLoss(0.1)
	if _, err := w.Snapshot(); err == nil {
		t.Fatal("Snapshot with transport faults active should fail")
	}
	w.Bus().SetLoss(0)
	if _, err := w.Snapshot(); err != nil {
		t.Fatalf("Snapshot after clearing faults: %v", err)
	}
}

func TestDecodeSnapshotRejectsDefects(t *testing.T) {
	w, err := New(churnyCfg(6))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	if err := w.RunFor(800); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	if _, err := DecodeSnapshot(data[:len(data)/2]); err == nil {
		t.Fatal("truncated checkpoint should be rejected")
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x20
	if _, err := DecodeSnapshot(corrupt); err == nil {
		t.Fatal("bit-flipped checkpoint should be rejected")
	}
	if _, err := DecodeSnapshot([]byte(`{"magic":"other","kind":"world","sha256":"","body":{}}`)); err == nil {
		t.Fatal("wrong magic should be rejected")
	}
	skew := *snap
	skew.Version = SnapshotVersion + 1
	if _, err := Restore(&skew); err == nil {
		t.Fatal("version-skewed snapshot should be rejected by Restore")
	}
	if _, err := skew.Encode(); err == nil {
		t.Fatal("version-skewed snapshot should be rejected by Encode")
	}
}

// TestRestoreRejectsHostileColumns corrupts the columnar tables of a
// decoded snapshot — a live peer's and a departed peer's opinion book
// and a store's credibility table — and requires Restore to fail with
// an error that names the defect, instead of restoring a world whose
// book or table silently dropped or overwrote entries.
func TestRestoreRejectsHostileColumns(t *testing.T) {
	w, err := New(churnyCfg(7))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	if err := w.RunFor(2500); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	fresh := func() *Snapshot {
		s, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("DecodeSnapshot: %v", err)
		}
		return s
	}
	if _, err := Restore(fresh()); err != nil {
		t.Fatalf("unmodified snapshot does not restore: %v", err)
	}
	// bigBook returns a record whose book has at least two partners.
	bigBook := func(recs []PeerRecord) *PeerRecord {
		for i := range recs {
			if len(recs[i].Opinions.Sums) >= 2 {
				return &recs[i]
			}
		}
		t.Fatal("no peer with two or more partners")
		return nil
	}
	cases := []struct {
		name string
		edit func(s *Snapshot)
		want string
	}{
		{"duplicate partner", func(s *Snapshot) {
			b := &bigBook(s.Peers).Opinions
			copy(b.Partners[20:40], b.Partners[0:20])
		}, "opinion identifiers not strictly ascending at entry 1"},
		{"sums and counts disagree", func(s *Snapshot) {
			b := &bigBook(s.Peers).Opinions
			b.Counts = b.Counts[1:]
		}, "opinion columns disagree"},
		{"departed peer's ragged partner column", func(s *Snapshot) {
			var recs []PeerRecord
			for _, d := range s.Departed {
				recs = append(recs, d.Peer)
			}
			target := bigBook(recs).ID
			for i := range s.Departed {
				if s.Departed[i].Peer.ID == target {
					b := &s.Departed[i].Peer.Opinions
					b.Partners = b.Partners[:len(b.Partners)-3]
				}
			}
		}, "not a multiple of 20"},
		{"unsorted reporters", func(s *Snapshot) {
			for i := range s.Stores {
				st := &s.Stores[i].State
				if len(st.Cred) >= 2 {
					a, b := st.CredIDs[0:20], st.CredIDs[20:40]
					for k := range a {
						a[k], b[k] = b[k], a[k]
					}
					return
				}
			}
			t.Fatal("no store with two or more credibilities")
		}, "credibility identifiers not strictly ascending"},
		{"credibility without reporter", func(s *Snapshot) {
			st := &s.Stores[0].State
			st.Cred = append(st.Cred, 0.5)
		}, "credibility columns disagree"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := fresh()
			tc.edit(s)
			_, err := Restore(s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestDecodeRejectsPreviousVersion seals a body that claims the previous
// format version and requires the version-skew error: old checkpoints
// are refused, never migrated.
func TestDecodeRejectsPreviousVersion(t *testing.T) {
	w, err := New(churnyCfg(8))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	old := *snap
	old.Version = SnapshotVersion - 1
	data, err := checkpoint.Seal(checkpoint.KindWorld, &old)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	want := fmt.Sprintf("snapshot version %d not supported (want %d)", SnapshotVersion-1, SnapshotVersion)
	if _, err := DecodeSnapshot(data); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("DecodeSnapshot error %v, want one containing %q", err, want)
	}
}

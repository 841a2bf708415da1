package scenario

// Checkpoint-decoding fuzz: corrupt, truncated or version-skewed
// checkpoint files must be rejected with an error — never a panic, and
// never a silently restored partial state. The seed corpus is real
// sealed snapshots (both kinds) of three built-in scenarios, so the
// fuzzer starts from deep, structurally valid inputs.

import (
	"encoding/json"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/id"
	"repro/internal/rocq"
	"repro/internal/sim"
	"repro/internal/world"
)

// fuzzSeeds captures sealed snapshots of three built-in scenarios at an
// early tick, in both envelope kinds plus the bare body documents.
func fuzzSeeds(f *testing.F) (sealed [][]byte, bodies [][]byte) {
	f.Helper()
	// The three smallest built-ins: fuzz inputs are mutated whole, so
	// corpus bytes are the budget that matters.
	for _, name := range []string{"quickstart", "sm-wipeout", "api"} {
		spec, err := Get(name)
		if err != nil {
			f.Fatal(err)
		}
		r, err := spec.Start()
		if err != nil {
			f.Fatal(err)
		}
		if err := r.RunToTick(sim.Tick(200)); err != nil {
			f.Fatal(err)
		}
		st, err := r.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		runFile, err := st.Encode()
		if err != nil {
			f.Fatal(err)
		}
		ws, err := r.World().Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		worldFile, err := ws.Encode()
		if err != nil {
			f.Fatal(err)
		}
		sealed = append(sealed, runFile, worldFile)
		_, runBody, err := checkpoint.Open(runFile)
		if err != nil {
			f.Fatal(err)
		}
		_, worldBody, err := checkpoint.Open(worldFile)
		if err != nil {
			f.Fatal(err)
		}
		bodies = append(bodies, runBody, worldBody)
	}
	return sealed, bodies
}

// FuzzCheckpointDecode drives the whole untrusted-file path: envelope,
// body, restore. Any outcome but a clean error or a working restore is
// a bug.
func FuzzCheckpointDecode(f *testing.F) {
	sealed, _ := fuzzSeeds(f)
	for _, s := range sealed {
		f.Add(s)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"magic":"replend-checkpoint/v1","kind":"world","sha256":"","body":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, err := checkpoint.Open(data)
		if err != nil {
			return
		}
		switch kind {
		case checkpoint.KindWorld:
			snap, err := world.DecodeSnapshotBody(body)
			if err != nil {
				return
			}
			_, _ = world.Restore(snap)
		case checkpoint.KindScenario:
			st, err := DecodeRunStateBody(body)
			if err != nil {
				return
			}
			_, _ = Resume(st)
		}
	})
}

// FuzzSnapshotBody skips the envelope digest (which rejects almost every
// mutation) and fuzzes the body documents directly, so the decoder and
// restore validation see structurally interesting corruption.
func FuzzSnapshotBody(f *testing.F) {
	_, bodies := fuzzSeeds(f)
	for _, b := range bodies {
		f.Add(b)
	}
	f.Add([]byte(`{"version":1}`))
	// Hostile arena-table shapes (the table arrived in format v4): duplicate ordinals, a free-list
	// entry colliding with an assigned slot, and an ordinal with no
	// backing record elsewhere in the document. Restore must reject all
	// of them rather than build a corrupt arena.
	f.Add([]byte(`{"version":6,"ordinals":[{"peer":"00","ord":0},{"peer":"01","ord":0}]}`))
	f.Add([]byte(`{"version":6,"ordinals":[{"peer":"00","ord":1}],"ordFree":[1]}`))
	f.Add([]byte(`{"version":6,"ordinals":[{"peer":"00","ord":-3}],"ordFree":[0,0]}`))
	for _, b := range hostileColumnSeeds(f, bodies[1]) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if st, err := DecodeRunStateBody(body); err == nil {
			_, _ = Resume(st)
		}
		if snap, err := world.DecodeSnapshotBody(body); err == nil {
			_, _ = world.Restore(snap)
		}
	})
}

// hostileColumnSeeds derives bodies with defective columnar tables
// from a real world body: an identifier column that is not a whole
// number of identifiers, opinion sums and counts of different lengths,
// unsorted reporters and a duplicate partner. Each must decode (the
// defects are semantic, not syntactic) and then fail Restore.
func hostileColumnSeeds(f *testing.F, worldBody []byte) [][]byte {
	f.Helper()
	a, b := id.FromUint64(1), id.FromUint64(2)
	pair := func(x, y id.ID) []byte { return append(append([]byte(nil), x[:]...), y[:]...) }
	edits := []func(s *world.Snapshot){
		func(s *world.Snapshot) {
			s.Stores[0].State.CredIDs, s.Stores[0].State.Cred = pair(a, b)[:id.Bytes+1], []float64{0.5}
		},
		func(s *world.Snapshot) {
			s.Peers[0].Opinions = rocq.BookState{Partners: pair(a, b), Sums: []float64{1, 0}, Counts: []int64{1}}
		},
		func(s *world.Snapshot) {
			s.Stores[0].State.CredIDs, s.Stores[0].State.Cred = pair(b, a), []float64{0.5, 0.5}
		},
		func(s *world.Snapshot) {
			s.Peers[0].Opinions = rocq.BookState{Partners: pair(a, a), Sums: []float64{1, 1}, Counts: []int64{1, 1}}
		},
	}
	var out [][]byte
	for i, edit := range edits {
		snap, err := world.DecodeSnapshotBody(worldBody)
		if err != nil {
			f.Fatal(err)
		}
		if len(snap.Peers) == 0 || len(snap.Stores) == 0 {
			f.Fatal("seed world has no peers or no stores")
		}
		edit(snap)
		body, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		dec, err := world.DecodeSnapshotBody(body)
		if err != nil {
			f.Fatalf("hostile seed %d does not decode: %v", i, err)
		}
		if _, err := world.Restore(dec); err == nil {
			f.Fatalf("hostile seed %d restored without error", i)
		}
		out = append(out, body)
	}
	return out
}

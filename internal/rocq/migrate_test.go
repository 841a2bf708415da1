package rocq

import (
	"testing"

	"repro/internal/id"
)

func TestExportAdoptRoundTrip(t *testing.T) {
	src := NewStore(DefaultParams())
	subject := id.FromUint64(1)
	src.Init(subject, 0.8)
	src.Report(id.FromUint64(2), subject, Opinion{Value: 1, Quality: 0.9, Count: 5})
	snap, ok := src.Export(subject)
	if !ok {
		t.Fatal("export of a known subject failed")
	}
	want, _ := src.Query(subject)
	if got := snap.Value(); got != want {
		t.Fatalf("snapshot value %v, store reads %v", got, want)
	}

	dst := NewStore(DefaultParams())
	ref := dst.Ref(subject) // a pre-existing handle must survive adoption
	dst.Adopt(subject, snap)
	if got, ok := dst.Query(subject); !ok || got != want {
		t.Fatalf("adopted read %v (%v), want %v", got, ok, want)
	}
	if got, ok := ref.Query(); !ok || got != want {
		t.Fatalf("pre-adoption Ref reads %v (%v), want %v", got, ok, want)
	}
	// Adoption carries the evidence, not just the value: further reports
	// fold in with the migrated weight behind them.
	dst.Report(id.FromUint64(3), subject, Opinion{Value: 0, Quality: 1, Count: 1})
	v1, _ := dst.Query(subject)
	if v1 >= want {
		t.Fatalf("negative report did not move the adopted aggregate (%v -> %v)", want, v1)
	}
}

func TestExportUnknownSubject(t *testing.T) {
	s := NewStore(DefaultParams())
	if _, ok := s.Export(id.FromUint64(9)); ok {
		t.Fatal("export of an unknown subject succeeded")
	}
	s.Ref(id.FromUint64(9)) // placeholder slot, no evidence
	if _, ok := s.Export(id.FromUint64(9)); ok {
		t.Fatal("export of a placeholder slot succeeded")
	}
}

func TestSubjectIDsSortedAndPresentOnly(t *testing.T) {
	s := NewStore(DefaultParams())
	for _, v := range []uint64{5, 1, 9, 3} {
		s.Init(id.FromUint64(v), 0.5)
	}
	s.Ref(id.FromUint64(7)) // placeholder: must not be listed
	got := s.SubjectIDs()
	want := []uint64{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("SubjectIDs() = %d entries, want %d", len(got), len(want))
	}
	for i, v := range want {
		if got[i] != id.FromUint64(v) {
			t.Fatalf("SubjectIDs()[%d] = %v, want %v", i, got[i].Short(), v)
		}
	}
}

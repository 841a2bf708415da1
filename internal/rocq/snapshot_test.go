package rocq

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/id"
)

// populatedStore returns a store with evidence about a few subjects from
// several reporters, so both its subject slots and its credibility table
// are non-trivial.
func populatedStore() *Store {
	s := NewStore(DefaultParams())
	for subj := uint64(1); subj <= 4; subj++ {
		s.Init(id.FromUint64(subj*101), 0.5)
		for rep := uint64(1); rep <= 6; rep++ {
			v := 1.0
			if rep%3 == 0 {
				v = 0
			}
			s.Report(id.FromUint64(rep*7919), id.FromUint64(subj*101), Opinion{Value: v, Quality: 0.8, Count: int64(rep)})
		}
	}
	return s
}

func populatedBook() *OpinionBook {
	b := NewOpinionBook(DefaultParams())
	for p := uint64(1); p <= 5; p++ {
		for k := uint64(0); k < p; k++ {
			b.Record(id.FromUint64(p*104729), float64((p+k)%2))
		}
	}
	return b
}

func TestStoreStateRoundTrip(t *testing.T) {
	src := populatedStore()
	st := src.ExportState()
	if len(st.Cred) != 6 || len(st.CredIDs) != 6*id.Bytes {
		t.Fatalf("exported %d credibilities in %d bytes, want 6 in %d", len(st.Cred), len(st.CredIDs), 6*id.Bytes)
	}
	dst := NewStore(DefaultParams())
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got := dst.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("export∘restore∘export differs:\n got %+v\nwant %+v", got, st)
	}
	for i := 0; i < len(st.Cred); i++ {
		var r id.ID
		copy(r[:], st.CredIDs[i*id.Bytes:])
		if got, want := dst.Credibility(r), src.Credibility(r); got != want {
			t.Fatalf("reporter %s: restored credibility %v, want %v", r.Short(), got, want)
		}
	}
	if empty := NewStore(DefaultParams()).ExportState(); empty.CredIDs != nil || empty.Cred != nil {
		t.Fatalf("empty store exported non-nil columns: %+v", empty)
	}
}

func TestBookStateRoundTrip(t *testing.T) {
	src := populatedBook()
	st := src.ExportState()
	if len(st.Sums) != 5 || len(st.Counts) != 5 || len(st.Partners) != 5*id.Bytes {
		t.Fatalf("exported columns of lengths %d/%d/%d bytes", len(st.Sums), len(st.Counts), len(st.Partners))
	}
	dst := NewOpinionBook(DefaultParams())
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got := dst.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("export∘restore∘export differs:\n got %+v\nwant %+v", got, st)
	}
	for p := uint64(1); p <= 5; p++ {
		got, _ := dst.Opinion(id.FromUint64(p * 104729))
		want, _ := src.Opinion(id.FromUint64(p * 104729))
		if got != want {
			t.Fatalf("partner %d: restored opinion %+v, want %+v", p, got, want)
		}
	}
	// Restored entries are independent: recording against one partner
	// must not move another.
	before, _ := dst.Opinion(id.FromUint64(2 * 104729))
	dst.Record(id.FromUint64(104729), 1)
	if after, _ := dst.Opinion(id.FromUint64(2 * 104729)); after != before {
		t.Fatalf("recording one partner moved another: %+v -> %+v", before, after)
	}
	if !reflect.DeepEqual(NewOpinionBook(DefaultParams()).ExportState(), BookState{}) {
		t.Fatal("empty book does not export the zero BookState")
	}
}

// swapIDs exchanges the i-th and j-th identifiers of a packed column.
func swapIDs(col []byte, i, j int) []byte {
	out := append([]byte(nil), col...)
	a, b := out[i*id.Bytes:(i+1)*id.Bytes], out[j*id.Bytes:(j+1)*id.Bytes]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
	return out
}

// dupID overwrites the j-th identifier of a packed column with the i-th.
func dupID(col []byte, i, j int) []byte {
	out := append([]byte(nil), col...)
	copy(out[j*id.Bytes:(j+1)*id.Bytes], out[i*id.Bytes:(i+1)*id.Bytes])
	return out
}

func TestStoreRestoreRejectsHostileColumns(t *testing.T) {
	good := populatedStore().ExportState()
	cases := []struct {
		name string
		edit func(st *StoreState)
		want string
	}{
		{"ragged id column", func(st *StoreState) { st.CredIDs = st.CredIDs[:len(st.CredIDs)-1] }, "not a multiple of 20"},
		{"extra id", func(st *StoreState) { st.CredIDs = append(st.CredIDs, st.CredIDs[:id.Bytes]...) }, "7 identifiers, 6 values"},
		{"missing value", func(st *StoreState) { st.Cred = st.Cred[:len(st.Cred)-1] }, "6 identifiers, 5 values"},
		{"values without ids", func(st *StoreState) { st.CredIDs = nil }, "0 identifiers, 6 values"},
		{"unsorted reporters", func(st *StoreState) { st.CredIDs = swapIDs(st.CredIDs, 1, 4) }, "not strictly ascending"},
		{"duplicate reporter", func(st *StoreState) { st.CredIDs = dupID(st.CredIDs, 2, 3) }, "credibility identifiers not strictly ascending at entry 3"},
		{"duplicate subject", func(st *StoreState) { st.Subjects[1].Subject = st.Subjects[0].Subject }, "subjects not strictly ascending at entry 1"},
		{"unsorted subjects", func(st *StoreState) {
			st.Subjects[0], st.Subjects[2] = st.Subjects[2], st.Subjects[0]
		}, "subjects not strictly ascending"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := good
			st.Subjects = append([]SubjectRecord(nil), good.Subjects...)
			st.CredIDs = append([]byte(nil), good.CredIDs...)
			st.Cred = append([]float64(nil), good.Cred...)
			tc.edit(&st)
			dst := populatedStore()
			before := dst.ExportState()
			err := dst.RestoreState(st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState error %v, want one containing %q", err, tc.want)
			}
			if after := dst.ExportState(); !reflect.DeepEqual(after, before) {
				t.Fatal("a rejected restore modified the store")
			}
		})
	}
}

func TestBookRestoreRejectsHostileColumns(t *testing.T) {
	good := populatedBook().ExportState()
	cases := []struct {
		name string
		edit func(st *BookState)
		want string
	}{
		{"ragged id column", func(st *BookState) { st.Partners = append(st.Partners, 0xab) }, "not a multiple of 20"},
		{"ids without values", func(st *BookState) { st.Sums, st.Counts = nil, nil }, "5 identifiers, 0 values"},
		{"sums longer than counts", func(st *BookState) { st.Sums = append(st.Sums, 1) }, "6 sums, 5 counts"},
		{"counts longer than sums", func(st *BookState) { st.Counts = append(st.Counts, 1) }, "5 sums, 6 counts"},
		{"unsorted partners", func(st *BookState) { st.Partners = swapIDs(st.Partners, 0, 1) }, "opinion identifiers not strictly ascending at entry 1"},
		{"duplicate partner", func(st *BookState) { st.Partners = dupID(st.Partners, 3, 4) }, "opinion identifiers not strictly ascending at entry 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := BookState{
				Partners: append([]byte(nil), good.Partners...),
				Sums:     append([]float64(nil), good.Sums...),
				Counts:   append([]int64(nil), good.Counts...),
			}
			tc.edit(&st)
			dst := populatedBook()
			before := dst.ExportState()
			err := dst.RestoreState(st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState error %v, want one containing %q", err, tc.want)
			}
			if after := dst.ExportState(); !reflect.DeepEqual(after, before) {
				t.Fatal("a rejected restore modified the book")
			}
		})
	}
}

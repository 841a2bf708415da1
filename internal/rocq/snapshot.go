package rocq

import (
	"fmt"
	"slices"

	"repro/internal/id"
)

// Checkpoint support. A Store's behaviour is fully determined by the
// evidence in its present slots, its per-reporter credibilities and the
// total report counter; non-present placeholder slots exist only to give
// Refs stable addresses and are recreated on demand after a restore, so
// they are not captured. All map-backed state is exported in ascending
// identifier order, which makes the encoding deterministic — the same
// store always serializes to the same bytes.
//
// The two large per-identifier tables, a store's credibilities and a
// peer's opinion book, are exported as columns: the identifiers packed
// back to back into one byte slice (id.Bytes bytes each, which JSON
// writes as a single base64 string) beside parallel value slices.
// Restores check the columns strictly: misaligned lengths and
// identifiers that are not strictly ascending are errors.

// SubjectRecord is the serializable evidence slot for one subject.
type SubjectRecord struct {
	Subject id.ID   `json:"subject"`
	S       float64 `json:"s"`
	W       float64 `json:"w"`
	Reports int64   `json:"reports"`
}

// StoreState is the serializable state of a score-manager store.
// CredIDs packs the reporters in ascending order; Cred[i] is the
// credibility of the i-th reporter.
type StoreState struct {
	Subjects []SubjectRecord `json:"subjects,omitempty"`
	CredIDs  []byte          `json:"credIDs,omitempty"`
	Cred     []float64       `json:"cred,omitempty"`
	Reports  int64           `json:"reports,omitempty"`
}

// BookState is the serializable first-hand experience of one peer.
// Partners packs the partner identifiers in ascending order; Sums[i]
// and Counts[i] are the rating sum and experience count for the i-th.
type BookState struct {
	Partners []byte    `json:"partners,omitempty"`
	Sums     []float64 `json:"sums,omitempty"`
	Counts   []int64   `json:"counts,omitempty"`
}

// packIDs concatenates identifiers into one column.
func packIDs(ids []id.ID) []byte {
	if len(ids) == 0 {
		return nil
	}
	out := make([]byte, 0, len(ids)*id.Bytes)
	for i := range ids {
		out = append(out, ids[i][:]...)
	}
	return out
}

// unpackIDs splits an identifier column that must hold exactly n
// strictly ascending identifiers; what names the table in errors.
func unpackIDs(col []byte, n int, what string) ([]id.ID, error) {
	if len(col)%id.Bytes != 0 {
		return nil, fmt.Errorf("rocq: %s identifier column is %d bytes, not a multiple of %d", what, len(col), id.Bytes)
	}
	if got := len(col) / id.Bytes; got != n {
		return nil, fmt.Errorf("rocq: %s columns disagree: %d identifiers, %d values", what, got, n)
	}
	ids := make([]id.ID, n)
	for i := range ids {
		copy(ids[i][:], col[i*id.Bytes:])
		if i > 0 && ids[i-1].Cmp(ids[i]) >= 0 {
			return nil, fmt.Errorf("rocq: %s identifiers not strictly ascending at entry %d (%s after %s)", what, i, ids[i].Short(), ids[i-1].Short())
		}
	}
	return ids, nil
}

// ExportState captures the store's evidence, credibilities and report
// counter in deterministic order.
func (s *Store) ExportState() StoreState {
	out := StoreState{Reports: s.reports}
	for i := range s.meta {
		if !s.meta[i].present {
			continue
		}
		out.Subjects = append(out.Subjects, SubjectRecord{Subject: s.meta[i].subject, S: s.s[i], W: s.w[i], Reports: s.meta[i].reports})
	}
	slices.SortFunc(out.Subjects, func(a, b SubjectRecord) int { return a.Subject.Cmp(b.Subject) })
	reporters := id.SortedKeys(s.cred)
	out.CredIDs = packIDs(reporters)
	if len(reporters) > 0 {
		out.Cred = make([]float64, len(reporters))
		for i, r := range reporters {
			out.Cred[i] = s.cred[r]
		}
	}
	return out
}

// RestoreState overwrites the store's evidence, credibilities and report
// counter with checkpointed values. Existing slots — including non-present
// placeholders — are discarded; callers re-resolve any Refs they held.
// Duplicate or unordered subjects or reporters and misaligned credibility
// columns are errors, and leave the store unchanged.
func (s *Store) RestoreState(st StoreState) error {
	for i := 1; i < len(st.Subjects); i++ {
		if st.Subjects[i-1].Subject.Cmp(st.Subjects[i].Subject) >= 0 {
			return fmt.Errorf("rocq: subjects not strictly ascending at entry %d (%s after %s)", i, st.Subjects[i].Subject.Short(), st.Subjects[i-1].Subject.Short())
		}
	}
	reporters, err := unpackIDs(st.CredIDs, len(st.Cred), "credibility")
	if err != nil {
		return err
	}
	s.index = make(map[id.ID]int32, len(st.Subjects))
	s.s = make([]float64, 0, len(st.Subjects))
	s.w = make([]float64, 0, len(st.Subjects))
	s.meta = make([]subjectMeta, 0, len(st.Subjects))
	s.free = nil
	s.cred = make(map[id.ID]float64, len(reporters))
	s.known = len(st.Subjects)
	s.reports = st.Reports
	for _, rec := range st.Subjects {
		s.index[rec.Subject] = int32(len(s.meta))
		s.s = append(s.s, rec.S)
		s.w = append(s.w, rec.W)
		s.meta = append(s.meta, subjectMeta{subject: rec.Subject, reports: rec.Reports, present: true})
	}
	for i, r := range reporters {
		s.cred[r] = st.Cred[i]
	}
	return nil
}

// ExportState captures the opinion book's experience in ascending partner
// order. An empty book exports the zero BookState.
func (b *OpinionBook) ExportState() BookState {
	partners := id.SortedKeys(b.partners)
	if len(partners) == 0 {
		return BookState{}
	}
	out := BookState{
		Partners: packIDs(partners),
		Sums:     make([]float64, len(partners)),
		Counts:   make([]int64, len(partners)),
	}
	for i, p := range partners {
		st := b.partners[p]
		out.Sums[i], out.Counts[i] = st.sum, st.count
	}
	return out
}

// RestoreState overwrites the opinion book's experience with checkpointed
// values. Misaligned columns and duplicate or unordered partners are
// errors, and leave the book unchanged.
func (b *OpinionBook) RestoreState(st BookState) error {
	if len(st.Counts) != len(st.Sums) {
		return fmt.Errorf("rocq: opinion columns disagree: %d sums, %d counts", len(st.Sums), len(st.Counts))
	}
	partners, err := unpackIDs(st.Partners, len(st.Sums), "opinion")
	if err != nil {
		return err
	}
	b.partners = make(map[id.ID]*opinionState, len(partners))
	states := make([]opinionState, len(partners))
	for i, p := range partners {
		states[i] = opinionState{sum: st.Sums[i], count: st.Counts[i]}
		b.partners[p] = &states[i]
	}
	return nil
}

// Package rocq implements the ROCQ (Reputation, Opinion, Credibility,
// Quality) reputation management scheme of Garg, Battiti et al., which the
// reputation-lending paper builds on: "We use the ROCQ reputation
// management system to compute reputation values for peers."
//
// The scheme has two halves:
//
//   - Reporter side: after every transaction a peer updates its local
//     *opinion* of its partner — the running average of its direct
//     experiences — together with a *quality* value expressing how
//     confident that opinion is (more interactions and more consistent
//     outcomes give higher quality). The peer reports (opinion, quality)
//     to the partner's score managers. OpinionBook implements this half.
//
//   - Score-manager side: each of a peer's score managers folds incoming
//     reports into the peer's stored reputation, weighting every report by
//     the *credibility* the manager holds for the reporter times the
//     report's quality. Credibility rises when a reporter agrees with the
//     aggregate and falls when it deviates, which is what defangs the
//     paper's uncooperative peers that "always send 0 for their partners".
//     Store implements this half.
//
// Reputation values live in [0,1] and admit the additive adjustments the
// lending protocol needs (Credit/Debit): a debit lowers the stored
// aggregate and subsequent positive feedback pulls it back up, matching
// the paper's "the introducer can recoup its reputation in time by
// behaving cooperatively with other peers".
package rocq

import (
	"fmt"
	"sort"

	"repro/internal/id"
)

// Params are the tunables of the ROCQ update rules. The defaults are
// chosen so that the scheme reproduces the regime reported for ROCQ in the
// paper's §4.1: with a cooperative majority, >95% of serve/deny decisions
// are correct.
type Params struct {
	// PriorWeight anchors the credibility-weighted average at the paper's
	// prior of 0 ("each new entrant is assumed to start with a reputation
	// value of 0"): reputation = S / (W + PriorWeight), where S and W are
	// the weighted sum and total weight of received opinions. A larger
	// prior weight makes newcomers climb more slowly.
	PriorWeight float64
	// WindowWeight caps the total accumulated weight; beyond it, old
	// evidence is scaled down exponentially. This keeps reputations
	// responsive ("recoup in time by behaving cooperatively") instead of
	// freezing under the mass of ancient reports.
	WindowWeight float64
	// CredInit is the credibility assigned to a reporter the first time a
	// score manager hears from it.
	CredInit float64
	// CredGain is the learning rate of the credibility update.
	CredGain float64
	// CredMin floors credibility so a reporter can always climb back.
	CredMin float64
	// QualityHalf is the interaction count at which opinion quality
	// reaches one half of its consistency-limited maximum.
	QualityHalf float64
}

// DefaultParams returns the parameter set used throughout the reproduction.
// CredInit starts high: in ROCQ's honest-majority regime the aggregate is
// anchored by the majority, so liars lose credibility from any starting
// point, while a high start lets honest first reports about newcomers count
// — newcomers must climb within a handful of transactions, as in the
// paper's Figure 2 dynamics.
func DefaultParams() Params {
	return Params{
		PriorWeight:  0.5,
		WindowWeight: 100,
		CredInit:     0.85,
		CredGain:     0.05,
		CredMin:      0.05,
		QualityHalf:  0.5,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.PriorWeight <= 0:
		return fmt.Errorf("rocq: PriorWeight %v must be positive", p.PriorWeight)
	case p.WindowWeight <= p.PriorWeight:
		return fmt.Errorf("rocq: WindowWeight %v must exceed PriorWeight %v", p.WindowWeight, p.PriorWeight)
	case p.CredInit <= 0 || p.CredInit > 1:
		return fmt.Errorf("rocq: CredInit %v out of (0,1]", p.CredInit)
	case p.CredGain <= 0 || p.CredGain > 1:
		return fmt.Errorf("rocq: CredGain %v out of (0,1]", p.CredGain)
	case p.CredMin < 0 || p.CredMin >= 1:
		return fmt.Errorf("rocq: CredMin %v out of [0,1)", p.CredMin)
	case p.QualityHalf <= 0:
		return fmt.Errorf("rocq: QualityHalf %v must be positive", p.QualityHalf)
	}
	return nil
}

// clamp01 restricts v to [0,1].
func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

// ---------------------------------------------------------------------------
// Reporter side: opinions with quality.

// Opinion is a peer's local view of one partner.
type Opinion struct {
	// Value is the running average of experience ratings in [0,1].
	Value float64
	// Quality is the confidence in Value, in [0,1].
	Quality float64
	// Count is the number of direct experiences behind the opinion.
	Count int64
}

// OpinionBook tracks a peer's first-hand experience with every partner it
// has transacted with.
type OpinionBook struct {
	//replend:allow snapshotfields fixed at DefaultParams for every peer (restorePeer rebuilds books with them); params carry no run state
	params   Params
	partners map[id.ID]*opinionState
}

type opinionState struct {
	sum   float64
	count int64
}

// NewOpinionBook returns an empty book using the given parameters.
func NewOpinionBook(p Params) *OpinionBook {
	if err := p.Validate(); err != nil {
		//replend:allow nopanic construction-time misuse guard: params are validated by config before any run starts
		panic(err)
	}
	return &OpinionBook{params: p, partners: make(map[id.ID]*opinionState)}
}

// Record folds one experience rating (in [0,1]; the paper's model uses the
// binary values 1 = satisfied, 0 = not satisfied) into the opinion of the
// given partner and returns the updated opinion.
func (b *OpinionBook) Record(partner id.ID, rating float64) Opinion {
	if rating < 0 || rating > 1 {
		//replend:allow nopanic caller-contract invariant: behaviour styles emit only 0 or 1 ratings
		panic(fmt.Sprintf("rocq: rating %v out of [0,1]", rating))
	}
	st := b.partners[partner]
	if st == nil {
		st = &opinionState{}
		b.partners[partner] = st
	}
	st.sum += rating
	st.count++
	return b.opinion(st)
}

// Opinion returns the current opinion of a partner and whether any
// experience with it exists.
func (b *OpinionBook) Opinion(partner id.ID) (Opinion, bool) {
	st, ok := b.partners[partner]
	if !ok {
		return Opinion{}, false
	}
	return b.opinion(st), true
}

// Partners returns the number of distinct partners with recorded
// experience.
func (b *OpinionBook) Partners() int { return len(b.partners) }

func (b *OpinionBook) opinion(st *opinionState) Opinion {
	mean := st.sum / float64(st.count)
	// Quality grows with the number of experiences (saturation term) and
	// shrinks when the experiences are inconsistent: a half-good,
	// half-bad history gives a much less useful opinion than a unanimous
	// one. For ratings in [0,1] the consistency term 1−2·min(m,1−m) is 1
	// for unanimous histories and 0 at m=0.5.
	saturation := float64(st.count) / (float64(st.count) + b.params.QualityHalf)
	consistency := 1 - 2*minf(mean, 1-mean)
	quality := saturation * (0.25 + 0.75*consistency)
	return Opinion{Value: mean, Quality: clamp01(quality), Count: st.count}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Score-manager side: credibility-weighted aggregation.

// Store holds the reputation state one score-manager node keeps for the
// subjects it is responsible for, together with its private credibility
// estimates of reporters. A Store is not safe for concurrent use.
//
// Memory layout: subject slots live in a struct-of-arrays arena — the
// hot weighted sums and weights (read on every Query) in two flat
// float64 slices, the cold bookkeeping in a parallel meta slice — and
// the id index maps a subject to its slot index. Forget returns slots
// to a LIFO free-list, so churn recycles them instead of growing the
// arena without bound. Arena indices never feed output bytes:
// SubjectIDs and ExportState sort by identifier, exactly as the old
// map-backed layout did.
type Store struct {
	//replend:allow snapshotfields fixed at DefaultParams for every store (world.Restore rebuilds them so); params carry no run state
	params Params
	index  map[id.ID]int32
	s      []float64 // weighted opinion sums (plus lending adjustments), by slot
	w      []float64 // total opinion weights, by slot
	meta   []subjectMeta
	free   []int32 // LIFO free-list of forgotten slots
	cred   map[id.ID]float64

	known   int // subjects with evidence (present slots)
	reports int64
}

// subjectMeta is the cold half of one subject slot: reputation reads as
// s[i] / (w[i] + PriorWeight), the weighted average of received opinions
// anchored at the prior 0. Lending credits and debits shift s[i] by
// amount·(w[i] + PriorWeight), which moves the read value by exactly
// ±amount and then fades as further evidence accumulates — the paper's
// "recoup … by behaving cooperatively".
// A slot may exist before any evidence arrives (Ref pre-resolves slots so
// hot query paths are array reads instead of map lookups); present
// distinguishes real evidence from such placeholders, and is what Query,
// Known and Subjects report. A slot index stays bound to its subject
// until Forget recycles it, so a Ref stays valid as long as its subject
// is not forgotten.
type subjectMeta struct {
	subject id.ID // the subject this slot is about
	reports int64
	present bool // the store has actually heard about this subject
}

// NewStore returns an empty score-manager store.
func NewStore(p Params) *Store {
	if err := p.Validate(); err != nil {
		//replend:allow nopanic construction-time misuse guard: params are validated by config before any run starts
		panic(err)
	}
	return &Store{
		params: p,
		index:  make(map[id.ID]int32),
		cred:   make(map[id.ID]float64),
	}
}

// Subjects returns the number of subjects with stored reputation.
func (s *Store) Subjects() int { return s.known }

// Reports returns the total number of reports folded in.
func (s *Store) Reports() int64 { return s.reports }

// slot returns the subject's slot index, creating an empty (non-present)
// placeholder — from the free-list if churn released one — if the store
// has no slot for it yet.
func (s *Store) slot(subject id.ID) int32 {
	if idx, ok := s.index[subject]; ok {
		return idx
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
		s.s[idx], s.w[idx] = 0, 0
		s.meta[idx] = subjectMeta{subject: subject}
	} else {
		idx = int32(len(s.meta))
		s.s = append(s.s, 0)
		s.w = append(s.w, 0)
		s.meta = append(s.meta, subjectMeta{subject: subject})
	}
	s.index[subject] = idx
	return idx
}

// materialize marks a slot as holding real evidence.
func (s *Store) materialize(idx int32) {
	if !s.meta[idx].present {
		s.meta[idx].present = true
		s.known++
	}
}

// initWeight is the evidence weight behind an explicitly initialised
// reputation (founders, baseline admissions): solid but not immovable.
const initWeight = 20

// Init creates (or resets) a subject's stored reputation to the given
// value, backed by a solid body of synthetic evidence. The simulation uses
// it for the founding community members, which the paper assumes "are
// honest and cooperative" from the start.
func (s *Store) Init(subject id.ID, rep float64) {
	idx := s.slot(subject)
	s.materialize(idx)
	s.meta[idx] = subjectMeta{subject: subject, present: true}
	s.w[idx] = initWeight
	s.s[idx] = clamp01(rep) * (initWeight + s.params.PriorWeight)
}

// Known reports whether the store holds state for the subject.
func (s *Store) Known(subject id.ID) bool {
	idx, ok := s.index[subject]
	return ok && s.meta[idx].present
}

// value reads the reputation of one subject slot.
func (s *Store) value(idx int32) float64 {
	return clamp01(s.s[idx] / (s.w[idx] + s.params.PriorWeight))
}

// Query returns the stored reputation of the subject, and false if the
// store has never heard of it (a fresh score manager after churn, or a
// peer that was never admitted).
func (s *Store) Query(subject id.ID) (float64, bool) {
	idx, ok := s.index[subject]
	if !ok || !s.meta[idx].present {
		return 0, false
	}
	return s.value(idx), true
}

// Ref is a stable handle to one subject's slot in this store: Query
// through it is two array reads, no hashing. The handle stays valid as
// long as its subject is not forgotten (slots are reset in place, and a
// slot index stays bound to its subject until Forget recycles it) and
// observes evidence that arrives after it was taken.
type Ref struct {
	store *Store
	idx   int32
}

// Ref resolves a handle for the subject, pre-creating an empty slot that
// Query, Known and Subjects ignore until evidence arrives.
func (s *Store) Ref(subject id.ID) Ref {
	return Ref{store: s, idx: s.slot(subject)}
}

// Forget drops the subject's slot entirely and recycles its index —
// used when the subject's node has left the network for good, so the
// store need not retain (or keep a placeholder for) evidence nobody can
// query again. Callers must ensure no Ref for the subject outlives the
// forget: the slot index may be rebound to another subject.
func (s *Store) Forget(subject id.ID) {
	idx, ok := s.index[subject]
	if !ok {
		return
	}
	if s.meta[idx].present {
		s.known--
	}
	delete(s.index, subject)
	s.s[idx], s.w[idx] = 0, 0
	s.meta[idx] = subjectMeta{}
	s.free = append(s.free, idx)
}

// Query is Store.Query through the pre-resolved handle.
func (r Ref) Query() (float64, bool) {
	if !r.store.meta[r.idx].present {
		return 0, false
	}
	return r.store.value(r.idx), true
}

// Credibility returns the store's current credibility for a reporter.
func (s *Store) Credibility(reporter id.ID) float64 {
	c, ok := s.cred[reporter]
	if !ok {
		return s.params.CredInit
	}
	return c
}

// Report folds one (opinion, quality) report about subject from reporter
// into the stored evidence with weight credibility·quality, and updates
// the reporter's credibility according to how well the report agreed with
// the resulting aggregate. A report about an unknown subject creates the
// subject at the zero prior first — an unintroduced peer starts at 0.
func (s *Store) Report(reporter, subject id.ID, op Opinion) {
	s.reportTo(s.slot(subject), reporter, op)
}

// Report folds the report into the handle's subject, sparing the
// subject-map lookup on the per-transaction feedback path.
func (r Ref) Report(reporter id.ID, op Opinion) {
	r.store.reportTo(r.idx, reporter, op)
}

func (s *Store) reportTo(idx int32, reporter id.ID, op Opinion) {
	if op.Value < 0 || op.Value > 1 || op.Quality < 0 || op.Quality > 1 {
		//replend:allow nopanic caller-contract invariant: OpinionBook clamps opinions to [0,1] before they reach a store
		panic(fmt.Sprintf("rocq: report out of range: %+v", op))
	}
	s.reports++
	cred := s.Credibility(reporter)
	s.materialize(idx)
	w := cred * op.Quality
	s.s[idx] += w * op.Value
	s.w[idx] += w
	// Sliding window: beyond WindowWeight, scale old evidence down so the
	// aggregate stays responsive to recent behaviour.
	if s.w[idx] > s.params.WindowWeight {
		f := s.params.WindowWeight / s.w[idx]
		s.s[idx] *= f
		s.w[idx] = s.params.WindowWeight
	}
	s.meta[idx].reports++
	s.updateCred(reporter, cred, op.Value, s.value(idx))
}

// updateCred moves the reporter's credibility toward 1−|opinion−aggregate|:
// reporters that agree with the aggregate become more credible, reporters
// that consistently deviate (for instance the paper's uncooperative peers,
// which always report 0) lose influence.
func (s *Store) updateCred(reporter id.ID, cred, opinion, aggregate float64) {
	d := opinion - aggregate
	if d < 0 {
		d = -d
	}
	target := 1 - d
	c := cred + s.params.CredGain*(target-cred)
	if c < s.params.CredMin {
		c = s.params.CredMin
	}
	s.cred[reporter] = clamp01(c)
}

// adjust shifts the subject's read value by exactly delta (before
// clamping) by moving the weighted sum, creating the subject at the zero
// prior first if unknown.
func (s *Store) adjust(subject id.ID, delta float64) {
	idx := s.slot(subject)
	s.materialize(idx)
	s.s[idx] += delta * (s.w[idx] + s.params.PriorWeight)
	// Keep the evidence sum inside the representable [0,1] value range so
	// clamped adjustments do not bank hidden credit or debt.
	if max := s.w[idx] + s.params.PriorWeight; s.s[idx] > max {
		s.s[idx] = max
	}
	if s.s[idx] < 0 {
		s.s[idx] = 0
	}
}

// Credit raises the subject's stored reputation by amount (clamped to 1),
// creating the subject at reputation 0 first if unknown — this is exactly
// the score-manager action for the lending protocol's CREDIT message, and
// the paper's bootstrap rule "each new entrant is assumed to start with a
// reputation value of 0".
func (s *Store) Credit(subject id.ID, amount float64) {
	if amount < 0 {
		//replend:allow nopanic caller-contract invariant: lending computes credit amounts from non-negative stakes
		panic("rocq: negative credit")
	}
	s.adjust(subject, amount)
}

// Debit lowers the subject's stored reputation by amount, clamped at 0
// ("subject to a minimum of 0"), creating the subject first if unknown.
func (s *Store) Debit(subject id.ID, amount float64) {
	if amount < 0 {
		//replend:allow nopanic caller-contract invariant: lending computes debit amounts from non-negative stakes
		panic("rocq: negative debit")
	}
	s.adjust(subject, -amount)
}

// Zero forces the subject's stored reputation to 0; the punishment for a
// peer caught soliciting duplicate introductions.
func (s *Store) Zero(subject id.ID) {
	idx := s.slot(subject)
	s.materialize(idx)
	s.s[idx] = 0
}

// ---------------------------------------------------------------------------
// Record migration (churn handoff).

// Snapshot is the portable form of one subject's stored evidence — what a
// score manager hands to the replica taking over its ownership arc when
// membership changes. It carries the raw weighted evidence, not the read
// value, so adoption preserves the window dynamics exactly.
type Snapshot struct {
	S       float64 // weighted opinion sum
	W       float64 // total opinion weight
	Reports int64   // reports folded into this replica
	Prior   float64 // the source store's prior weight (for Value)
}

// Value reads the reputation the snapshot encodes.
func (sn Snapshot) Value() float64 {
	return clamp01(sn.S / (sn.W + sn.Prior))
}

// Export captures the subject's stored evidence, and false when the store
// holds none.
func (s *Store) Export(subject id.ID) (Snapshot, bool) {
	idx, ok := s.index[subject]
	if !ok || !s.meta[idx].present {
		return Snapshot{}, false
	}
	return Snapshot{S: s.s[idx], W: s.w[idx], Reports: s.meta[idx].reports, Prior: s.params.PriorWeight}, true
}

// Adopt installs a migrated snapshot as the subject's stored evidence,
// replacing whatever the store held. The slot is reset in place, so Refs
// taken before the adoption keep observing the subject.
func (s *Store) Adopt(subject id.ID, sn Snapshot) {
	idx := s.slot(subject)
	s.materialize(idx)
	s.s[idx], s.w[idx], s.meta[idx].reports = sn.S, sn.W, sn.Reports
}

// SubjectIDs returns the subjects with stored evidence in ascending
// identifier order — the deterministic iteration the churn handoff needs
// when a node's store is enumerated at departure. The arena makes this a
// linear slice scan instead of a map iteration.
func (s *Store) SubjectIDs() []id.ID {
	out := make([]id.ID, 0, s.known)
	for i := range s.meta {
		if s.meta[i].present {
			out = append(out, s.meta[i].subject)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ArenaSlots returns (live, capacity) of the store's subject arena: how
// many subjects hold an index and how many slots exist in total. A
// capacity bounded near the subject high-water mark is the free-list
// working under churn.
func (s *Store) ArenaSlots() (live, capacity int) {
	return len(s.index), len(s.meta)
}

// ---------------------------------------------------------------------------
// Cross-manager aggregation.

// QuerySet combines the answers of a peer's score managers: the mean of
// the stored values over the managers that know the subject. Managers
// without state (fresh after churn) abstain. The boolean is false when no
// manager knows the subject, which callers must treat as reputation 0 —
// an unintroduced peer.
func QuerySet(stores []*Store, subject id.ID) (float64, bool) {
	sum, n := 0.0, 0
	for _, st := range stores {
		if v, ok := st.Query(subject); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// QueryRefs is QuerySet over pre-resolved handles — the form the
// simulator's per-tick query path uses, since it avoids rehashing the
// subject once per manager on every read.
func QueryRefs(refs []Ref) (float64, bool) {
	sum, n := 0.0, 0
	for _, r := range refs {
		if v, ok := r.Query(); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

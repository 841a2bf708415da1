package world

// Checkpointable worlds. Snapshot captures every piece of state a run's
// future outputs can observe — peers and their opinion books, the
// overlay membership, score-manager stores, the lending protocol, the
// topology selector, every random stream, the pending event queue and
// the sampled metrics — in a versioned, deterministic encoding: the same
// world always serializes to the same bytes, and a restored world
// continues byte-identically to the uninterrupted run.
//
// Three disciplines make that hold:
//
//   - Map-backed state is flattened into sorted slices (or captured in
//     an explicitly recorded order where the order itself is state: the
//     admission list, which also fixes the summation order of the
//     sampled cooperative mean, and the arena ordinal table), so
//     encoding never iterates a Go map.
//
//   - Pending events carry typed payloads (see the *Body constructors
//     in world.go/churn.go/delta.go): a checkpoint stores (name, seq,
//     payload) and the restore rebuilds the exact closure, re-inserted
//     under its original sequence number so intra-tick FIFO order is
//     preserved.
//
//   - Caches are rebuilt, never captured. The ring structure, signature
//     memos and store placeholder slots are pure functions of captured
//     state; the placement cache and its owner index start empty after
//     a restore and refill on demand, since no output depends on their
//     layout.
//
// Snapshots are refused while transport faults are active: delayed
// deliveries live in the queue as closures over in-flight messages,
// which no payload can describe.

import (
	"encoding/json"
	"fmt"

	"repro/internal/arena"
	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/id"
	"repro/internal/lending"
	"repro/internal/metrics"
	"repro/internal/peer"
	"repro/internal/rocq"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// SnapshotVersion is the world snapshot format version. Incompatible
// changes to the Snapshot document bump it; Restore rejects any other
// version. Version 2 added the workload layer: two more random streams,
// the replay cursor, and per-peer cohort/plan state. Version 3 added the
// telemetry-era observability state: the duration histograms inside
// Metrics and the in-flight arrival ticks behind the admission-latency
// histogram. Version 4 added the arena memory layout: per-peer state
// lives in ordinal-addressed slots, and the ordinal table plus its
// free-list are captured verbatim so a restored world recycles slots in
// the same order the uncut run would. Version 5 made the two largest
// tables columnar: a store's credibilities and a peer's opinion book
// carry their identifiers packed into one base64 string beside parallel
// value arrays, instead of one object per entry. Version 6 dropped the
// placement cache, its owner index and the incremental sampling state
// (running sum, dirty queue, cached per-peer values): the cooperative
// mean is one walk over the admission list, so none of them is state.
const SnapshotVersion = 6

// Event payload types. Each pending-event kind the world schedules has
// one; the payload pins everything the matching *Body constructor needs.
type (
	// genPayload tags the self-rescheduling Poisson chains ("arrival",
	// "departure") with the process generation they were armed under.
	genPayload struct {
		Gen int64 `json:"gen"`
	}
	// peerPayload tags events bound to one peer ("stake-timeout",
	// "rejoin").
	peerPayload struct {
		Peer id.ID `json:"peer"`
	}
	// sessionPayload tags events guarded by an admission time
	// ("session-end", "stake-expiry", "lease-expiry").
	sessionPayload struct {
		Peer   id.ID    `json:"peer"`
		Joined sim.Tick `json:"joined"`
	}
	// deltaPayload tags scheduled parameter changes; the event name is
	// caller-chosen, so the payload kind identifies deltas.
	deltaPayload struct {
		Delta Delta `json:"delta"`
	}
	// replayPayload tags the pending event of the trace-replay chain
	// ("wk-replay") with the index of the trace event it re-drives.
	replayPayload struct {
		Idx int64 `json:"idx"`
	}
)

// EventRecord is one pending event: its firing tick, diagnostic name,
// original sequence number (intra-tick FIFO position) and typed payload.
type EventRecord struct {
	At   sim.Tick        `json:"at"`
	Name string          `json:"name"`
	Seq  int64           `json:"seq"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

// PeerRecord is one peer object — live or departed-but-rejoinable.
type PeerRecord struct {
	ID          id.ID          `json:"id"`
	Class       peer.Class     `json:"class"`
	Style       peer.Style     `json:"style"`
	JoinedAt    sim.Tick       `json:"joinedAt"`
	Completed   int            `json:"completed"`
	Audited     bool           `json:"audited,omitempty"`
	Introducer  id.ID          `json:"introducer"`
	Flagged     bool           `json:"flagged,omitempty"`
	DefectAt    sim.Tick       `json:"defectAt,omitempty"`
	Cohort      string         `json:"cohort,omitempty"`
	PlanOrdinal int64          `json:"planOrdinal,omitempty"`
	PlanSeq     int64          `json:"planSeq,omitempty"`
	Plan        *workload.Plan `json:"plan,omitempty"`
	Opinions    rocq.BookState `json:"opinions,omitzero"`
}

// DepartedRecord is one offline peer eligible to rejoin, with the
// signing identity it left under (neither field set when it departed
// without one).
type DepartedRecord struct {
	Peer   PeerRecord             `json:"peer"`
	Null   bool                   `json:"null,omitempty"`
	Signer *transport.SignerState `json:"signer,omitempty"`
}

// StoreRecord is the reputation store hosted at one overlay node.
type StoreRecord struct {
	Node  id.ID           `json:"node"`
	State rocq.StoreState `json:"state"`
}

// RandState is the position of every random stream the world owns
// directly (the topology selector's stream travels inside its own
// state; signer streams inside the lending state).
type RandState struct {
	Arrival   [4]uint64 `json:"arrival"`
	Workload  [4]uint64 `json:"workload"`
	Behave    [4]uint64 `json:"behave"`
	Key       [4]uint64 `json:"key"`
	Churn     [4]uint64 `json:"churn"`
	WkArrival [4]uint64 `json:"wkArrival"`
	Cohort    [4]uint64 `json:"cohort"`
}

// Snapshot is the versioned, serializable state of a started world.
type Snapshot struct {
	Version int           `json:"version"`
	Config  config.Config `json:"config"`
	Policy  string        `json:"policy"`

	Now     sim.Tick      `json:"now"`
	NextSeq int64         `json:"nextSeq"`
	Events  []EventRecord `json:"events,omitempty"`

	Rand RandState `json:"rand"`

	Seq          int64   `json:"seq"`
	ArrClock     float64 `json:"arrClock"`
	ArrivalGen   int64   `json:"arrivalGen"`
	DepartClk    float64 `json:"departClk"`
	DepartGen    int64   `json:"departGen"`
	WkReplayNext int64   `json:"wkReplayNext,omitempty"`

	Peers    []PeerRecord     `json:"peers,omitempty"`    // every attached node, ascending ID
	Admitted []id.ID          `json:"admitted,omitempty"` // members in admission order
	Departed []DepartedRecord `json:"departed,omitempty"` // ascending ID
	Wiped    []id.ID          `json:"wiped,omitempty"`    // ascending ID

	Stores   []StoreRecord  `json:"stores,omitempty"` // ascending node ID
	Topology topology.State `json:"topology"`
	Lending  lending.State  `json:"lending"`

	Crashed  []id.ID         `json:"crashed,omitempty"` // ascending ID
	BusStats transport.Stats `json:"busStats"`

	// Arrivals carries the in-flight arrival ticks (peers inside the
	// waiting period), so a resumed run observes the same admission
	// latencies the uncut run would.
	Arrivals []ArrivalRecord `json:"arrivals,omitempty"` // ascending peer ID

	// Ordinals and OrdFree carry the peer arena verbatim — the assigned
	// slot of every identifier in ascending ordinal order, and the
	// free-list oldest-first — so snapshot∘restore∘snapshot is idempotent
	// and a restored world hands out the same slots the uncut run would.
	Ordinals []OrdinalRecord `json:"ordinals,omitempty"`
	OrdFree  []int32         `json:"ordFree,omitempty"`

	Metrics Metrics `json:"metrics"`
}

// ArrivalRecord is one in-flight arrival: the tick the peer asked for an
// introduction.
type ArrivalRecord struct {
	Peer id.ID    `json:"peer"`
	At   sim.Tick `json:"at"`
}

// OrdinalRecord is one assigned slot of the world's peer arena.
type OrdinalRecord struct {
	Peer id.ID `json:"peer"`
	Ord  int32 `json:"ord"`
}

// Snapshot captures the world's full state. The world must be started,
// healthy, and free of transport fault injection; the world itself is
// not modified and may keep running (the snapshot shares nothing with
// it).
func (w *World) Snapshot() (*Snapshot, error) {
	defer w.spans.Start("snapshot-encode")()
	switch {
	case !w.started:
		return nil, fmt.Errorf("world: cannot snapshot before Start")
	case w.err != nil:
		return nil, fmt.Errorf("world: cannot snapshot a failed world: %w", w.err)
	case w.bus.FaultsActive():
		return nil, fmt.Errorf("world: cannot snapshot with transport faults active (in-flight deliveries are not serializable)")
	}
	s := &Snapshot{
		Version: SnapshotVersion,
		Config:  w.cfg,
		Policy:  w.policy.Name(),
		Now:     w.engine.Now(),
		NextSeq: w.engine.NextSeq(),
		Rand: RandState{
			Arrival:   w.arrivalRand.State(),
			Workload:  w.workloadRand.State(),
			Behave:    w.behaveRand.State(),
			Key:       w.keyRand.State(),
			Churn:     w.churnProc.SrcState(),
			WkArrival: w.wkArrivalRand.State(),
			Cohort:    w.cohortRand.State(),
		},
		Seq:          w.seq,
		ArrClock:     w.arrClock,
		ArrivalGen:   w.arrivalGen,
		DepartClk:    w.departClk,
		DepartGen:    w.departGen,
		WkReplayNext: w.wkReplayNext,
		Crashed:      w.bus.CrashedAddrs(),
		BusStats:     w.bus.Stats(),
		Metrics:      w.m,
	}
	// The Cohorts slice would otherwise share its backing array with the
	// live world, letting later increments mutate the snapshot.
	s.Metrics.Cohorts = append([]CohortStats(nil), w.m.Cohorts...)
	s.Metrics.CoopCount = copySeries(w.m.CoopCount)
	s.Metrics.UncoopCount = copySeries(w.m.UncoopCount)
	s.Metrics.CoopReputation = copySeries(w.m.CoopReputation)
	s.Metrics.AdmissionLatency = copyHistogram(w.m.AdmissionLatency)
	s.Metrics.AuditWait = copyHistogram(w.m.AuditWait)
	s.Metrics.SessionLength = copyHistogram(w.m.SessionLength)
	for _, pid := range w.slotIDsSorted(func(sl *worldSlot) bool { return sl.inFlight }) {
		ord, _ := w.ords.Get(pid)
		s.Arrivals = append(s.Arrivals, ArrivalRecord{Peer: pid, At: w.slots[ord].arrivedAt})
	}
	for ord := 0; ord < len(w.slots); ord++ {
		if pid, ok := w.ords.ID(arena.Ordinal(ord)); ok {
			s.Ordinals = append(s.Ordinals, OrdinalRecord{Peer: pid, Ord: int32(ord)})
		}
	}
	for _, f := range w.ords.FreeList() {
		s.OrdFree = append(s.OrdFree, int32(f))
	}

	for _, ev := range w.engine.Pendings() {
		rec, err := encodeEvent(ev)
		if err != nil {
			return nil, err
		}
		s.Events = append(s.Events, rec)
	}

	for _, pid := range w.slotIDsSorted(func(sl *worldSlot) bool { return sl.pr != nil }) {
		s.Peers = append(s.Peers, peerRecord(w.livePeer(pid)))
	}
	for _, p := range w.admittedPeers {
		s.Admitted = append(s.Admitted, p.ID)
	}
	for _, pid := range w.slotIDsSorted(func(sl *worldSlot) bool { return sl.departed != nil }) {
		ord, _ := w.ords.Get(pid)
		d := w.slots[ord].departed
		rec := DepartedRecord{Peer: peerRecord(d.peer)}
		switch ident := d.ident.(type) {
		case nil:
		case *transport.Signer:
			st := ident.Export()
			rec.Signer = &st
		case transport.NullIdentity:
			rec.Null = true
		default:
			return nil, fmt.Errorf("world: cannot checkpoint departed identity type %T for %s", ident, pid.Short())
		}
		s.Departed = append(s.Departed, rec)
	}
	s.Wiped = w.slotIDsSorted(func(sl *worldSlot) bool { return sl.wiped })
	if len(s.Wiped) == 0 {
		s.Wiped = nil
	}
	for _, node := range w.slotIDsSorted(func(sl *worldSlot) bool { return sl.store != nil }) {
		st, _ := w.storeAt(node)
		s.Stores = append(s.Stores, StoreRecord{Node: node, State: st.ExportState()})
	}

	topo, err := topology.ExportState(w.topo)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	s.Topology = topo
	lend, err := w.proto.ExportState()
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	s.Lending = lend

	return s, nil
}

// Encode serializes the snapshot into a sealed checkpoint file: a
// deterministic JSON body inside a digest-verified envelope.
func (s *Snapshot) Encode() ([]byte, error) {
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("world: cannot encode snapshot version %d (want %d)", s.Version, SnapshotVersion)
	}
	return checkpoint.Seal(checkpoint.KindWorld, s)
}

// DecodeSnapshot parses a sealed world checkpoint, verifying the
// envelope digest, the kind tag and the format version. Corrupt,
// truncated or version-skewed inputs yield errors, never panics.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	kind, body, err := checkpoint.Open(data)
	if err != nil {
		return nil, err
	}
	if kind != checkpoint.KindWorld {
		return nil, fmt.Errorf("world: checkpoint kind %q is not a world snapshot", kind)
	}
	return DecodeSnapshotBody(body)
}

// DecodeSnapshotBody parses the body of an already-opened world
// checkpoint envelope.
func DecodeSnapshotBody(body []byte) (*Snapshot, error) {
	var s Snapshot
	if err := checkpoint.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("world: snapshot version %d not supported (want %d)", s.Version, SnapshotVersion)
	}
	return &s, nil
}

// Restore reconstructs a running world from a snapshot. The result is
// started and continues byte-identically to the world the snapshot was
// taken from; the snapshot itself is not retained. Defective snapshots
// (dangling references, unknown event kinds, invalid configurations)
// yield errors.
func Restore(s *Snapshot) (*World, error) {
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("world: snapshot version %d not supported (want %d)", s.Version, SnapshotVersion)
	}
	w, err := newBare(s.Config)
	if err != nil {
		return nil, fmt.Errorf("world: restore: %w", err)
	}
	w.arrivalRand.SetState(s.Rand.Arrival)
	w.workloadRand.SetState(s.Rand.Workload)
	w.behaveRand.SetState(s.Rand.Behave)
	w.keyRand.SetState(s.Rand.Key)
	w.churnProc.RestoreSrc(s.Rand.Churn)
	w.wkArrivalRand.SetState(s.Rand.WkArrival)
	w.cohortRand.SetState(s.Rand.Cohort)

	policy, err := baseline.ByName(s.Policy)
	if err != nil {
		return nil, fmt.Errorf("world: restore: %w", err)
	}
	w.policy = policy

	// The peer arena comes first: every per-peer record below resolves to
	// a slot through it, and installing the table plus free-list verbatim
	// is what makes the restored world recycle slots in the uncut run's
	// order.
	assigned := make(map[id.ID]arena.Ordinal, len(s.Ordinals))
	for _, rec := range s.Ordinals {
		if _, dup := assigned[rec.Peer]; dup {
			return nil, fmt.Errorf("world: restore: duplicate ordinal entry %s", rec.Peer.Short())
		}
		assigned[rec.Peer] = arena.Ordinal(rec.Ord)
	}
	free := make([]arena.Ordinal, len(s.OrdFree))
	for i, f := range s.OrdFree {
		free[i] = arena.Ordinal(f)
	}
	if err := w.ords.Restore(assigned, free); err != nil {
		return nil, fmt.Errorf("world: restore: %w", err)
	}
	w.slots = make([]worldSlot, w.ords.Cap())
	slotFor := func(pid id.ID) (*worldSlot, error) {
		ord, ok := w.ords.Get(pid)
		if !ok {
			return nil, fmt.Errorf("world: restore: %s has no arena ordinal", pid.Short())
		}
		return &w.slots[ord], nil
	}

	// Peers and the overlay. Records arrive in ascending ID order and the
	// ring's treap shape is a pure function of membership, so one bulk join
	// in record order rebuilds the exact structure.
	members := make([]id.ID, 0, len(s.Peers))
	for _, rec := range s.Peers {
		sl, err := slotFor(rec.ID)
		if err != nil {
			return nil, err
		}
		if sl.pr != nil {
			return nil, fmt.Errorf("world: restore: duplicate peer %s", rec.ID.Short())
		}
		p, err := w.restorePeer(rec)
		if err != nil {
			return nil, err
		}
		sl.pr = p
		members = append(members, p.ID)
	}
	if err := w.ring.JoinAll(members); err != nil {
		return nil, fmt.Errorf("world: restore: joining overlay: %w", err)
	}

	// The lending protocol re-registers every live signer's bus handler;
	// crash flags are reapplied afterwards, since Register clears them.
	if err := w.proto.RestoreState(s.Lending); err != nil {
		return nil, fmt.Errorf("world: restore: %w", err)
	}
	for _, pid := range s.Crashed {
		if w.livePeer(pid) == nil {
			return nil, fmt.Errorf("world: restore: crashed node %s is not a member", pid.Short())
		}
	}
	w.bus.RestoreCrashed(s.Crashed)
	w.bus.RestoreStats(s.BusStats)

	for _, pid := range s.Admitted {
		p := w.livePeer(pid)
		if p == nil {
			return nil, fmt.Errorf("world: restore: admitted peer %s has no record", pid.Short())
		}
		w.admittedPeers = append(w.admittedPeers, p)
		sl, _ := slotFor(pid)
		sl.admitted = true
	}
	if s.Topology.Kind != w.cfg.Topology {
		return nil, fmt.Errorf("world: restore: topology state kind %q does not match config %q", s.Topology.Kind, w.cfg.Topology)
	}
	topo, err := topology.RestoreState(s.Topology)
	if err != nil {
		return nil, fmt.Errorf("world: restore: %w", err)
	}
	w.topo = topo

	for _, rec := range s.Stores {
		sl, err := slotFor(rec.Node)
		if err != nil {
			return nil, err
		}
		if sl.store != nil {
			return nil, fmt.Errorf("world: restore: duplicate store for %s", rec.Node.Short())
		}
		st := rocq.NewStore(rocq.DefaultParams())
		if err := st.RestoreState(rec.State); err != nil {
			return nil, fmt.Errorf("world: restore: store at %s: %w", rec.Node.Short(), err)
		}
		sl.store = st
	}

	for _, rec := range s.Departed {
		pid := rec.Peer.ID
		sl, err := slotFor(pid)
		if err != nil {
			return nil, err
		}
		if sl.departed != nil {
			return nil, fmt.Errorf("world: restore: duplicate departed peer %s", pid.Short())
		}
		p, err := w.restorePeer(rec.Peer)
		if err != nil {
			return nil, err
		}
		d := &departedPeer{peer: p}
		switch {
		case rec.Null && rec.Signer != nil:
			return nil, fmt.Errorf("world: restore: departed %s has both null and signer identity", pid.Short())
		case rec.Null:
			d.ident = transport.NewNullIdentity(pid)
		case rec.Signer != nil:
			signer, err := transport.SignerFromState(*rec.Signer)
			if err != nil {
				return nil, fmt.Errorf("world: restore: departed %s: %w", pid.Short(), err)
			}
			d.ident = signer
		}
		sl.departed = d
	}
	for _, pid := range s.Wiped {
		sl, err := slotFor(pid)
		if err != nil {
			return nil, err
		}
		sl.wiped = true
	}

	w.seq = s.Seq
	w.arrClock = s.ArrClock
	w.arrivalGen = s.ArrivalGen
	w.departClk = s.DepartClk
	w.departGen = s.DepartGen
	var traceLen int64
	if w.cfg.Workload != nil {
		traceLen = int64(len(w.cfg.Workload.Trace))
	}
	if s.WkReplayNext < 0 || s.WkReplayNext > traceLen {
		return nil, fmt.Errorf("world: restore: replay cursor %d out of range (trace has %d events)", s.WkReplayNext, traceLen)
	}
	w.wkReplayNext = s.WkReplayNext

	w.m = s.Metrics
	w.m.Cohorts = append([]CohortStats(nil), s.Metrics.Cohorts...)
	if w.m.CoopCount, err = restoredSeries(s.Metrics.CoopCount, "coop", s.Now); err != nil {
		return nil, err
	}
	if w.m.UncoopCount, err = restoredSeries(s.Metrics.UncoopCount, "uncoop", s.Now); err != nil {
		return nil, err
	}
	if w.m.CoopReputation, err = restoredSeries(s.Metrics.CoopReputation, "coop-reputation", s.Now); err != nil {
		return nil, err
	}
	// Histograms are always collected; a snapshot that somehow lacks one
	// restores as empty rather than nil so Observe keeps working.
	w.m.AdmissionLatency = restoredHistogram(s.Metrics.AdmissionLatency, "admission-latency")
	w.m.AuditWait = restoredHistogram(s.Metrics.AuditWait, "audit-wait")
	w.m.SessionLength = restoredHistogram(s.Metrics.SessionLength, "session-length")

	for _, rec := range s.Arrivals {
		if w.livePeer(rec.Peer) == nil {
			return nil, fmt.Errorf("world: restore: in-flight arrival %s has no peer record", rec.Peer.Short())
		}
		sl, _ := slotFor(rec.Peer)
		if sl.inFlight {
			return nil, fmt.Errorf("world: restore: duplicate in-flight arrival %s", rec.Peer.Short())
		}
		sl.inFlight = true
		sl.arrivedAt = rec.At
	}

	events := make([]sim.PendingEvent, len(s.Events))
	for i, rec := range s.Events {
		payload, err := decodeEventPayload(rec)
		if err != nil {
			return nil, err
		}
		events[i] = sim.PendingEvent{At: rec.At, Name: rec.Name, Seq: rec.Seq, Payload: payload}
	}
	w.started = true
	if err := w.engine.Restore(s.Now, s.NextSeq, events, w.rebuildEvent); err != nil {
		return nil, fmt.Errorf("world: restore: %w", err)
	}
	return w, nil
}

// encodeEvent serializes one pending event, validating that its payload
// kind matches its name — unknown combinations mean an event this format
// cannot rebuild, which fails the snapshot rather than dropping work.
func encodeEvent(ev sim.PendingEvent) (EventRecord, error) {
	rec := EventRecord{At: ev.At, Name: ev.Name, Seq: ev.Seq}
	names := func(allowed ...string) error {
		for _, n := range allowed {
			if ev.Name == n {
				return nil
			}
		}
		return fmt.Errorf("world: pending event %q at tick %d has payload %T, which belongs to %v", ev.Name, ev.At, ev.Payload, allowed)
	}
	var payload any
	switch p := ev.Payload.(type) {
	case nil:
		if err := names("transaction", "sample"); err != nil {
			return rec, fmt.Errorf("world: pending event %q at tick %d has no checkpoint payload", ev.Name, ev.At)
		}
		rec.Kind = ev.Name
		return rec, nil
	case genPayload:
		if err := names("arrival", "departure"); err != nil {
			return rec, err
		}
		rec.Kind, payload = ev.Name, p
	case peerPayload:
		if err := names("stake-timeout", "rejoin"); err != nil {
			return rec, err
		}
		rec.Kind, payload = ev.Name, p
	case sessionPayload:
		if err := names("session-end", "stake-expiry", "lease-expiry"); err != nil {
			return rec, err
		}
		rec.Kind, payload = ev.Name, p
	case lending.IntroWait:
		if err := names("intro-refuse", "intro-lend"); err != nil {
			return rec, err
		}
		rec.Kind, payload = ev.Name, p
	case replayPayload:
		if err := names("wk-replay"); err != nil {
			return rec, err
		}
		rec.Kind, payload = ev.Name, p
	case deltaPayload:
		rec.Kind, payload = "delta", p
	default:
		return rec, fmt.Errorf("world: cannot checkpoint pending event %q at tick %d (payload %T)", ev.Name, ev.At, ev.Payload)
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return rec, fmt.Errorf("world: encoding payload of %q: %w", ev.Name, err)
	}
	rec.Data = data
	return rec, nil
}

// decodeEventPayload parses an event record's payload by kind,
// validating the kind/name pairing encodeEvent enforced.
func decodeEventPayload(rec EventRecord) (any, error) {
	wantName := func() error {
		if rec.Name != rec.Kind {
			return fmt.Errorf("world: event kind %q under name %q", rec.Kind, rec.Name)
		}
		return nil
	}
	switch rec.Kind {
	case "transaction", "sample":
		if err := wantName(); err != nil {
			return nil, err
		}
		if len(rec.Data) != 0 {
			return nil, fmt.Errorf("world: event %q carries unexpected payload data", rec.Kind)
		}
		return nil, nil
	case "arrival", "departure":
		var p genPayload
		if err := wantName(); err != nil {
			return nil, err
		}
		if err := checkpoint.Unmarshal(rec.Data, &p); err != nil {
			return nil, fmt.Errorf("world: event %q: %w", rec.Kind, err)
		}
		return p, nil
	case "stake-timeout", "rejoin":
		var p peerPayload
		if err := wantName(); err != nil {
			return nil, err
		}
		if err := checkpoint.Unmarshal(rec.Data, &p); err != nil {
			return nil, fmt.Errorf("world: event %q: %w", rec.Kind, err)
		}
		return p, nil
	case "session-end", "stake-expiry", "lease-expiry":
		var p sessionPayload
		if err := wantName(); err != nil {
			return nil, err
		}
		if err := checkpoint.Unmarshal(rec.Data, &p); err != nil {
			return nil, fmt.Errorf("world: event %q: %w", rec.Kind, err)
		}
		return p, nil
	case "intro-refuse", "intro-lend":
		var p lending.IntroWait
		if err := wantName(); err != nil {
			return nil, err
		}
		if err := checkpoint.Unmarshal(rec.Data, &p); err != nil {
			return nil, fmt.Errorf("world: event %q: %w", rec.Kind, err)
		}
		return p, nil
	case "wk-replay":
		var p replayPayload
		if err := wantName(); err != nil {
			return nil, err
		}
		if err := checkpoint.Unmarshal(rec.Data, &p); err != nil {
			return nil, fmt.Errorf("world: event %q: %w", rec.Kind, err)
		}
		return p, nil
	case "delta":
		var p deltaPayload
		if err := checkpoint.Unmarshal(rec.Data, &p); err != nil {
			return nil, fmt.Errorf("world: event %q: %w", rec.Kind, err)
		}
		return p, nil
	}
	return nil, fmt.Errorf("world: unknown pending-event kind %q", rec.Kind)
}

// rebuildEvent maps a restored pending event back to its closure.
func (w *World) rebuildEvent(pe sim.PendingEvent) (func(), error) {
	switch p := pe.Payload.(type) {
	case nil:
		switch pe.Name {
		case "transaction":
			return w.transactionStep, nil
		case "sample":
			return w.sampleStep, nil
		}
	case genPayload:
		switch pe.Name {
		case "arrival":
			return w.arrivalBody(p.Gen), nil
		case "departure":
			return w.departureBody(p.Gen), nil
		}
	case peerPayload:
		switch pe.Name {
		case "stake-timeout":
			return w.stakeTimeoutBody(p.Peer), nil
		case "rejoin":
			return w.rejoinBody(p.Peer), nil
		}
	case sessionPayload:
		switch pe.Name {
		case "session-end":
			return w.sessionEndBody(p.Peer, p.Joined), nil
		case "stake-expiry":
			return w.stakeExpiryBody(p.Peer, p.Joined), nil
		case "lease-expiry":
			return w.leaseExpiryBody(p.Peer, p.Joined), nil
		}
	case lending.IntroWait:
		return w.proto.RebuildIntroEvent(pe.Name, p)
	case replayPayload:
		if pe.Name != "wk-replay" {
			break
		}
		if !w.replaying() {
			return nil, fmt.Errorf("world: replay event in a snapshot whose config replays no trace")
		}
		tr := w.cfg.Workload.Trace
		if p.Idx < 0 || p.Idx >= int64(len(tr)) {
			return nil, fmt.Errorf("world: replay event index %d out of range (trace has %d events)", p.Idx, len(tr))
		}
		if tr[p.Idx].Op != workload.OpArrival {
			return nil, fmt.Errorf("world: replay event index %d is not an arrival", p.Idx)
		}
		return w.replayBody(p.Idx), nil
	case deltaPayload:
		return w.deltaBody(pe.Name, pe.At, p.Delta), nil
	}
	return nil, fmt.Errorf("world: no rebuild rule for event %q (payload %T)", pe.Name, pe.Payload)
}

// peerRecord captures one peer object.
func peerRecord(p *peer.Peer) PeerRecord {
	rec := PeerRecord{
		ID:          p.ID,
		Class:       p.Class,
		Style:       p.Style,
		JoinedAt:    p.JoinedAt,
		Completed:   p.Completed,
		Audited:     p.Audited,
		Introducer:  p.Introducer,
		Flagged:     p.Flagged,
		DefectAt:    p.DefectAt,
		Cohort:      p.Cohort,
		PlanOrdinal: p.PlanOrdinal,
		PlanSeq:     p.PlanSeq,
		Opinions:    p.Opinions.ExportState(),
	}
	if p.Plan != nil {
		cp := *p.Plan
		rec.Plan = &cp
	}
	return rec
}

// restorePeer rebuilds one peer object, in the world's slab, from its
// record.
func (w *World) restorePeer(rec PeerRecord) (*peer.Peer, error) {
	p := w.newPeer(rec.ID, rec.Class, rec.Style)
	p.JoinedAt = rec.JoinedAt
	p.Completed = rec.Completed
	p.Audited = rec.Audited
	p.Introducer = rec.Introducer
	p.Flagged = rec.Flagged
	p.DefectAt = rec.DefectAt
	p.Cohort = rec.Cohort
	p.PlanOrdinal = rec.PlanOrdinal
	p.PlanSeq = rec.PlanSeq
	if rec.Plan != nil {
		cp := *rec.Plan
		p.Plan = &cp
	}
	if err := p.Opinions.RestoreState(rec.Opinions); err != nil {
		return nil, fmt.Errorf("world: restore: opinions of %s: %w", rec.ID.Short(), err)
	}
	return p, nil
}

// copySeries detaches a metrics series from the live world.
func copySeries(s *metrics.Series) *metrics.Series {
	if s == nil {
		return &metrics.Series{}
	}
	return &metrics.Series{Name: s.Name, Points: append([]metrics.Point(nil), s.Points...)}
}

// copyHistogram deep-copies a histogram so the snapshot does not share
// its bucket slice with the live world.
func copyHistogram(h *metrics.Histogram) *metrics.Histogram {
	if h == nil {
		return nil
	}
	c := *h
	c.Counts = append([]int64(nil), h.Counts...)
	return &c
}

// restoredHistogram deep-copies a decoded histogram, substituting an
// empty named one when the snapshot carried none.
func restoredHistogram(h *metrics.Histogram, name string) *metrics.Histogram {
	if h == nil {
		return metrics.NewHistogram(name)
	}
	return copyHistogram(h)
}

// restoredSeries validates a decoded series (monotonic time axis, no
// future points) so the sampling process can keep appending to it.
func restoredSeries(s *metrics.Series, name string, now sim.Tick) (*metrics.Series, error) {
	if s == nil {
		return &metrics.Series{Name: name}, nil
	}
	out := &metrics.Series{Name: s.Name, Points: append([]metrics.Point(nil), s.Points...)}
	for i, pt := range out.Points {
		if i > 0 && pt.T <= out.Points[i-1].T {
			return nil, fmt.Errorf("world: restore: series %q has non-increasing time axis", name)
		}
		if pt.T > int64(now) {
			return nil, fmt.Errorf("world: restore: series %q has a sample in the future (tick %d > %d)", name, pt.T, now)
		}
	}
	return out, nil
}

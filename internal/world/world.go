// Package world wires every substrate into the paper's simulator: a
// Chord-like overlay hosting replicated ROCQ score managers, the
// reputation-lending admission protocol, a topology-biased transaction
// workload (exactly one transaction per tick), Poisson arrivals classed
// by fracUncoop — and the extensions the later PRs grew: membership
// churn with score-manager state migration (churn.go), mid-run parameter
// deltas as the scenario phase hook (delta.go), and the stake-lifecycle
// clock that refunds or strands admission stakes orphaned by churn.
//
// A World is a pure function of its config.Config: independent random
// streams per process (workload, arrivals, behaviour, keys, churn) keep
// parameter changes from reshuffling unrelated draws, and nothing inside
// a run is concurrent — replica parallelism lives in the experiments
// package. Score-manager placement is cached with incremental
// invalidation; DESIGN.md's "Performance model" section is the map.
package world

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/baseline"
	"repro/internal/churn"
	"repro/internal/config"
	"repro/internal/id"
	"repro/internal/lending"
	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/peer"
	"repro/internal/rng"
	"repro/internal/rocq"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
)

// World wires the substrates into the paper's simulator: a structured
// overlay hosting ROCQ score managers, the reputation-lending admission
// protocol, a topology-biased transaction workload (one transaction per
// tick), and Poisson arrivals of new peers.
type World struct {
	cfg    config.Config
	engine *sim.Engine
	bus    *transport.Bus
	ring   *overlay.Ring
	topo   topology.Selector
	proto  *lending.Protocol
	policy baseline.Policy // used when cfg.RequireIntroductions is false
	//replend:allow snapshotfields observability sink, not simulation state: publishing changes no draw, and a resumed run re-publishes from the cut
	telem *telemetry.Bus // optional streaming telemetry bus (nil = off)
	//replend:allow snapshotfields observability-only wall-clock span recorder; write-only from the simulation's side, never read by it
	spans *telemetry.Spans // optional instrumentation spans (nil = off)

	// Independent random streams keep the workload, the arrival process
	// and behavioural coin flips decoupled, so e.g. changing λ does not
	// reshuffle transaction outcomes. The churn stream is split last so
	// enabling departures leaves every earlier stream untouched.
	arrivalRand  *rng.Source
	workloadRand *rng.Source
	behaveRand   *rng.Source
	keyRand      *rng.Source

	// Workload layer (see workload.go in this package and the
	// internal/workload package): two dedicated streams split after every
	// pre-existing one, derived views of the spec rebuilt from the config,
	// the trace-replay cursor and the optional trace recorder.
	wkArrivalRand *rng.Source // candidate arrival times + thinning accepts
	cohortRand    *rng.Source // cohort mixer and arrival class/style draws
	//replend:allow snapshotfields derived view of Config.Workload.Rate, rebuilt by newBare
	wkProgram *workload.Program
	//replend:allow snapshotfields derived view of Config.Workload.Cohorts, rebuilt by newBare
	wkWeights []float64
	//replend:allow snapshotfields pure function of Config.Seed, recomputed by newBare
	wkPlanSeed uint64
	//replend:allow snapshotfields derived view of Config.Workload.Cohorts, rebuilt by newBare
	wkDemandOn bool
	//replend:allow snapshotfields derived view of Config.Workload.Cohorts, rebuilt by newBare
	wkMaxDemand  float64
	wkReplayNext int64 // index of the next trace event the replay chain examines
	//replend:allow snapshotfields observability sink, not simulation state: attaching a recorder changes no draw, and a resumed run re-records from the cut
	wkRecorder *workload.Recorder

	// Per-peer simulation state lives in a dense ordinal-indexed arena:
	// ords maps a peer id to its slot in slots, and the LIFO free-list
	// lets churn recycle slots, so million-peer worlds index one flat
	// slice instead of chasing eight separate per-peer maps. Ordinals
	// never feed output bytes — output iteration stays over sorted ids
	// or recorded insertion orders (slotIDsSorted) — except in snapshots,
	// where the table itself is state so restored worlds recycle slots in
	// the same order the original would. Peer objects come from peerSlab,
	// which packs them into chunked, pointer-stable storage.
	ords  *arena.Ordinals
	slots []worldSlot
	//replend:allow snapshotfields allocation pool, not state; restore re-allocates every peer object through newPeer
	peerSlab      arena.Slab[peer.Peer]
	admittedPeers []*peer.Peer // members in admission order

	// Membership churn (see churn.go): the departure process and clocks;
	// departed peers and the wipeout marks live in the slot arena.
	churnProc *churn.Process
	departClk float64 // continuous departure clock (Poisson process)
	departGen int64   // invalidates in-flight departure chains on μ changes

	// smCache caches score-manager assignments (and their resolved
	// stores) per peer. Invalidation is incremental: each entry records
	// the ownership arcs its placement consulted, and smDeps indexes the
	// entries by the member that answered, so a join or leave evicts only
	// the peers whose successor set can actually change instead of the
	// whole cache (the old whole-epoch scheme collapsed to a ~0% hit rate
	// under arrivals, recomputing placement on every transaction).
	//replend:allow snapshotfields derived placement cache: Restore leaves it empty and it refills from the ring on demand; no output depends on its layout
	smCache map[id.ID]*smCacheEntry
	// smDeps maps an owner member to the peers whose cached entry depended
	// on it when filled. The index is lazy: eviction leaves stale slice
	// entries behind (an O(1) eviction instead of per-dependency deletes),
	// scans validate against the live entry and compact as they go, and a
	// global rebuild runs when the slot count outgrows the live cache so
	// staleness stays bounded.
	//replend:allow snapshotfields owner index of the derived placement cache, empty with it after Restore
	smDeps map[id.ID][]id.ID
	//replend:allow snapshotfields slot count of the derived owner index, zero with it after Restore
	smDepSlots int // total index slots, live and stale

	seq        int64   // peer id sequence
	arrClock   float64 // continuous arrival clock for the Poisson process
	arrivalGen int64   // invalidates in-flight arrival chains on λ changes
	started    bool    // workload processes armed
	err        error   // first run-path failure; stops the engine

	m Metrics
}

// worldSlot is one peer's consolidated simulation state, addressed by
// the peer's arena ordinal. A slot stays assigned while any field is
// live and returns to the free-list when the last one clears
// (releaseIfEmpty), so sustained churn recycles slots instead of
// growing the arena without bound.
//
// Slot pointers are invalidated by any call that can assign a fresh
// ordinal (ensureSlot, Store, smEntry): re-resolve through the ordinal
// after such calls instead of holding the pointer.
type worldSlot struct {
	pr       *peer.Peer    // attached peer object; nil when not in the system
	store    *rocq.Store   // reputation store hosted at the peer's node
	departed *departedPeer // offline but eligible to rejoin
	wiped    bool          // every replica died in one membership event (sticky)
	admitted bool          // currently in the admitted community
	inFlight bool          // arrivedAt marks a live waiting period
	// arrivedAt is the tick the in-flight arrival asked for an
	// introduction, observed by the admission-latency histogram.
	arrivedAt sim.Tick
}

// empty reports whether every per-peer field has cleared, making the
// slot eligible for release.
func (s *worldSlot) empty() bool {
	return s.pr == nil && s.store == nil && s.departed == nil &&
		!s.wiped && !s.admitted && !s.inFlight
}

// slotOf returns the peer's slot, nil when no ordinal is assigned.
func (w *World) slotOf(pid id.ID) *worldSlot {
	if ord, ok := w.ords.Get(pid); ok {
		return &w.slots[ord]
	}
	return nil
}

// ensureSlot returns the peer's slot, assigning an ordinal (and zeroed
// slot) on first touch.
func (w *World) ensureSlot(pid id.ID) *worldSlot {
	if ord, ok := w.ords.Get(pid); ok {
		return &w.slots[ord]
	}
	ord := w.ords.Assign(pid)
	if int(ord) == len(w.slots) {
		w.slots = append(w.slots, worldSlot{})
	}
	return &w.slots[ord]
}

// releaseIfEmpty returns the peer's slot to the ordinal free-list once
// every field has cleared. Call sites are the state-removal paths
// (detachment, permanent departure), both of which run in deterministic
// event order — so the free-list, and with it every future ordinal
// assignment, is identical across runs.
func (w *World) releaseIfEmpty(pid id.ID) {
	if ord, ok := w.ords.Get(pid); ok && w.slots[ord].empty() {
		w.slots[ord] = worldSlot{} // clear value remnants before recycling
		w.ords.Release(pid)
	}
}

// livePeer returns the attached peer object, nil when the peer is not
// in the system.
func (w *World) livePeer(pid id.ID) *peer.Peer {
	if s := w.slotOf(pid); s != nil {
		return s.pr
	}
	return nil
}

// newPeer allocates a peer record from the world's slab — the
// world-side replacement for peer.New, so churn recycles peer records
// through the slab free-list instead of the garbage collector.
func (w *World) newPeer(pid id.ID, class peer.Class, style peer.Style) *peer.Peer {
	p := w.peerSlab.Alloc()
	p.ID, p.Class, p.Style = pid, class, style
	p.Opinions = rocq.NewOpinionBook(rocq.DefaultParams())
	return p
}

// slotIDsSorted returns, in ascending identifier order, the ids whose
// slot satisfies the predicate — the deterministic iteration the
// snapshot encoder and the store sweeps use instead of map ranges.
func (w *World) slotIDsSorted(pred func(*worldSlot) bool) []id.ID {
	out := make([]id.ID, 0, w.ords.Len())
	for ord := 0; ord < len(w.slots); ord++ {
		if pid, ok := w.ords.ID(arena.Ordinal(ord)); ok && pred(&w.slots[ord]) {
			out = append(out, pid)
		}
	}
	sortIDs(out)
	return out
}

// ArenaSlots reports the slot arena's occupancy: currently assigned
// ordinals and total slots ever allocated (live + free).
func (w *World) ArenaSlots() (live, capacity int) {
	return w.ords.Len(), w.ords.Cap()
}

// smCacheEntry is one peer's cached placement: the score-manager set, the
// pre-resolved stores behind it (so the per-transaction QuerySet path does
// no map lookups), and the ownership arcs the placement depends on. Each
// dep (key, owner) means "owner was the first member clockwise from key";
// the entry stays valid exactly as long as every such decision would
// repeat, which eviction enforces on membership changes.
type smCacheEntry struct {
	sms    []id.ID
	stores []*rocq.Store
	refs   []rocq.Ref // the peer's own slot in each manager store
	deps   []smDep
	padded bool // placement cycled because fewer than numSM distinct owners exist
}

type smDep struct {
	key   id.ID // arc start (the replica key, or the peer for a self-skip)
	owner id.ID // arc end: the member that answered
	skip  bool  // this dep is the clockwise-skip taken after the previous, self-owned dep
}

// Metrics collects everything the experiment harness needs.
type Metrics struct {
	// Population counters (current, cumulative over the run).
	CoopInSystem   int64
	UncoopInSystem int64
	Founders       int64
	ArrivalsCoop   int64
	ArrivalsUncoop int64

	// Admission outcomes by class.
	AdmittedCoop   int64
	AdmittedUncoop int64
	// RefusedSelective counts newcomers declined by their chosen
	// introducer; RefusedRep counts lends blocked by the minIntroRep
	// floor (Fig 4 and Fig 6 plot these).
	RefusedSelectiveCoop   int64
	RefusedSelectiveUncoop int64
	RefusedRepCoop         int64
	RefusedRepUncoop       int64
	RefusedNoIntroducer    int64
	Pending                int64 // arrivals still inside the waiting period at end

	// Serve/deny decision quality, counted over decisions taken by
	// cooperative respondents (§4.1's success-rate definition).
	DecisionsByCoop  int64
	CorrectDecisions int64
	Served           int64
	Denied           int64
	// ServedToUncoop counts completed transactions whose requester was
	// uncooperative: the service freeriders actually extracted — the
	// damage metric of the whitewashing ablation.
	ServedToUncoop int64

	// Audit outcomes.
	AuditsSatisfied int64
	AuditsForfeited int64
	FlaggedPeers    int64

	// Churn counts membership-lifecycle activity: departures, crashes,
	// rejoins, migrated records and full-replica wipeouts.
	Churn churn.Stats

	// Cohorts breaks lifecycle activity down by workload cohort, one row
	// per cohort in first-arrival order. Empty for runs without cohorts.
	Cohorts []CohortStats `json:",omitempty"`

	// Time series sampled every cfg.SampleEvery ticks.
	CoopCount      *metrics.Series // cooperative peers in system
	UncoopCount    *metrics.Series // uncooperative peers in system
	CoopReputation *metrics.Series // mean reputation of cooperative peers

	// Log-bucketed duration histograms, always collected (pure integer
	// bookkeeping, no extra draws): ticks from introduction request to
	// admission, from admission to the audit outcome, and from admission
	// to departure. Introduction-based admissions make AdmissionLatency
	// structurally concentrated at the waiting period; the histogram
	// exists to make that visible (and to catch it drifting).
	AdmissionLatency *metrics.Histogram `json:",omitempty"`
	AuditWait        *metrics.Histogram `json:",omitempty"`
	SessionLength    *metrics.Histogram `json:",omitempty"`
}

// CohortStats counts one workload cohort's lifecycle activity.
type CohortStats struct {
	Name       string
	Arrivals   int64
	Admitted   int64
	InSystem   int64
	Departures int64 `json:",omitempty"`
	Crashes    int64 `json:",omitempty"`
	Rejoins    int64 `json:",omitempty"`
}

// SuccessRate returns the fraction of serve/deny decisions by cooperative
// respondents that were correct (serve a cooperative requester, deny an
// uncooperative one).
func (m *Metrics) SuccessRate() float64 {
	if m.DecisionsByCoop == 0 {
		return 0
	}
	return float64(m.CorrectDecisions) / float64(m.DecisionsByCoop)
}

// NewWorld builds a world from the configuration, creating the founding
// community. Call Run to execute the workload.
func New(cfg config.Config) (*World, error) {
	w, err := newBare(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.createFounders(); err != nil {
		return nil, err
	}
	return w, nil
}

// newBare builds a world's substrates without populating it: the shared
// construction path of New (which adds the founding community) and
// Restore (which overwrites the blank state with a checkpoint).
func newBare(cfg config.Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	w := &World{
		cfg:          cfg,
		engine:       sim.NewEngine(),
		bus:          transport.NewBus(),
		ring:         overlay.NewRing(),
		arrivalRand:  root.Split(),
		workloadRand: root.Split(),
		behaveRand:   root.Split(),
		keyRand:      root.Split(),
		ords:         arena.NewOrdinals(),
		smCache:      make(map[id.ID]*smCacheEntry),
		smDeps:       make(map[id.ID][]id.ID),
		policy:       baseline.MidSpectrum{},
		m: Metrics{
			CoopCount:        &metrics.Series{Name: "coop"},
			UncoopCount:      &metrics.Series{Name: "uncoop"},
			CoopReputation:   &metrics.Series{Name: "coop-reputation"},
			AdmissionLatency: metrics.NewHistogram("admission-latency"),
			AuditWait:        metrics.NewHistogram("audit-wait"),
			SessionLength:    metrics.NewHistogram("session-length"),
		},
	}
	topo, err := topology.New(cfg.Topology, root.Split())
	if err != nil {
		return nil, err
	}
	w.topo = topo
	// Split after every pre-existing stream: a run without churn draws
	// nothing from this source, and a run with churn perturbs no other
	// stream.
	w.churnProc = churn.NewProcess(root.Split(), cfg.Churn)
	// The workload streams split after the churn stream for the same
	// reason: a run without a workload block draws nothing from either,
	// so every pre-existing stream — and every pinned golden — is
	// untouched. Trace replay silences both again: replayed arrivals
	// carry their times, classes and plans, which is what makes a
	// replayed run byte-identical to the recorded one.
	w.wkArrivalRand = root.Split()
	w.cohortRand = root.Split()
	w.wkPlanSeed = workload.PlanSeed(cfg.Seed)
	w.wkMaxDemand = 1
	if wl := cfg.Workload; wl != nil {
		w.wkProgram = wl.Rate
		w.wkWeights = wl.Weights()
		w.wkDemandOn = wl.DemandWeighted()
		w.wkMaxDemand = wl.MaxDemand()
	}

	proto, err := lending.New(lending.Params{
		IntroAmt:       cfg.IntroAmt,
		Reward:         cfg.Reward,
		MinIntroRep:    cfg.MinIntroRep,
		AuditThreshold: cfg.AuditThreshold,
		Wait:           sim.Tick(cfg.WaitPeriod),
		NumSM:          cfg.NumSM,
	}, w.engine, w.bus, w, lending.Events{
		Admitted:      w.onAdmitted,
		Refused:       w.onRefused,
		AuditOutcome:  w.onAuditOutcome,
		Flagged:       w.onFlagged,
		StakeResolved: w.onStakeResolved,
	})
	if err != nil {
		return nil, err
	}
	w.proto = proto
	if cfg.NullSign {
		proto.SetNullFallback(true)
	}
	if cfg.StakeTimeout > 0 {
		// The stake-lifecycle clock is armed: records of departed
		// newcomers must survive unregistration so the timeout can still
		// refund the introducer; the TTL expiry scheduled at departure
		// keeps them from accreting.
		proto.SetRetainStakes(true)
	}
	return w, nil
}

// SetPolicy selects the bootstrap rule used when the configuration
// disables the introduction requirement.
func (w *World) SetPolicy(p baseline.Policy) { w.policy = p }

// SetTelemetry attaches a streaming telemetry bus; nil detaches it. The
// world publishes every trace-style event and every periodic sample
// (plus a "population" gauge) into the bus. Telemetry is write-only:
// attaching any combination of sinks changes no random draw and no run
// output — the world tests pin that byte for byte.
func (w *World) SetTelemetry(b *telemetry.Bus) { w.telem = b }

// SetSpans attaches a wall-clock span recorder covering the world's
// instrumented subsystems (overlay membership ops, sampling, snapshot
// encode) and the lending protocol's fan-out; nil detaches it. Spans
// measure wall-clock time but never feed it back: the recorder has no
// methods the simulation reads.
func (w *World) SetSpans(s *telemetry.Spans) {
	w.spans = s
	w.proto.SetSpans(s)
}

// record publishes one trace-style event on the telemetry bus, the
// world's only event channel. Without an active bus it returns before
// building the event.
func (w *World) record(kind trace.Kind, p, other id.ID, detail string) {
	if !w.telem.Active() {
		return
	}
	ev := telemetry.Event{At: int64(w.engine.Now()), Kind: string(kind), Peer: p.Short(), Detail: detail}
	if !other.IsZero() {
		ev.Other = other.Short()
	}
	w.telem.Event(ev)
}

// Engine exposes the discrete-event engine.
func (w *World) Engine() *sim.Engine { return w.engine }

// Bus exposes the transport layer for fault injection in tests.
func (w *World) Bus() *transport.Bus { return w.bus }

// Ring exposes the overlay.
func (w *World) Ring() *overlay.Ring { return w.ring }

// Protocol exposes the lending protocol (for its statistics).
func (w *World) Protocol() *lending.Protocol { return w.proto }

// Metrics returns the collected metrics.
func (w *World) Metrics() *Metrics { return &w.m }

// Config returns the world's configuration.
func (w *World) Config() config.Config { return w.cfg }

// Peer returns a peer by identifier.
func (w *World) Peer(pid id.ID) (*peer.Peer, bool) {
	p := w.livePeer(pid)
	return p, p != nil
}

// PopulationSize returns the number of peers currently in the system.
func (w *World) PopulationSize() int { return len(w.admittedPeers) }

// IsAdmitted reports whether the peer is currently in the system.
func (w *World) IsAdmitted(pid id.ID) bool {
	s := w.slotOf(pid)
	return s != nil && s.admitted
}

// Err returns the first run-path failure, if any. Run and RunFor surface
// it; drivers stepping the engine directly should check it after stepping.
func (w *World) Err() error { return w.err }

// fail records the first run-path failure and stops the engine after the
// in-flight event, so Run/RunFor return instead of computing on in a
// corrupt world.
func (w *World) fail(err error) {
	if w.err == nil {
		w.err = err
		w.engine.Stop()
	}
}

// ---------------------------------------------------------------------------
// lending.Network implementation.

// ScoreManagers returns the current score-manager node set for a peer,
// cached with incremental invalidation on membership changes.
func (w *World) ScoreManagers(p id.ID) []id.ID {
	return w.smEntry(p).sms
}

// emptySMEntry is returned on the (defensive) placement-failure path so
// callers iterating the result degrade to no-ops while fail stops the run.
var emptySMEntry = &smCacheEntry{}

// smEntry returns the peer's cached placement, computing and indexing it
// on a miss. Tiny rings (fewer than two members) are never cached: their
// placement can take the self-managing branch, whose validity depends on
// the ring size itself rather than on any ownership arc.
func (w *World) smEntry(p id.ID) *smCacheEntry {
	if e, ok := w.smCache[p]; ok {
		return e
	}
	return w.fillEntry(p, w.ring)
}

// placer computes a tracked placement: the live ring, or a SortedView of
// it while the membership holds still.
type placer interface {
	ScoreManagersTracked(peer id.ID, numSM int, track func(key, owner id.ID)) ([]id.ID, error)
}

// fillEntry computes the peer's placement through pl and caches and
// indexes it exactly as a smEntry miss does.
func (w *World) fillEntry(p id.ID, pl placer) *smCacheEntry {
	e := &smCacheEntry{}
	var track func(key, owner id.ID)
	// Non-members (post-run queries about departed peers) are never
	// cached: leave-time eviction could not reach them, so an entry would
	// linger for the world's lifetime.
	cacheable := w.ring.Size() > 1 && w.ring.Contains(p)
	if cacheable {
		e.deps = make([]smDep, 0, w.cfg.NumSM+2)
		track = func(key, owner id.ID) {
			n := len(e.deps)
			skip := key == p && n > 0 && !e.deps[n-1].skip && e.deps[n-1].owner == p
			e.deps = append(e.deps, smDep{key: key, owner: owner, skip: skip})
		}
	}
	sms, err := pl.ScoreManagersTracked(p, w.cfg.NumSM, track)
	if err != nil {
		w.fail(fmt.Errorf("sim: score managers for %s: %w", p.Short(), err))
		return emptySMEntry
	}
	e.sms = sms
	e.padded = len(sms) > 1 && id.Contains(sms[:len(sms)-1], sms[len(sms)-1])
	e.stores = make([]*rocq.Store, len(sms))
	e.refs = make([]rocq.Ref, len(sms))
	for i, n := range sms {
		e.stores[i] = w.Store(n)
		e.refs[i] = e.stores[i].Ref(p)
	}
	if cacheable {
		w.smCache[p] = e
		w.indexDeps(p, e)
		// Amortised staleness bound: when evicted fills have left more
		// dead slots than the live cache could account for, rebuild the
		// index from the cache. Keeps total index memory O(live entries).
		if w.smDepSlots > 2*len(w.smCache)*(w.cfg.NumSM+2)+64 {
			w.rebuildSMDeps()
		}
	}
	return e
}

// indexDeps appends the entry's dependency owners to the owner index.
func (w *World) indexDeps(p id.ID, e *smCacheEntry) {
	seen := id.ID{}
	for i, d := range e.deps {
		// Owners repeat back-to-back (a replica arc followed by a
		// self-skip arc, or consecutive replicas on one owner); skip
		// the adjacent duplicates cheaply, tolerate the rest — the
		// index is advisory and scans dedupe via the entry itself.
		if i > 0 && d.owner == seen {
			continue
		}
		seen = d.owner
		w.smDeps[d.owner] = append(w.smDeps[d.owner], p)
		w.smDepSlots++
	}
}

// rebuildSMDeps drops every stale index slot by reindexing the live cache.
// The cache is walked in ascending identifier order, not map order, so
// the index slices (and the order the join/leave scans visit entries in)
// are the same in every process.
func (w *World) rebuildSMDeps() {
	clear(w.smDeps)
	w.smDepSlots = 0
	keys := make([]id.ID, 0, len(w.smCache))
	for p := range w.smCache {
		keys = append(keys, p)
	}
	sortIDs(keys)
	for _, p := range keys {
		w.indexDeps(p, w.smCache[p])
	}
}

// dependsOn reports whether the entry recorded owner as a dependency.
func (e *smCacheEntry) dependsOn(owner id.ID) bool {
	for _, d := range e.deps {
		if d.owner == owner {
			return true
		}
	}
	return false
}

// rebuildEntry recomputes the entry's manager set purely from its patched
// dependency arcs — the placement loop's dedup/skip logic replayed over
// recorded owners, no ring queries and no hashing. It returns false when
// the recorded arcs no longer pin the placement (a self-skip would be
// needed that was never recorded, or dedup merged owners below numSM so
// the real walk would examine further replicas); the caller evicts and the
// next use recomputes from the ring.
func (w *World) rebuildEntry(p id.ID, e *smCacheEntry) bool {
	if e.padded {
		return false
	}
	numSM := w.cfg.NumSM
	// Fresh slices: callers may still hold the previously returned manager
	// set (the protocol keeps one across a fan-out), so the old backing
	// arrays must stay intact.
	sms := make([]id.ID, 0, numSM)
	for i := 0; i < len(e.deps) && len(sms) < numSM; i++ {
		d := e.deps[i]
		if d.skip {
			continue // consumed via lookahead below when still reachable
		}
		eff := d.owner
		if eff == p {
			// Self-owned arc: the effective manager is the recorded
			// clockwise skip, if the walk took one.
			if i+1 < len(e.deps) && e.deps[i+1].skip {
				eff = e.deps[i+1].owner
			} else {
				return false
			}
		}
		if !id.Contains(sms, eff) {
			sms = append(sms, eff)
		}
	}
	if len(sms) < numSM {
		return false
	}
	e.sms = sms
	e.stores = make([]*rocq.Store, 0, numSM)
	e.refs = make([]rocq.Ref, 0, numSM)
	for _, n := range sms {
		st := w.Store(n)
		e.stores = append(e.stores, st)
		e.refs = append(e.refs, st.Ref(p))
	}
	return true
}

// noteRingJoin repairs the cached placements a new member invalidates. A
// join moves ownership only for keys on the arc between the joiner and its
// live successor, so only entries with a dependency ending at that
// successor can change — everything else stays cached, which is what keeps
// the hit rate high under sustained arrivals. Affected entries are patched
// in place (the captured arcs now end at the joiner) and their manager
// sets rebuilt from the recorded arcs without touching the ring; entries
// the patch cannot pin down are evicted instead. The index slice for the
// successor is compacted in the same pass.
func (w *World) noteRingJoin(x id.ID) {
	succ, ok := w.ring.NextMember(x)
	if !ok || succ == x {
		return // first member: nothing was cached
	}
	peers, ok := w.smDeps[succ]
	if !ok {
		return
	}
	live := peers[:0]
	for _, p := range peers {
		e, ok := w.smCache[p]
		if !ok || !e.dependsOn(succ) {
			continue // stale index entry from an evicted or refilled fill
		}
		patched := false
		for j := range e.deps {
			d := &e.deps[j]
			if d.owner != succ || d.key == succ {
				// d.key == succ: the key is owned by itself; no joiner
				// can take that ownership over.
				continue
			}
			if d.skip {
				// Skip arc (member, succ]: x becomes the new clockwise
				// neighbour iff it lands strictly inside.
				if x.Between(d.key, succ) {
					d.owner = x
					patched = true
				}
			} else if x == d.key || x.Between(d.key, succ) {
				// Replica arc: x captures ownership iff x ∈ [key, succ).
				d.owner = x
				patched = true
			}
		}
		if !patched {
			live = append(live, p)
			continue
		}
		if w.rebuildEntry(p, e) {
			w.smDeps[x] = append(w.smDeps[x], p)
			w.smDepSlots++
			if e.dependsOn(succ) {
				live = append(live, p)
			}
		} else {
			delete(w.smCache, p)
		}
	}
	w.smDepSlots -= len(peers) - len(live)
	if len(live) == 0 {
		delete(w.smDeps, succ)
	} else {
		w.smDeps[succ] = live
	}
}

// noteRingLeave repairs or evicts the entries that depended on a departed
// member. Ownership moves only for keys the leaver owned — they fall to
// the leaver's live successor (captured before the leave) — and any entry
// that consulted those keys recorded the leaver as a dependency, so the
// affected set is exact. Patched entries whose arcs now degenerate (the
// successor is the peer itself, or dedup merges owners short of numSM)
// are evicted and recomputed on next use.
func (w *World) noteRingLeave(x, succ id.ID) {
	delete(w.smCache, x)
	peers, ok := w.smDeps[x]
	if !ok {
		return
	}
	for _, p := range peers {
		e, ok := w.smCache[p]
		if !ok || !e.dependsOn(x) {
			continue
		}
		if succ == p || succ == x || w.ring.Size() <= 1 {
			delete(w.smCache, p)
			continue
		}
		for j := range e.deps {
			d := &e.deps[j]
			if d.owner == x {
				d.owner = succ
			}
		}
		if w.rebuildEntry(p, e) {
			w.smDeps[succ] = append(w.smDeps[succ], p)
			w.smDepSlots++
		} else {
			delete(w.smCache, p)
		}
	}
	w.smDepSlots -= len(peers)
	delete(w.smDeps, x)
}

// QueryReputation aggregates the peer's reputation across its current
// score managers, served from the placement cache's pre-resolved store
// slots. The boolean is false when no manager knows the peer.
func (w *World) QueryReputation(pid id.ID) (float64, bool) {
	return rocq.QueryRefs(w.smEntry(pid).refs)
}

// Store returns (allocating) the reputation store hosted at a node.
func (w *World) Store(node id.ID) *rocq.Store {
	s := w.ensureSlot(node)
	if s.store == nil {
		s.store = rocq.NewStore(rocq.DefaultParams())
	}
	return s.store
}

// storeAt returns the store hosted at a node without allocating one.
func (w *World) storeAt(node id.ID) (*rocq.Store, bool) {
	if s := w.slotOf(node); s != nil && s.store != nil {
		return s.store, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Setup.

func (w *World) newPeerID() id.ID {
	w.seq++
	return id.HashString(fmt.Sprintf("peer-%d-seed-%d", w.seq, w.cfg.Seed))
}

// createFounders builds the initial community: cfg.NumInit cooperative
// peers, fracNaive of them naive introducers, all fully trusted.
//
// Founders are built in bulk. IDs, styles and identities are drawn in
// the order one-at-a-time arrivals would draw them, the overlay is
// joined in one pass, and the founders are then registered and admitted
// in that same order. Per-join placement patching and record migration
// are skipped: nothing is cached yet and every store stays empty until
// the founders are initialised below, so neither has work to do. One
// sweep then fills each
// founder's placement, in admission order, against a sorted view of the
// finished membership.
func (w *World) createFounders() error {
	founders := make([]*peer.Peer, w.cfg.NumInit)
	idents := make([]transport.Identity, len(founders))
	ids := make([]id.ID, len(founders))
	for i := range founders {
		pid := w.newPeerID()
		style := peer.AssignStyle(peer.Cooperative, w.cfg.FracNaive, w.behaveRand)
		founders[i] = w.newPeer(pid, peer.Cooperative, style)
		ident, err := w.newIdentity(pid)
		if err != nil {
			return err
		}
		idents[i], ids[i] = ident, pid
	}
	if err := w.ring.JoinAll(ids); err != nil {
		return fmt.Errorf("sim: joining overlay: %w", err)
	}
	for i, p := range founders {
		w.proto.RegisterPeer(p.ID, idents[i])
		w.ensureSlot(p.ID).pr = p
		w.admit(p, 0)
		w.m.Founders++
	}
	// Founders start fully reputed; their score managers now exist, so
	// initialise their state.
	view := w.ring.SortedView()
	for _, p := range founders {
		for _, st := range w.fillEntry(p.ID, view).stores {
			st.Init(p.ID, w.cfg.FounderRep)
		}
	}
	return w.err
}

// newIdentity returns a fresh signing identity for a joining node. With
// cfg.NullSign it is the cheap null one — an explicit opt-out of the
// Ed25519 floor for huge sweeps.
func (w *World) newIdentity(pid id.ID) (transport.Identity, error) {
	if w.cfg.NullSign {
		return transport.NewNullIdentity(pid), nil
	}
	signer, err := transport.NewSigner(w.keyRand.Split())
	if err != nil {
		return nil, err
	}
	return signer, nil
}

// attachNode joins a peer's node to the overlay under a fresh signing
// identity (it may become a score manager for others immediately).
func (w *World) attachNode(p *peer.Peer) error {
	ident, err := w.newIdentity(p.ID)
	if err != nil {
		return err
	}
	return w.attachNodeIdentity(p, ident)
}

// attachNodeIdentity is attachNode with a caller-supplied identity — the
// rejoin path re-attaches a departed peer under the identity it left
// with. When state migration is active the new node immediately pulls
// the records it now owns from the surviving replicas.
func (w *World) attachNodeIdentity(p *peer.Peer, ident transport.Identity) error {
	defer w.spans.Start("overlay-join")()
	if err := w.ring.Join(p.ID); err != nil {
		return fmt.Errorf("sim: joining overlay: %w", err)
	}
	w.noteRingJoin(p.ID)
	w.proto.RegisterPeer(p.ID, ident)
	w.ensureSlot(p.ID).pr = p
	if w.migrating() {
		w.migrateAfterJoin(p.ID)
	}
	return nil
}

// admit places a peer in the community: eligible as requester, respondent
// and introducer.
func (w *World) admit(p *peer.Peer, at sim.Tick) {
	p.JoinedAt = at
	w.admittedPeers = append(w.admittedPeers, p)
	w.ensureSlot(p.ID).admitted = true
	w.topo.Add(p.ID)
	if p.Class == peer.Cooperative {
		w.m.CoopInSystem++
	} else {
		w.m.UncoopInSystem++
	}
	if cs := w.cohortStats(p.Cohort); cs != nil {
		cs.InSystem++
	}
	if p.Plan != nil {
		// A plan-governed peer lives by its pre-drawn session; a plan
		// without one (cohort sessionDist "none") disables the clock.
		if p.Plan.Session > 0 {
			w.armSessionEnd(p, at, at+sim.Tick(p.Plan.Session))
		}
	} else if w.cfg.Churn.SessionMean > 0 {
		w.scheduleSessionEnd(p)
	}
}

// ---------------------------------------------------------------------------
// Lending protocol events.

func (w *World) onAdmitted(newcomer, introducer id.ID, at sim.Tick) {
	p := w.livePeer(newcomer)
	p.Introducer = introducer
	w.m.Pending--
	if s := w.slotOf(newcomer); s != nil && s.inFlight {
		w.m.AdmissionLatency.Observe(int64(at - s.arrivedAt))
		s.inFlight = false
	}
	w.record(trace.Admitted, newcomer, introducer, p.Class.String())
	w.admit(p, at)
	if p.Class == peer.Cooperative {
		w.m.AdmittedCoop++
	} else {
		w.m.AdmittedUncoop++
	}
	if cs := w.cohortStats(p.Cohort); cs != nil {
		cs.Admitted++
	}
	if w.cfg.StakeTimeout > 0 {
		// Arm the stake's audit deadline: if the audit has not settled it
		// by then, the timeout rule resolves it (lending.TimeoutStake is
		// a no-op on an already-terminal stake).
		w.engine.AfterPayload(sim.Tick(w.cfg.StakeTimeout), "stake-timeout",
			peerPayload{Peer: newcomer}, w.stakeTimeoutBody(newcomer))
	}
}

// stakeTimeoutBody is the stake-timeout event: resolve the newcomer's
// stake by the timeout rule if the audit has not settled it.
func (w *World) stakeTimeoutBody(newcomer id.ID) func() {
	return func() {
		if w.err != nil {
			return
		}
		w.proto.TimeoutStake(newcomer)
	}
}

// onStakeResolved counts stake-lifecycle outcomes (the refund/strand
// counters the churn stats carry) and records them in the trace.
func (w *World) onStakeResolved(newcomer, introducer id.ID, state lending.StakeState, at sim.Tick) {
	switch state {
	case lending.StakeRefunded:
		w.m.Churn.StakesRefunded++
	case lending.StakeStranded:
		w.m.Churn.StakesStranded++
	}
	w.record(trace.StakeClosed, newcomer, introducer, state.String())
}

func (w *World) onRefused(newcomer, introducer id.ID, reason lending.Reason, at sim.Tick) {
	p := w.livePeer(newcomer)
	w.m.Pending--
	if s := w.slotOf(newcomer); s != nil {
		s.inFlight = false // refusals observe no admission latency
	}
	w.record(trace.Refused, newcomer, introducer, reason.String())
	coop := p.Class == peer.Cooperative
	switch reason {
	case lending.RefusedByIntroducer:
		if coop {
			w.m.RefusedSelectiveCoop++
		} else {
			w.m.RefusedSelectiveUncoop++
		}
	case lending.RefusedIntroducerRep, lending.RefusedProtocolFailure:
		if coop {
			w.m.RefusedRepCoop++
		} else {
			w.m.RefusedRepUncoop++
		}
	}
	// The refused peer leaves: it never became part of the community.
	// Its overlay node departs as well.
	w.detachNode(newcomer)
}

func (w *World) onAuditOutcome(newcomer, introducer id.ID, satisfactory bool, at sim.Tick) {
	if p := w.livePeer(newcomer); p != nil {
		w.m.AuditWait.Observe(int64(at - p.JoinedAt))
	}
	if satisfactory {
		w.m.AuditsSatisfied++
		w.record(trace.AuditOK, newcomer, introducer, "")
	} else {
		w.m.AuditsForfeited++
		w.record(trace.AuditFail, newcomer, introducer, "")
	}
}

func (w *World) onFlagged(pid id.ID, at sim.Tick) {
	w.m.FlaggedPeers++
	w.record(trace.Flagged, pid, id.ID{}, "duplicate introduction")
	if p := w.livePeer(pid); p != nil {
		p.Flagged = true
	}
}

// detachNode removes a never-admitted peer's node from the overlay, the
// transport, and every per-node table, so refused or departed peers leave
// no residue: the placement cache and dependency index (its entry, plus
// any entry that had it as a score manager), the store it hosted (its node
// leaves the ring with its data, exactly Chord churn semantics — once it
// is no longer a member, no placement can reach that store again), and the
// peer table. It never held a topology slot: only admission adds one.
func (w *World) detachNode(pid id.ID) {
	defer w.spans.Start("overlay-leave")()
	if w.ring.Contains(pid) {
		// The departed peer's reputation slots in its current managers'
		// stores can never be queried again (only the peer's own
		// placement reads them); drop them. The placement is resolved
		// fresh and uncached — filling the cache for a peer about to
		// leave would be torn down again two lines later. Slots written
		// under an *older* placement that since migrated stay behind —
		// exactly the orphaned replicas a real DHT leaves on nodes that
		// lost responsibility.
		if sms, err := w.ring.ScoreManagers(pid, w.cfg.NumSM); err == nil {
			for _, n := range sms {
				if st, ok := w.storeAt(n); ok {
					st.Forget(pid)
				}
			}
		}
		// Under state migration, records this node hosted for *others*
		// are handed to the owners inheriting its arcs (a refused peer
		// leaves gracefully: its store participates in the pull).
		var records []handoffRecord
		if w.migrating() {
			records = w.captureHandoff([]leaver{{pid: pid, graceful: true}})
		}
		succ, _ := w.ring.NextMember(pid) // the heir of pid's arcs, read before the leave
		if err := w.ring.Leave(pid); err != nil {
			w.fail(fmt.Errorf("sim: detaching %s: %w", pid.Short(), err))
			return
		}
		w.noteRingLeave(pid, succ)
		w.applyHandoff(records)
	}
	w.bus.Unregister(pid)
	w.proto.UnregisterPeer(pid)
	if s := w.slotOf(pid); s != nil {
		s.store = nil
		if p := s.pr; p != nil {
			s.pr = nil
			if s.departed == nil {
				w.peerSlab.Free(p)
			}
		}
	}
	w.releaseIfEmpty(pid)
}

// ---------------------------------------------------------------------------
// Arrival process.

// scheduleNextArrival advances the continuous Poisson clock and schedules
// the next arrival event. The chain carries the arrival generation it was
// armed under: when ApplyDelta changes λ it bumps the generation, so an
// already-scheduled arrival from the old process aborts instead of firing
// at the stale rate.
func (w *World) scheduleNextArrival() {
	if w.replaying() {
		return // replayed arrivals are scheduled from the trace, not a clock
	}
	if w.wkProgram != nil {
		w.scheduleNextCandidate()
		return
	}
	if w.cfg.Lambda <= 0 {
		return
	}
	gen := w.arrivalGen
	w.arrClock += w.arrivalRand.Exp(w.cfg.Lambda)
	at := sim.Tick(w.arrClock)
	if at <= w.engine.Now() {
		// The tick grid caps arrivals at one per tick. Re-anchor the
		// continuous clock at the clamped time: otherwise a burst leaves
		// the clock behind real time and every subsequent draw clamps
		// too, spraying one arrival per tick regardless of λ until the
		// lagging clock catches up. Discarding the sub-tick residual
		// means rates at or above the cap saturate slightly below one
		// per tick (Exp-spaced gaps from the clamped time) — the
		// intended capped semantics; at the paper's rates (λ ≤ 0.2)
		// clamps are rare and the effect is far below run-to-run noise.
		at = w.engine.Now() + 1
		w.arrClock = float64(at)
	}
	w.engine.SchedulePayload(at, "arrival", genPayload{Gen: gen}, w.arrivalBody(gen))
}

// arrivalBody is the arrival event armed under the given process
// generation: it aborts if a λ delta re-armed the chain since. Under a
// nonstationary rate program the event is a thinning candidate that may
// be discarded (see thinnedArrival); either way the chain re-arms.
func (w *World) arrivalBody(gen int64) func() {
	return func() {
		if gen != w.arrivalGen {
			return
		}
		if w.wkProgram != nil {
			w.thinnedArrival()
		} else {
			w.handleArrival()
		}
		w.scheduleNextArrival()
	}
}

// rearmArrivals cancels any in-flight arrival chain and, if λ is positive
// and the workload is running, starts a fresh Poisson process from now.
// The continuous clock is reset unconditionally: a residual waiting time
// drawn under the old rate must not delay the first arrival of the new
// one.
func (w *World) rearmArrivals() {
	w.arrivalGen++
	if !w.started {
		return // Start will arm the (new-generation) chain
	}
	w.arrClock = float64(w.engine.Now())
	w.scheduleNextArrival()
}

// handleArrival creates one new peer and runs the admission path. With
// an active workload block the cohort mixer picks the peer's profile
// (see handleWorkloadArrival); the classic path draws class and style
// from the behaviour stream exactly as before.
func (w *World) handleArrival() {
	if w.workloadAssigning() {
		w.handleWorkloadArrival()
		return
	}
	class := peer.AssignArrivalClass(w.cfg.FracUncoop, w.behaveRand)
	style := peer.AssignStyle(class, w.cfg.FracNaive, w.behaveRand)
	p := w.newPeer(w.newPeerID(), class, style)
	w.finishArrival(p)
}

// finishArrival runs the admission path of a freshly created arrival —
// the shared tail of the classic, workload-generated and trace-replayed
// arrival paths.
func (w *World) finishArrival(p *peer.Peer) {
	if p.Class == peer.Cooperative {
		w.m.ArrivalsCoop++
	} else {
		w.m.ArrivalsUncoop++
	}
	if cs := w.cohortStats(p.Cohort); cs != nil {
		cs.Arrivals++
	}
	w.recordWorkload(workload.Event{
		At: int64(w.engine.Now()), Op: workload.OpArrival,
		Class: p.Class.String(), Style: p.Style.String(),
		Cohort: p.Cohort, Peer: p.ID.Short(), Plan: p.Plan,
	})

	if !w.cfg.RequireIntroductions {
		// Baseline: admit immediately with the policy's bootstrap value.
		if err := w.attachNode(p); err != nil {
			w.fail(fmt.Errorf("sim: arrival: %w", err))
			return
		}
		for _, st := range w.smEntry(p.ID).stores {
			st.Init(p.ID, w.policy.InitialReputation())
		}
		w.admit(p, w.engine.Now())
		if p.Class == peer.Cooperative {
			w.m.AdmittedCoop++
		} else {
			w.m.AdmittedUncoop++
		}
		if cs := w.cohortStats(p.Cohort); cs != nil {
			cs.Admitted++
		}
		return
	}

	// "The arriving peer chooses a potential introducer from the set of
	// peers that are already in the system", biased by topology.
	introducerID, ok := w.topo.Pick(id.ID{})
	if !ok {
		w.m.RefusedNoIntroducer++
		return
	}
	if err := w.attachNode(p); err != nil {
		w.fail(fmt.Errorf("sim: arrival: %w", err))
		return
	}
	introducer := w.livePeer(introducerID)
	w.record(trace.Arrival, p.ID, introducerID, p.Class.String())
	granted := introducer.WillIntroduce(p.Class, w.cfg.ErrSel, w.behaveRand)
	w.m.Pending++
	w.markInFlight(p.ID)
	w.proto.Begin(p.ID, introducerID, granted)
}

// markInFlight stamps the waiting-period start of a freshly attached
// arrival, observed by the admission-latency histogram at the outcome.
func (w *World) markInFlight(pid id.ID) {
	s := w.ensureSlot(pid)
	s.arrivedAt = w.engine.Now()
	s.inFlight = true
}

// ---------------------------------------------------------------------------
// Transaction workload.

// scheduleTransactions arms the once-per-tick transaction process,
// starting at tick 1.
func (w *World) scheduleTransactions() {
	w.engine.Schedule(1, "transaction", w.transactionStep)
}

// transactionStep runs one transaction and re-arms itself — a named
// method (rather than a recursive closure) so checkpoints can rebuild
// the pending event from its name alone.
func (w *World) transactionStep() {
	w.transact()
	w.engine.After(1, "transaction", w.transactionStep)
}

// transact runs one resource transaction: uniform requester (demand-
// weighted when a workload cohort sets a demand rate), topology-biased
// respondent, serve decision by requester reputation, mutual feedback
// to score managers on completion.
func (w *World) transact() {
	n := len(w.admittedPeers)
	if n < 2 {
		return
	}
	requester := w.pickRequester(n)
	requesterID := requester.ID
	respondentID, ok := w.topo.Pick(requesterID)
	if !ok {
		return
	}
	respondent := w.livePeer(respondentID)

	reqEntry := w.smEntry(requesterID)
	rep, _ := rocq.QueryRefs(reqEntry.refs)
	serve := respondent.WillServe(rep, w.workloadRand)

	if respondent.Class == peer.Cooperative && !respondent.Defected(w.engine.Now()) {
		w.m.DecisionsByCoop++
		requesterGood := requester.BehavesWellAt(w.engine.Now())
		if serve == requesterGood {
			w.m.CorrectDecisions++
		}
	}
	if !serve {
		w.m.Denied++
		return
	}
	w.m.Served++
	if !requester.BehavesWellAt(w.engine.Now()) {
		w.m.ServedToUncoop++
	}

	// Completed transaction: each party records first-hand experience and
	// reports its opinion of the partner to the partner's score managers.
	w.report(requester, respondent, w.smEntry(respondentID))
	w.report(respondent, requester, reqEntry)

	w.noteCompleted(requester)
	w.noteCompleted(respondent)
}

// report sends rater's updated opinion about subject to subject's score
// managers (whose placement entry the caller already holds).
func (w *World) report(rater, subject *peer.Peer, subjectEntry *smCacheEntry) {
	now := w.engine.Now()
	rating := rater.RateAt(now, subject.BehavesWellAt(now))
	op := rater.Opinions.Record(subject.ID, rating)
	for _, ref := range subjectEntry.refs {
		ref.Report(rater.ID, op)
	}
}

// noteCompleted advances a peer's completed-transaction count and fires
// the admission audit at the threshold.
func (w *World) noteCompleted(p *peer.Peer) {
	p.Completed++
	if !p.Audited && p.Completed >= w.cfg.AuditTrans {
		p.Audited = true
		if !p.Introducer.IsZero() {
			w.proto.Audit(p.ID)
		}
	}
}

// Reputation returns a peer's aggregate reputation as its score managers
// currently see it.
func (w *World) Reputation(pid id.ID) float64 {
	v, _ := rocq.QueryRefs(w.smEntry(pid).refs)
	return v
}

// ---------------------------------------------------------------------------
// Sampling.

func (w *World) scheduleSampling() {
	w.engine.Schedule(0, "sample", w.sampleStep)
}

// sampleStep records one sample and re-arms itself; like
// transactionStep, a named method so checkpoints can rebuild it.
func (w *World) sampleStep() {
	w.sample()
	w.engine.After(sim.Tick(w.cfg.SampleEvery), "sample", w.sampleStep)
}

// sample records the population counts and the mean cooperative
// reputation (the paper's Figure 2 series). The mean is one walk over the
// admitted members in admission order, so the float sum is a function of
// the captured state alone.
func (w *World) sample() {
	defer w.spans.Start("sampling")()
	now := w.engine.Now()
	if last, ok := w.m.CoopCount.Last(); ok && last.T == int64(now) {
		return // closing sample coincides with a periodic one
	}
	w.m.CoopCount.Append(int64(now), float64(w.m.CoopInSystem))
	w.m.UncoopCount.Append(int64(now), float64(w.m.UncoopInSystem))

	mean := 0.0
	if w.m.CoopInSystem > 0 {
		sum := 0.0
		for _, p := range w.admittedPeers {
			if p.Class == peer.Cooperative {
				sum += w.Reputation(p.ID)
			}
		}
		mean = sum / float64(w.m.CoopInSystem)
	}
	w.m.CoopReputation.Append(int64(now), mean)

	if w.telem.Active() {
		at := int64(now)
		w.telem.Sample(telemetry.Sample{At: at, Series: "coop", Value: float64(w.m.CoopInSystem)})
		w.telem.Sample(telemetry.Sample{At: at, Series: "uncoop", Value: float64(w.m.UncoopInSystem)})
		w.telem.Sample(telemetry.Sample{At: at, Series: "coop-reputation", Value: mean})
		w.telem.Sample(telemetry.Sample{At: at, Series: "population", Value: float64(len(w.admittedPeers))})
	}
}

// ---------------------------------------------------------------------------
// Run.

// Start arms the workload processes (transactions, arrivals, sampling)
// without advancing time. Run calls it implicitly; scripted scenarios call
// it once and then drive the clock with RunFor.
func (w *World) Start() {
	if w.started {
		return
	}
	w.started = true
	w.scheduleTransactions()
	if w.replaying() {
		w.scheduleReplay(0)
	} else {
		w.scheduleNextArrival()
	}
	w.scheduleNextDeparture()
	w.scheduleSampling()
}

// RunFor advances the simulation by n ticks. It returns the first
// run-path failure (overlay or transport errors surfaced by events), which
// stops the clock at the failing event.
func (w *World) RunFor(n sim.Tick) error {
	if n < 0 {
		//replend:allow nopanic API-misuse guard on the caller's own argument, before any simulation state is touched
		panic("world: negative RunFor duration")
	}
	if w.err != nil {
		return w.err // a failed world must not keep simulating
	}
	w.Start()
	w.engine.RunUntil(w.engine.Now() + n)
	return w.err
}

// Run executes the configured workload: cfg.NumTrans ticks of one
// transaction each, Poisson arrivals, periodic sampling. It returns the
// first run-path failure instead of panicking mid-run.
func (w *World) Run() error {
	if w.err != nil {
		return w.err // a failed world must not keep simulating
	}
	w.Start()
	w.engine.RunUntil(sim.Tick(w.cfg.NumTrans))
	if w.err != nil {
		return w.err
	}
	w.Finish()
	return w.err
}

// Finish records the closing time-series sample at the current tick.
// Callers that drive the clock themselves (scenario runs, golden tests)
// call it once at the end of the run; Run does so implicitly.
func (w *World) Finish() {
	w.sample()
}

// InjectArrival scripts the arrival of a specific peer: class and
// introduction style are chosen by the caller, as is the member asked for
// the introduction. The introducer applies its normal judgement. The new
// peer's identifier is returned; admission (or refusal) is reported
// through the usual metrics once the waiting period elapses. Used by the
// collusion experiment and scenario injections.
func (w *World) InjectArrival(class peer.Class, style peer.Style, introducerID id.ID) (id.ID, error) {
	introducer := w.livePeer(introducerID)
	if introducer == nil {
		return id.ID{}, fmt.Errorf("world: introducer %s not in the system", introducerID.Short())
	}
	p := w.newPeer(w.newPeerID(), class, style)
	if class == peer.Cooperative {
		w.m.ArrivalsCoop++
	} else {
		w.m.ArrivalsUncoop++
	}
	if err := w.attachNode(p); err != nil {
		return id.ID{}, err
	}
	w.record(trace.Arrival, p.ID, introducerID, p.Class.String())
	granted := introducer.WillIntroduce(p.Class, w.cfg.ErrSel, w.behaveRand)
	w.m.Pending++
	w.markInFlight(p.ID)
	w.proto.Begin(p.ID, introducerID, granted)
	return p.ID, nil
}

// InjectTraitor scripts the arrival of a reputation-milking peer: it
// behaves cooperatively until defectAt, then freerides and lies like an
// uncooperative peer. Used by the traitor extension experiment.
func (w *World) InjectTraitor(style peer.Style, introducerID id.ID, defectAt sim.Tick) (id.ID, error) {
	pid, err := w.InjectArrival(peer.Cooperative, style, introducerID)
	if err != nil {
		return id.ID{}, err
	}
	w.livePeer(pid).DefectAt = defectAt
	return pid, nil
}

// AdmittedPeers returns the identifiers of peers currently in the system,
// in admission order (copy).
func (w *World) AdmittedPeers() []id.ID {
	out := make([]id.ID, len(w.admittedPeers))
	for i, p := range w.admittedPeers {
		out[i] = p.ID
	}
	return out
}

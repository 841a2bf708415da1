// Package overlay implements the structured overlay the paper assumes:
// "We assume the existence of a structured overlay that uses distributed
// hash tables for routing and for selecting score managers that keep track
// of all feedback pertaining to a peer."
//
// The overlay is a Chord-style ring over the 160-bit identifier space of
// package id. Each node keeps a predecessor pointer, a successor list and a
// 160-entry finger table; lookups route greedily through fingers and are
// guaranteed to terminate via successor pointers. Key k is owned by
// successor(k), the first node clockwise from k.
//
// Score managers for a peer p are the owners of Hash(p ‖ r) for replica
// indices r = 0..numSM-1 — so, exactly as the paper notes, "the score
// managers assigned to a peer change over time" as nodes join, and using
// multiple score managers gives redundancy against that churn.
package overlay

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/id"
)

// SuccessorListLen is the number of successors each node tracks. Chord's
// robustness argument wants Ω(log n), which 8 matches only up to a few
// hundred nodes; the simulated worlds reach 10^6 members (log2 ≈ 20).
// The shortfall does not matter here: the ring applies every join and
// leave eagerly and repairs a node's state before routing through it, so
// no lookup relies on the list to bridge departed neighbours. The value
// stays fixed because it is part of every node's routing state.
const SuccessorListLen = 8

// Node is one overlay member's routing state. Neighbour pointers (next,
// prev) are maintained eagerly on every join and leave — the incremental
// analogue of Chord stabilisation fixing adjacent successors first — while
// the finger table is repaired lazily the first time it is consulted after
// a membership change. Joins and leaves are therefore O(log n), essential
// because the simulated communities grow by thousands of nodes.
type Node struct {
	ID id.ID

	next, prev *Node // live ring neighbours, maintained on join/leave

	// Membership-index (treap) threading; see treap.go.
	tLeft, tRight *Node
	keyHi         uint64 // first 8 bytes of ID: fast-path comparand
	prio          uint64 // deterministic heap priority

	pred  id.ID
	succs []id.ID // successor list, nearest first
	// fingers[k] owns ID + 2^k. Allocated lazily on first repair: a full
	// table is id.Bits identifiers (~3 KB), which only nodes that actually
	// route ever need — at million-member scale the passive majority
	// keeping inline tables would dominate the whole world's memory.
	fingers    []id.ID
	repairedAt int64 // membership epoch this state was built against
}

// Pred returns the node's predecessor pointer.
func (n *Node) Pred() id.ID { return n.pred }

// Succ returns the node's immediate successor.
func (n *Node) Succ() id.ID {
	if len(n.succs) == 0 {
		return n.ID
	}
	return n.succs[0]
}

// Successors returns a copy of the node's successor list.
func (n *Node) Successors() []id.ID {
	return append([]id.ID(nil), n.succs...)
}

// Finger returns entry k of the finger table; the ring rebuilds stale
// tables before exposing them.
func (n *Node) Finger(k int) id.ID {
	if n.fingers == nil {
		return id.ID{}
	}
	return n.fingers[k]
}

// Ring is the overlay membership and routing oracle. The simulation is
// single-threaded, so Ring performs maintenance eagerly and
// deterministically instead of running Chord's periodic stabilisation
// protocol; the routing state it maintains per node is exactly what
// stabilisation would converge to.
//
// Membership lives in two structures kept in lockstep: a treap keyed by
// identifier (O(log n) join/leave/ceiling, deterministic shape) and a
// circular doubly-linked list threading the member nodes in ring order
// (O(1) neighbour access for successor-list maintenance).
type Ring struct {
	nodes map[id.ID]*Node
	slab  arena.Slab[Node] // node records; churn recycles slots
	root  *Node            // ordered membership index (treap threaded through Nodes)
	size  int
	epoch int64 // bumped on every membership change

	// replicaKeys memoises each member's score-manager replica keys
	// Hash(peer ‖ r): they are a pure function of the identifier, but
	// placement consults them on every recompute and the SHA-1 otherwise
	// dominates. Entries are dropped when the member leaves.
	replicaKeys map[id.ID][]id.ID

	lookups  int64
	hopTotal int64
}

// Errors returned by Ring operations.
var (
	ErrEmpty     = errors.New("overlay: ring has no members")
	ErrDuplicate = errors.New("overlay: node already in ring")
	ErrNotMember = errors.New("overlay: node not in ring")
)

// NewRing returns an empty overlay.
func NewRing() *Ring {
	return &Ring{
		nodes:       make(map[id.ID]*Node),
		replicaKeys: make(map[id.ID][]id.ID),
	}
}

// Size returns the number of member nodes.
func (r *Ring) Size() int { return r.size }

// Epoch returns the membership epoch, which advances on every join or
// leave. Callers may cache placement decisions keyed by it.
func (r *Ring) Epoch() int64 { return r.epoch }

// Members returns the member identifiers in ascending order (copy).
func (r *Ring) Members() []id.ID {
	if r.size == 0 {
		return nil
	}
	out := make([]id.ID, 0, r.size)
	first := treapMin(r.root)
	for n, i := first, 0; i < r.size; n, i = n.next, i+1 {
		out = append(out, n.ID)
	}
	return out
}

// Contains reports membership.
func (r *Ring) Contains(n id.ID) bool {
	_, ok := r.nodes[n]
	return ok
}

// Node returns the routing state for a member, repaired against the
// current membership, or an error.
func (r *Ring) Node(n id.ID) (*Node, error) {
	node, ok := r.nodes[n]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotMember, n.Short())
	}
	r.repairNode(node)
	return node, nil
}

// Join adds a node to the ring: O(log n) index insert plus an O(1) splice
// into the neighbour list. Finger tables of existing nodes are repaired
// lazily the next time they are consulted.
func (r *Ring) Join(n id.ID) error {
	if _, ok := r.nodes[n]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, n.Short())
	}
	node := r.slab.Alloc()
	node.ID, node.keyHi, node.prio = n, keyHi(n), treapPriority(n)
	if r.size == 0 {
		node.next, node.prev = node, node
	} else {
		// The first member clockwise from n takes n as its new
		// predecessor; splice n in front of it.
		succ := treapCeiling(r.root, n)
		if succ == nil {
			succ = treapMin(r.root)
		}
		node.prev = succ.prev
		node.next = succ
		succ.prev.next = node
		succ.prev = node
	}
	r.root = treapInsert(r.root, node)
	r.size++
	r.epoch++
	node.repairedAt = r.epoch - 1
	r.nodes[n] = node
	return nil
}

// Leave removes a node (graceful departure or crash — routing-wise they are
// the same once neighbours repair).
func (r *Ring) Leave(n id.ID) error {
	node, ok := r.nodes[n]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotMember, n.Short())
	}
	node.prev.next = node.next
	node.next.prev = node.prev
	r.root = treapRemove(r.root, n)
	delete(r.nodes, n)
	delete(r.replicaKeys, n)
	r.slab.Free(node)
	r.size--
	r.epoch++
	return nil
}

// NextMember returns the member immediately clockwise from n (n's live
// successor), and false if n is not a member. On a single-member ring it
// returns n itself.
func (r *Ring) NextMember(n id.ID) (id.ID, bool) {
	node, ok := r.nodes[n]
	if !ok {
		return id.ID{}, false
	}
	return node.next.ID, true
}

// repairNode refreshes one node's predecessor, successor list and finger
// table against current membership, if stale. Neighbour pointers are
// already live, so the predecessor and successor list are read off the
// ring in O(SuccessorListLen). Fingers are repaired by walking the
// targets n+2^k in increasing clockwise distance: the owner changes only
// when a target crosses the previous owner, so the index is consulted
// O(distinct fingers) = O(log n) times instead of once per bit — the
// membership walk a real Chord node performs along its neighbour list,
// without the 160 ceiling queries that made lookups regress.
func (r *Ring) repairNode(node *Node) {
	if node.repairedAt == r.epoch {
		return
	}
	node.pred = node.prev.ID
	node.succs = node.succs[:0]
	if node.fingers == nil {
		node.fingers = make([]id.ID, id.Bits)
	}
	if r.size == 1 {
		node.succs = append(node.succs, node.ID)
		for k := 0; k < id.Bits; k++ {
			node.fingers[k] = node.ID
		}
		node.repairedAt = r.epoch
		return
	}
	for s, j := node.next, 0; j < SuccessorListLen && s != node; s, j = s.next, j+1 {
		node.succs = append(node.succs, s.ID)
	}
	// fingers[0] targets node+1; identifiers are integers on the ring, so
	// the open arc (node, node+1) holds no member and the owner is the
	// live successor.
	target := node.ID.AddPow2(0)
	owner := node.next.ID
	node.fingers[0] = owner
	for k := 1; k < id.Bits; k++ {
		prev := target
		target = node.ID.AddPow2(k)
		// The previous owner keeps answering while the target stays inside
		// (prev, owner]: prev was in the owner's arc, so everything up to
		// the owner still is. Past it, ask the membership index once.
		if owner == prev || !target.BetweenRightIncl(prev, owner) {
			owner = r.successorID(target)
		}
		node.fingers[k] = owner
	}
	node.repairedAt = r.epoch
}

// successorID returns the owner of key: the first member clockwise from it.
func (r *Ring) successorID(key id.ID) id.ID {
	if r.size == 0 {
		//replend:allow nopanic callers query ownership only on non-empty rings (worlds start with founders); an empty-ring query is a caller bug
		panic("overlay: successorID on empty ring")
	}
	owner := treapCeiling(r.root, key)
	if owner == nil {
		owner = treapMin(r.root)
	}
	return owner.ID
}

// Successor returns the node owning key, per the ring oracle (no routing).
func (r *Ring) Successor(key id.ID) (id.ID, error) {
	if r.size == 0 {
		return id.ID{}, ErrEmpty
	}
	return r.successorID(key), nil
}

// Lookup routes from the given start member to the owner of key the way a
// real Chord node would: greedy closest-preceding-finger steps, with the
// successor pointer as the final (and fallback) hop. It returns the owner
// and the number of hops taken, and records them in the ring's routing
// statistics.
func (r *Ring) Lookup(from, key id.ID) (owner id.ID, hops int, err error) {
	if r.size == 0 {
		return id.ID{}, 0, ErrEmpty
	}
	cur, ok := r.nodes[from]
	if !ok {
		return id.ID{}, 0, fmt.Errorf("%w: lookup from %s", ErrNotMember, from.Short())
	}
	for {
		r.repairNode(cur)
		// Key owned by cur's immediate successor?
		succ := cur.Succ()
		if key.BetweenRightIncl(cur.ID, succ) {
			r.lookups++
			r.hopTotal += int64(hops + 1)
			return succ, hops + 1, nil
		}
		next := r.closestPreceding(cur, key)
		if next == cur.ID {
			// Fingers degenerate (tiny ring): fall through to successor.
			next = succ
		}
		cur = r.nodes[next]
		hops++
		if hops > r.size+id.Bits {
			return id.ID{}, hops, fmt.Errorf("overlay: lookup for %s did not converge", key.Short())
		}
	}
}

// closestPreceding returns the finger of n most closely preceding key,
// Chord's routing step.
func (n *Node) closestPrecedingFinger(key id.ID) id.ID {
	if n.fingers == nil {
		return n.ID
	}
	for k := id.Bits - 1; k >= 0; k-- {
		f := n.fingers[k]
		if !f.IsZero() && f.Between(n.ID, key) {
			return f
		}
	}
	return n.ID
}

func (r *Ring) closestPreceding(n *Node, key id.ID) id.ID {
	f := n.closestPrecedingFinger(key)
	// A finger may point at a departed node if tables were rebuilt before a
	// later departure; validate against membership and fall back along the
	// successor list like real Chord does.
	if _, ok := r.nodes[f]; ok {
		return f
	}
	for _, s := range n.succs {
		if _, ok := r.nodes[s]; ok && s.Between(n.ID, key) {
			return s
		}
	}
	return n.ID
}

// ScoreManagers returns the numSM owners of the peer's replica keys —
// the nodes that hold feedback about it. The peer itself is excluded when
// the ring has enough other members (a peer must not manage its own
// reputation); the replica index keeps advancing until numSM distinct
// managers are found.
func (r *Ring) ScoreManagers(peer id.ID, numSM int) ([]id.ID, error) {
	return r.ScoreManagersTracked(peer, numSM, nil)
}

// ScoreManagersTracked is ScoreManagers with an observation hook: track
// (when non-nil) receives every (key, owner) ownership decision the
// placement consulted — each replica key with its owning member, plus a
// (peer, next-member) pair whenever self-ownership forced a clockwise
// skip. The result is a pure function of those decisions, so a caller
// caching it stays exact by invalidating whenever a membership change can
// alter any reported arc (key, owner]: this is how the simulation world
// turns whole-ring epoch invalidation into per-peer incremental eviction.
func (r *Ring) ScoreManagersTracked(peer id.ID, numSM int, track func(key, owner id.ID)) ([]id.ID, error) {
	return r.placement(r, peer, numSM, track)
}

// ownership answers the two membership queries placement makes: the
// owner of a key, and a member's live successor. The ring answers them
// from its treap and neighbour pointers, a SortedView from a flat array.
type ownership interface {
	ownerOf(key id.ID) id.ID
	nextOf(member id.ID) id.ID
}

func (r *Ring) ownerOf(key id.ID) id.ID   { return r.successorID(key) }
func (r *Ring) nextOf(member id.ID) id.ID { return r.nodes[member].next.ID }

// placement is ScoreManagersTracked with the membership queries answered
// by idx, which must reflect the ring's current membership.
func (r *Ring) placement(idx ownership, peer id.ID, numSM int, track func(key, owner id.ID)) ([]id.ID, error) {
	if numSM <= 0 {
		return nil, fmt.Errorf("overlay: numSM must be positive, got %d", numSM)
	}
	if r.size == 0 {
		return nil, ErrEmpty
	}
	managers := make([]id.ID, 0, numSM)
	member := r.Contains(peer)
	othersAvailable := r.size > 1 || !member
	keys := r.replicaKeys[peer]
	maxReplica := numSM * 8 // generous: hash collisions across replicas are rare
	for rep := 0; rep < maxReplica && len(managers) < numSM; rep++ {
		if rep == len(keys) {
			// Every replica yields at most one manager, so the walk
			// needs at least numSM keys: hash those in one go.
			keys = r.replicaKeysTo(peer, keys, max(numSM, rep+1), member)
		}
		key := keys[rep]
		owner := idx.ownerOf(key)
		if track != nil {
			track(key, owner)
		}
		if owner == peer {
			if !othersAvailable {
				// Single-member ring: the peer must self-manage.
				if !id.Contains(managers, owner) {
					managers = append(managers, owner)
				}
				continue
			}
			// A peer must not manage its own reputation: walk clockwise to
			// the next member, like replica placement past a responsible
			// node in a real DHT.
			owner = idx.nextOf(peer)
			if track != nil {
				track(peer, owner)
			}
		}
		if !id.Contains(managers, owner) {
			managers = append(managers, owner)
		}
	}
	// A ring smaller than numSM cannot supply numSM distinct managers;
	// cycle over the distinct ones found so callers always get numSM slots.
	distinct := len(managers)
	for i := 0; len(managers) < numSM; i++ {
		managers = append(managers, managers[i%distinct])
	}
	return managers, nil
}

// replicaKeysTo extends keys, a prefix of the peer's replica keys
// Hash(peer ‖ r), to the first n and returns them, memoised for members:
// the keys are a pure function of the identifier, so each is hashed at
// most once per membership stint (the cache is dropped when the member
// leaves). Non-member keys are not memoised — only Leave evicts, so
// memoising them would leak for the ring's lifetime.
func (r *Ring) replicaKeysTo(peer id.ID, keys []id.ID, n int, member bool) []id.ID {
	keys = slices.Grow(keys, n-len(keys))
	for len(keys) < n {
		keys = append(keys, peer.Replica(len(keys)))
	}
	if member {
		r.replicaKeys[peer] = keys
	}
	return keys
}

// RoutingStats reports the number of lookups performed and the mean hop
// count, for the DHT-behaviour tests and reports.
func (r *Ring) RoutingStats() (lookups int64, meanHops float64) {
	if r.lookups == 0 {
		return 0, 0
	}
	return r.lookups, float64(r.hopTotal) / float64(r.lookups)
}

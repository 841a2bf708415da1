package overlay

import (
	"fmt"
	"slices"

	"repro/internal/id"
)

// Bulk construction. A founding community joins an empty ring all at
// once; JoinAll builds that membership in one pass instead of n treap
// descents, and SortedView answers the burst of placement queries that
// follows from a flat sorted array instead of walking treap pointers.

// JoinAll adds ids to an empty ring and leaves it exactly as len(ids)
// sequential Join calls in the given order would: the same treap (its
// shape depends only on the (ID, priority) set), the same neighbour
// ring, node records allocated in call order, and the same epoch and
// per-node repairedAt marks. After one sort, the treap is linked from
// the sorted IDs in O(n) with a Cartesian-tree stack. A duplicate ID,
// or a ring that already has members, is an error and leaves the ring
// untouched.
func (r *Ring) JoinAll(ids []id.ID) error {
	if r.size != 0 {
		return fmt.Errorf("overlay: bulk join into a ring with %d members", r.size)
	}
	if len(ids) == 0 {
		return nil
	}
	order := make([]int32, len(ids)) // join positions in ascending ID order
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return ids[a].Cmp(ids[b]) })
	for k := 1; k < len(order); k++ {
		if ids[order[k-1]] == ids[order[k]] {
			return fmt.Errorf("%w: %s", ErrDuplicate, ids[order[k]].Short())
		}
	}

	nodes := make([]*Node, len(ids)) // in join order
	for i, n := range ids {
		node := r.slab.Alloc()
		node.ID, node.keyHi, node.prio = n, keyHi(n), treapPriority(n)
		// Join i sees epoch r.epoch+i and stamps its node with it.
		node.repairedAt = r.epoch + int64(i)
		nodes[i] = node
		r.nodes[n] = node
	}
	sorted := make([]*Node, len(order))
	for k, i := range order {
		sorted[k] = nodes[i]
	}
	r.root = treapBuild(sorted)
	if r.root == nil {
		// Two members share a priority, so the shape depends on insertion
		// order after all: insert one by one in join order.
		for _, node := range nodes {
			r.root = treapInsert(r.root, node)
		}
	}
	for k, node := range sorted {
		node.next = sorted[(k+1)%len(sorted)]
		node.prev = sorted[(k+len(sorted)-1)%len(sorted)]
	}
	r.size = len(ids)
	r.epoch += int64(len(ids))
	return nil
}

// treapBuild links nodes, given in ascending ID order with clear child
// pointers, into the treap their (ID, priority) pairs determine and
// returns its root. The right spine lives on a stack: each node adopts
// the lower-priority tail it pops as its left subtree and becomes the
// right child of what remains. It returns nil, with every child pointer
// cleared again, when two nodes that the shape must order by priority
// tie: treapInsert breaks such ties by insertion order, which the sorted
// input does not carry.
func treapBuild(sorted []*Node) *Node {
	stack := make([]*Node, 0, 64)
	for _, node := range sorted {
		var popped *Node
		for len(stack) > 0 && stack[len(stack)-1].prio < node.prio {
			popped = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 && stack[len(stack)-1].prio == node.prio {
			for _, n := range sorted {
				n.tLeft, n.tRight = nil, nil
			}
			return nil
		}
		node.tLeft = popped
		if len(stack) > 0 {
			stack[len(stack)-1].tRight = node
		}
		stack = append(stack, node)
	}
	return stack[0]
}

// SortedView is a frozen copy of the ring's membership in ascending
// order, for answering many placement queries between membership
// changes: a successor query is a binary search over contiguous words
// rather than a treap descent. Once the membership changes the view
// falls back to the live ring, so its answers are always current.
type SortedView struct {
	r     *Ring
	epoch int64
	ids   []id.ID
	hi    []uint64 // keyHi of ids, the search's fast-path comparand
}

// SortedView snapshots the current membership in one walk of the
// neighbour ring.
func (r *Ring) SortedView() *SortedView {
	v := &SortedView{r: r, epoch: r.epoch, ids: r.Members()}
	v.hi = make([]uint64, len(v.ids))
	for i, n := range v.ids {
		v.hi[i] = keyHi(n)
	}
	return v
}

// ScoreManagersTracked is Ring.ScoreManagersTracked answered from the
// view: the same managers and the same tracked ownership decisions.
func (v *SortedView) ScoreManagersTracked(peer id.ID, numSM int, track func(key, owner id.ID)) ([]id.ID, error) {
	if v.epoch != v.r.epoch {
		return v.r.ScoreManagersTracked(peer, numSM, track)
	}
	return v.r.placement(v, peer, numSM, track)
}

// ceiling returns the index of the first member >= key, len(ids) when
// every member is below it.
func (v *SortedView) ceiling(key id.ID) int {
	hi := keyHi(key)
	lo, up := 0, len(v.hi)
	for lo < up {
		m := int(uint(lo+up) >> 1)
		if v.hi[m] < hi || (v.hi[m] == hi && v.ids[m].Less(key)) {
			lo = m + 1
		} else {
			up = m
		}
	}
	return lo
}

func (v *SortedView) ownerOf(key id.ID) id.ID {
	i := v.ceiling(key)
	if i == len(v.ids) {
		i = 0
	}
	return v.ids[i]
}

func (v *SortedView) nextOf(member id.ID) id.ID {
	return v.ids[(v.ceiling(member)+1)%len(v.ids)]
}

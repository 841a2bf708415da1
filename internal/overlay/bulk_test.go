package overlay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/id"
	"repro/internal/rng"
)

// ringShape is everything a ring's membership structure holds, keyed by
// member ID so two rings built from different node records compare.
type ringShape struct {
	Size    int
	Epoch   int64
	Root    id.ID
	InOrder []id.ID
	Nodes   map[id.ID]nodeShape
}

type nodeShape struct {
	Prio              uint64
	Left, Right       id.ID // zero when the child is nil
	Next, Prev        id.ID
	RepairedAt        int64
	Pred              id.ID
	Succs, FingerDump []id.ID
}

func shapeOf(r *Ring) ringShape {
	idOf := func(n *Node) id.ID {
		if n == nil {
			return id.ID{}
		}
		return n.ID
	}
	s := ringShape{Size: r.size, Epoch: r.epoch, Root: idOf(r.root), Nodes: map[id.ID]nodeShape{}}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		walk(n.tLeft)
		s.InOrder = append(s.InOrder, n.ID)
		walk(n.tRight)
	}
	walk(r.root)
	for pid, n := range r.nodes {
		s.Nodes[pid] = nodeShape{
			Prio: n.prio, Left: idOf(n.tLeft), Right: idOf(n.tRight),
			Next: n.next.ID, Prev: n.prev.ID, RepairedAt: n.repairedAt,
			Pred: n.pred, Succs: n.succs, FingerDump: n.fingers,
		}
	}
	return s
}

// randomIDs draws n distinct identifiers. Half the sets use small
// integers, whose identical high words push every comparison onto the
// full-width fallback.
func randomIDs(src *rng.Source, n int) []id.ID {
	small := src.Intn(2) == 0
	seen := map[id.ID]bool{}
	out := make([]id.ID, 0, n)
	for len(out) < n {
		var nid id.ID
		if small {
			nid = id.FromUint64(uint64(1 + src.Intn(4*(n+1))))
		} else {
			nid = id.FromUint64(src.Uint64()).Replica(src.Intn(1 << 20))
		}
		if !seen[nid] {
			seen[nid] = true
			out = append(out, nid)
		}
	}
	return out
}

func sequentialRing(t *testing.T, ids []id.ID) *Ring {
	t.Helper()
	r := NewRing()
	for _, n := range ids {
		if err := r.Join(n); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func bulkRing(t *testing.T, ids []id.ID) *Ring {
	t.Helper()
	r := NewRing()
	if err := r.JoinAll(ids); err != nil {
		t.Fatal(err)
	}
	return r
}

// exerciseBoth applies the same random Join/Leave/Lookup/ScoreManagers
// sequence to both rings and fails at the first differing answer or
// structure.
func exerciseBoth(t *testing.T, src *rng.Source, a, b *Ring, members []id.ID) {
	t.Helper()
	members = append([]id.ID(nil), members...)
	for step := 0; step < 60; step++ {
		switch op := src.Intn(4); {
		case op == 0 || len(members) == 0:
			n := id.HashString(fmt.Sprintf("later-%d-%d", step, src.Uint64()))
			ea, eb := a.Join(n), b.Join(n)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("step %d: Join errors differ: %v vs %v", step, ea, eb)
			}
			members = append(members, n)
		case op == 1:
			i := src.Intn(len(members))
			if ea, eb := a.Leave(members[i]), b.Leave(members[i]); ea != nil || eb != nil {
				t.Fatalf("step %d: Leave: %v / %v", step, ea, eb)
			}
			members = append(members[:i], members[i+1:]...)
		case op == 2:
			from, key := members[src.Intn(len(members))], id.FromUint64(src.Uint64())
			oa, ha, ea := a.Lookup(from, key)
			ob, hb, eb := b.Lookup(from, key)
			if oa != ob || ha != hb || (ea == nil) != (eb == nil) {
				t.Fatalf("step %d: Lookup differs: (%v %d %v) vs (%v %d %v)", step, oa.Short(), ha, ea, ob.Short(), hb, eb)
			}
		default:
			p, numSM := members[src.Intn(len(members))], 1+src.Intn(6)
			sa, ea := a.ScoreManagers(p, numSM)
			sb, eb := b.ScoreManagers(p, numSM)
			if !reflect.DeepEqual(sa, sb) || (ea == nil) != (eb == nil) {
				t.Fatalf("step %d: ScoreManagers differ: %v vs %v", step, sa, sb)
			}
		}
		if !reflect.DeepEqual(shapeOf(a), shapeOf(b)) {
			t.Fatalf("step %d: ring structures diverged", step)
		}
	}
}

// TestJoinAllMatchesSequentialJoins pins the one-pass bulk join to n
// sequential Joins: treap order, priorities and child links, neighbour
// pointers, size, epoch and per-node repair marks, and every answer of
// the rings' later life.
func TestJoinAllMatchesSequentialJoins(t *testing.T) {
	src := rng.New(13)
	sizes := []int{0, 1, 2, 3, 5, 8, 17, 64, 300}
	for trial := 0; trial < 3; trial++ {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("n=%d/trial=%d", n, trial), func(t *testing.T) {
				ids := randomIDs(src, n)
				seq, bulk := sequentialRing(t, ids), bulkRing(t, ids)
				if !reflect.DeepEqual(shapeOf(seq), shapeOf(bulk)) {
					t.Fatalf("bulk join of %d ids differs from sequential joins", n)
				}
				exerciseBoth(t, src, seq, bulk, ids)
			})
		}
	}
}

// TestJoinAllAfterEmptiedRing: a ring emptied by leaves keeps its epoch,
// and a bulk join continues from it exactly as sequential joins would.
func TestJoinAllAfterEmptiedRing(t *testing.T) {
	src := rng.New(5)
	first, ids := randomIDs(src, 7), randomIDs(src, 40)
	seq, bulk := sequentialRing(t, first), sequentialRing(t, first)
	for _, n := range first {
		if err := seq.Leave(n); err != nil {
			t.Fatal(err)
		}
		if err := bulk.Leave(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range ids {
		if err := seq.Join(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := bulk.JoinAll(ids); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shapeOf(seq), shapeOf(bulk)) {
		t.Fatal("bulk join into an emptied ring differs from sequential joins")
	}
}

// TestJoinAllPriorityTies: identifiers whose priorities collide make the
// treap shape depend on join order; the bulk join must reproduce it.
func TestJoinAllPriorityTies(t *testing.T) {
	// treapPriority mixes the first and last eight bytes XORed together,
	// so flipping the same bits in both keeps the priority.
	tied := func(hi, lo, flip uint64) id.ID {
		var n id.ID
		binary.BigEndian.PutUint64(n[0:8], hi^flip)
		binary.BigEndian.PutUint64(n[id.Bytes-8:], lo^flip)
		return n
	}
	a, b, c := tied(1<<60, 7, 0), tied(1<<60, 7, 1<<62), tied(1<<60, 7, 1<<63)
	if treapPriority(a) != treapPriority(b) || treapPriority(b) != treapPriority(c) {
		t.Fatal("test identifiers do not tie")
	}
	others := randomIDs(rng.New(9), 20)
	orders := [][]id.ID{
		{a, b, c}, {c, b, a}, {b, a, c},
		append([]id.ID{a, b, c}, others...),
		append(append([]id.ID{c}, others...), a, b),
	}
	for i, ids := range orders {
		if !reflect.DeepEqual(shapeOf(sequentialRing(t, ids)), shapeOf(bulkRing(t, ids))) {
			t.Fatalf("order %d: bulk join with priority ties differs from sequential joins", i)
		}
	}
}

func TestJoinAllRejectsDuplicatesAndMembers(t *testing.T) {
	r := NewRing()
	ids := []id.ID{id.FromUint64(1), id.FromUint64(2), id.FromUint64(1)}
	if err := r.JoinAll(ids); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate bulk join: err = %v, want ErrDuplicate", err)
	}
	if r.Size() != 0 || r.Epoch() != 0 || len(r.nodes) != 0 || r.slab.Live() != 0 {
		t.Fatal("a rejected bulk join modified the ring")
	}
	if err := r.Join(id.FromUint64(3)); err != nil {
		t.Fatal(err)
	}
	if err := r.JoinAll([]id.ID{id.FromUint64(4)}); err == nil {
		t.Fatal("bulk join into a populated ring accepted")
	}
}

// TestSortedViewMatchesRing: the array-backed view gives the same
// managers and reports the same ownership decisions as the ring, for
// members and non-members, and falls back to the ring once the
// membership moves on.
func TestSortedViewMatchesRing(t *testing.T) {
	src := rng.New(21)
	type decision struct{ Key, Owner id.ID }
	for _, n := range []int{1, 2, 3, 7, 200} {
		ids := randomIDs(src, n)
		r := bulkRing(t, ids)
		v := r.SortedView()
		check := func(peer id.ID, numSM int) {
			t.Helper()
			var want, got []decision
			ws, werr := r.ScoreManagersTracked(peer, numSM, func(k, o id.ID) { want = append(want, decision{k, o}) })
			gs, gerr := v.ScoreManagersTracked(peer, numSM, func(k, o id.ID) { got = append(got, decision{k, o}) })
			if !reflect.DeepEqual(ws, gs) || !reflect.DeepEqual(want, got) || (werr == nil) != (gerr == nil) {
				t.Fatalf("n=%d peer %s numSM %d: view (%v, %v) != ring (%v, %v)", n, peer.Short(), numSM, gs, got, ws, want)
			}
		}
		for _, p := range ids {
			check(p, 1+src.Intn(6))
		}
		check(id.HashString("outsider"), 4)
		if err := r.Join(id.HashString(fmt.Sprintf("newcomer-%d", n))); err != nil {
			t.Fatal(err)
		}
		for _, p := range ids {
			check(p, 3) // stale view: answered by the live ring
		}
	}
}

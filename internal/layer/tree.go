package layer

import (
	"fmt"

	"repro/internal/geom"
)

// TreeChannel is the binary-search-tree channel representation that early
// versions of grr used (Section 12). Segments are keyed by Lo in an
// unbalanced BST. The paper reports that replacing this structure with
// a doubly linked list and moving cursor halved total running time,
// because channel access while routing one connection is highly
// localized, not random. Channel keeps that moving cursor over a sorted
// span array instead of a linked list; the ablation benchmark E-CHAN
// replays router-like op traces against both structures.
//
// TreeChannel mirrors the Channel API closely enough for the benchmark
// and for differential tests, but the router proper always uses Channel.
type TreeChannel struct {
	root   *treeNode
	length int
	count  int
}

type treeNode struct {
	lo, hi int
	owner  ConnID

	left, right, parent *treeNode
}

// NewTreeChannel builds an empty tree channel with the given length.
func NewTreeChannel(length int) *TreeChannel {
	return &TreeChannel{length: length}
}

// Len returns the number of stored segments.
func (t *TreeChannel) Len() int { return t.count }

// Add inserts [lo, hi]; it returns false on bounds violation or collision.
func (t *TreeChannel) Add(lo, hi int, owner ConnID) bool {
	if lo > hi || lo < 0 || hi >= t.length {
		return false
	}
	if pred := t.floor(lo); pred != nil && pred.hi >= lo {
		return false
	}
	if succ := t.ceil(lo); succ != nil && succ.lo <= hi {
		return false
	}
	n := &treeNode{lo: lo, hi: hi, owner: owner}
	if t.root == nil {
		t.root = n
	} else {
		cur := t.root
		for {
			if lo < cur.lo {
				if cur.left == nil {
					cur.left = n
					n.parent = cur
					break
				}
				cur = cur.left
			} else {
				if cur.right == nil {
					cur.right = n
					n.parent = cur
					break
				}
				cur = cur.right
			}
		}
	}
	t.count++
	return true
}

// RemoveAt deletes the segment covering pos; it returns false if pos is
// free.
func (t *TreeChannel) RemoveAt(pos int) bool {
	n := t.nodeAt(pos)
	if n == nil {
		return false
	}
	t.delete(n)
	t.count--
	return true
}

// Free reports whether pos is unoccupied and in range.
func (t *TreeChannel) Free(pos int) bool {
	if pos < 0 || pos >= t.length {
		return false
	}
	return t.nodeAt(pos) == nil
}

// OwnerAt returns the owner of the segment covering pos, or NoConn.
func (t *TreeChannel) OwnerAt(pos int) ConnID {
	if n := t.nodeAt(pos); n != nil {
		return n.owner
	}
	return NoConn
}

// FreeInterval returns the maximal free interval containing pos.
func (t *TreeChannel) FreeInterval(pos int) (geom.Interval, bool) {
	if pos < 0 || pos >= t.length || t.nodeAt(pos) != nil {
		return geom.Interval{}, false
	}
	lo, hi := 0, t.length-1
	if pred := t.floor(pos); pred != nil {
		lo = pred.hi + 1
	}
	if succ := t.ceil(pos); succ != nil {
		hi = succ.lo - 1
	}
	return geom.Iv(lo, hi), true
}

// nodeAt returns the node covering pos, if any. Because segments never
// overlap, the covering node is the floor node (greatest lo <= pos) when
// its hi reaches pos.
func (t *TreeChannel) nodeAt(pos int) *treeNode {
	if n := t.floor(pos); n != nil && n.hi >= pos {
		return n
	}
	return nil
}

// floor returns the node with the greatest lo <= pos.
func (t *TreeChannel) floor(pos int) *treeNode {
	var best *treeNode
	cur := t.root
	for cur != nil {
		if cur.lo <= pos {
			best = cur
			cur = cur.right
		} else {
			cur = cur.left
		}
	}
	return best
}

// ceil returns the node with the smallest lo > pos.
func (t *TreeChannel) ceil(pos int) *treeNode {
	var best *treeNode
	cur := t.root
	for cur != nil {
		if cur.lo > pos {
			best = cur
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	return best
}

func (t *TreeChannel) replaceChild(old, repl *treeNode) {
	p := old.parent
	if repl != nil {
		repl.parent = p
	}
	switch {
	case p == nil:
		t.root = repl
	case p.left == old:
		p.left = repl
	default:
		p.right = repl
	}
}

func (t *TreeChannel) delete(n *treeNode) {
	switch {
	case n.left == nil:
		t.replaceChild(n, n.right)
	case n.right == nil:
		t.replaceChild(n, n.left)
	default:
		// Splice in the in-order successor.
		s := n.right
		for s.left != nil {
			s = s.left
		}
		if s.parent != n {
			t.replaceChild(s, s.right)
			s.right = n.right
			s.right.parent = s
		}
		t.replaceChild(n, s)
		s.left = n.left
		s.left.parent = s
	}
	n.left, n.right, n.parent = nil, nil, nil
}

// audit validates BST order and segment disjointness for tests.
func (t *TreeChannel) audit() string {
	prevHi := -1
	n := 0
	bad := ""
	var walk func(nd *treeNode)
	walk = func(nd *treeNode) {
		if nd == nil || bad != "" {
			return
		}
		walk(nd.left)
		if bad != "" {
			return
		}
		n++
		if nd.lo > nd.hi || nd.lo < 0 || nd.hi >= t.length {
			bad = fmt.Sprintf("node [%d..%d] out of bounds", nd.lo, nd.hi)
			return
		}
		if nd.lo <= prevHi {
			bad = fmt.Sprintf("node [%d..%d] overlaps predecessor ending at %d", nd.lo, nd.hi, prevHi)
			return
		}
		prevHi = nd.hi
		walk(nd.right)
	}
	walk(t.root)
	if bad == "" && n != t.count {
		bad = fmt.Sprintf("count %d but %d nodes", t.count, n)
	}
	return bad
}

package layer

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

func TestTreeChannelBasics(t *testing.T) {
	tc := NewTreeChannel(30)
	if !tc.Add(5, 10, 1) {
		t.Fatal("Add failed")
	}
	if tc.Add(8, 12, 2) {
		t.Error("overlapping Add accepted")
	}
	if !tc.Add(11, 15, 2) {
		t.Fatal("adjacent Add failed")
	}
	if tc.Len() != 2 {
		t.Errorf("Len = %d", tc.Len())
	}
	if tc.Free(7) || !tc.Free(4) || tc.Free(-1) || tc.Free(30) {
		t.Error("Free misjudges")
	}
	if tc.OwnerAt(12) != 2 || tc.OwnerAt(4) != NoConn {
		t.Error("OwnerAt misjudges")
	}
	if !tc.RemoveAt(7) {
		t.Fatal("RemoveAt failed")
	}
	if tc.RemoveAt(7) {
		t.Error("double remove succeeded")
	}
	iv, ok := tc.FreeInterval(4)
	if !ok || iv != geom.Iv(0, 10) {
		t.Errorf("FreeInterval = %v,%v", iv, ok)
	}
	if msg := tc.audit(); msg != "" {
		t.Errorf("audit: %s", msg)
	}
}

// TestTreeMatchesList drives the tree and the cursor-walked array
// channel with identical random operation sequences and demands
// identical observable behaviour; this is the differential test behind
// the E-CHAN ablation.
func TestTreeMatchesList(t *testing.T) {
	const length = 80
	rng := rand.New(rand.NewSource(9))

	for trial := 0; trial < 30; trial++ {
		list := NewLayer(grid.Vertical, 0, 1, length).Chan(0)
		tree := NewTreeChannel(length)

		for op := 0; op < 500; op++ {
			switch rng.Intn(3) {
			case 0:
				lo := rng.Intn(length)
				hi := min(length-1, lo+rng.Intn(7))
				id := ConnID(rng.Intn(10))
				gotList := list.Add(lo, hi, id) != nil
				gotTree := tree.Add(lo, hi, id)
				if gotList != gotTree {
					t.Fatalf("trial %d: Add(%d,%d) list=%v tree=%v", trial, lo, hi, gotList, gotTree)
				}
			case 1:
				pos := rng.Intn(length)
				s := list.SegmentAt(pos)
				ok := tree.RemoveAt(pos)
				if (s != nil) != ok {
					t.Fatalf("trial %d: RemoveAt(%d) list=%v tree=%v", trial, pos, s != nil, ok)
				}
				if s != nil {
					list.Remove(s)
				}
			case 2:
				pos := rng.Intn(length+4) - 2
				if list.Free(pos) != tree.Free(pos) {
					t.Fatalf("trial %d: Free(%d) differs", trial, pos)
				}
				li, lok := list.FreeInterval(pos)
				ti, tok := tree.FreeInterval(pos)
				if lok != tok || (lok && li != ti) {
					t.Fatalf("trial %d: FreeInterval(%d): list %v,%v tree %v,%v", trial, pos, li, lok, ti, tok)
				}
			}
			if msg := tree.audit(); msg != "" {
				t.Fatalf("trial %d: tree audit: %s", trial, msg)
			}
		}
		if list.Len() != tree.Len() {
			t.Fatalf("trial %d: Len list=%d tree=%d", trial, list.Len(), tree.Len())
		}
	}
}

func TestTreeDeleteShapes(t *testing.T) {
	// Exercise all three BST deletion cases: leaf, one child, two
	// children (with and without adjacent successor).
	build := func() *TreeChannel {
		tc := NewTreeChannel(100)
		for _, iv := range [][2]int{{50, 51}, {20, 21}, {80, 81}, {10, 11}, {30, 31}, {70, 71}, {90, 91}, {60, 61}} {
			if !tc.Add(iv[0], iv[1], 1) {
				panic("setup")
			}
		}
		return tc
	}
	for _, pos := range []int{10, 20, 50, 80, 90, 30} {
		tc := build()
		if !tc.RemoveAt(pos) {
			t.Fatalf("RemoveAt(%d) failed", pos)
		}
		if msg := tc.audit(); msg != "" {
			t.Fatalf("after RemoveAt(%d): %s", pos, msg)
		}
		if !tc.Free(pos) {
			t.Fatalf("RemoveAt(%d) left position occupied", pos)
		}
	}
}

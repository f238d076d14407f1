package layer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/grid"
)

func TestChannelAddRemoveBasics(t *testing.T) {
	l := NewLayer(grid.Vertical, 0, 4, 30)
	c := l.Chan(1)

	s1 := c.Add(5, 10, 1)
	if s1 == nil {
		t.Fatal("Add of free interval failed")
	}
	if c.Add(8, 12, 2) != nil {
		t.Error("overlapping Add accepted")
	}
	if c.Add(10, 10, 2) != nil {
		t.Error("Add over occupied endpoint accepted")
	}
	s2 := c.Add(11, 11, 2)
	if s2 == nil {
		t.Fatal("adjacent Add failed")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	c.Remove(s1)
	if !c.Free(7) {
		t.Error("removed space not free")
	}
	if msg := c.audit(); msg != "" {
		t.Errorf("audit: %s", msg)
	}
}

func TestChannelAddRejectsOutOfRange(t *testing.T) {
	l := NewLayer(grid.Horizontal, 0, 2, 10)
	c := l.Chan(0)
	for _, iv := range [][2]int{{-1, 3}, {5, 10}, {7, 6}, {10, 10}} {
		if c.Add(iv[0], iv[1], 1) != nil {
			t.Errorf("Add(%d,%d) accepted", iv[0], iv[1])
		}
	}
	if l.Add(2, 0, 1, 1) != nil || l.Add(-1, 0, 1, 1) != nil {
		t.Error("Layer.Add with bad channel accepted")
	}
}

func TestFreeInterval(t *testing.T) {
	l := NewLayer(grid.Vertical, 0, 1, 20)
	c := l.Chan(0)
	c.Add(5, 7, 1)
	c.Add(12, 14, 2)

	cases := []struct {
		pos  int
		want geom.Interval
		ok   bool
	}{
		{0, geom.Iv(0, 4), true},
		{4, geom.Iv(0, 4), true},
		{5, geom.Interval{}, false},
		{9, geom.Iv(8, 11), true},
		{13, geom.Interval{}, false},
		{15, geom.Iv(15, 19), true},
		{19, geom.Iv(15, 19), true},
		{-1, geom.Interval{}, false},
		{20, geom.Interval{}, false},
	}
	for _, cse := range cases {
		got, ok := c.FreeInterval(cse.pos)
		if ok != cse.ok || (ok && got != cse.want) {
			t.Errorf("FreeInterval(%d) = %v,%v; want %v,%v", cse.pos, got, ok, cse.want, cse.ok)
		}
	}
}

func TestVisitFreeEnumeratesGaps(t *testing.T) {
	l := NewLayer(grid.Vertical, 0, 1, 20)
	c := l.Chan(0)
	c.Add(3, 4, 1)
	c.Add(8, 8, 2)
	c.Add(15, 19, 3)

	var got []geom.Interval
	c.VisitFree(geom.Iv(0, 19), func(iv geom.Interval) bool {
		got = append(got, iv)
		return true
	})
	want := []geom.Interval{geom.Iv(0, 2), geom.Iv(5, 7), geom.Iv(9, 14)}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}

	// A window touching only part of the channel sees only overlapping
	// gaps, but with their full (unclipped) extents.
	got = got[:0]
	c.VisitFree(geom.Iv(6, 9), func(iv geom.Interval) bool {
		got = append(got, iv)
		return true
	})
	want = []geom.Interval{geom.Iv(5, 7), geom.Iv(9, 14)}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("windowed: got %v, want %v", got, want)
	}

	// Early stop.
	n := 0
	c.VisitFree(geom.Iv(0, 19), func(geom.Interval) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestVisitFreeEmptyChannel(t *testing.T) {
	l := NewLayer(grid.Vertical, 0, 1, 10)
	var got []geom.Interval
	l.Chan(0).VisitFree(geom.Iv(2, 5), func(iv geom.Interval) bool {
		got = append(got, iv)
		return true
	})
	if len(got) != 1 || got[0] != geom.Iv(0, 9) {
		t.Fatalf("got %v, want the whole channel", got)
	}
}

func TestVisitUsed(t *testing.T) {
	l := NewLayer(grid.Horizontal, 0, 1, 20)
	c := l.Chan(0)
	c.Add(2, 4, 7)
	c.Add(10, 12, 8)
	var owners []ConnID
	c.VisitUsed(geom.Iv(4, 10), func(s *Segment) bool {
		owners = append(owners, s.Owner)
		return true
	})
	if len(owners) != 2 || owners[0] != 7 || owners[1] != 8 {
		t.Fatalf("owners = %v", owners)
	}
	owners = owners[:0]
	c.VisitUsed(geom.Iv(5, 9), func(s *Segment) bool {
		owners = append(owners, s.Owner)
		return true
	})
	if len(owners) != 0 {
		t.Fatalf("window between segments returned %v", owners)
	}
}

// TestChannelRandomOpsAgainstBitmap drives the channels of a layer with
// random operations and cross-checks every observation against a
// brute-force bitmap oracle. It also holds on to every *Segment handle
// it is given: live handles must keep reporting Stored, their channel
// and their own metal while neighbours are added and removed around
// them, removal goes through those old handles (via the channel or the
// layer), and removed handles must report !Stored.
func TestChannelRandomOpsAgainstBitmap(t *testing.T) {
	const (
		chans  = 3
		length = 64
	)
	type handle struct {
		s  *Segment
		ch int
	}
	rng := rand.New(rand.NewSource(42))

	for trial := 0; trial < 50; trial++ {
		l := NewLayer(grid.Vertical, 0, chans, length)
		var bitmap [chans][length]ConnID
		for ch := range bitmap {
			for i := range bitmap[ch] {
				bitmap[ch][i] = NoConn
			}
		}
		var live, dead []handle

		for op := 0; op < 600; op++ {
			ch := rng.Intn(chans)
			c := l.Chan(ch)
			switch rng.Intn(4) {
			case 0: // add
				lo := rng.Intn(length)
				hi := lo + rng.Intn(6)
				if hi >= length {
					hi = length - 1
				}
				id := ConnID(rng.Intn(30))
				free := true
				for p := lo; p <= hi; p++ {
					if bitmap[ch][p] != NoConn {
						free = false
						break
					}
				}
				s := c.Add(lo, hi, id)
				if (s != nil) != free {
					t.Fatalf("trial %d op %d: Add(%d,%d) = %v, free=%v", trial, op, lo, hi, s != nil, free)
				}
				if s != nil {
					for p := lo; p <= hi; p++ {
						bitmap[ch][p] = id
					}
					live = append(live, handle{s, ch})
				}
			case 1: // remove a random live segment through its handle
				if len(live) == 0 {
					break
				}
				k := rng.Intn(len(live))
				h := live[k]
				for p := h.s.Lo; p <= h.s.Hi; p++ {
					bitmap[h.ch][p] = NoConn
				}
				if rng.Intn(2) == 0 {
					l.Chan(h.ch).Remove(h.s)
				} else {
					l.Remove(h.s)
				}
				live = append(live[:k], live[k+1:]...)
				dead = append(dead, h)
			case 2: // probe
				pos := rng.Intn(length)
				if got := c.Free(pos); got != (bitmap[ch][pos] == NoConn) {
					t.Fatalf("trial %d: Free(%d) = %v", trial, pos, got)
				}
				if s := c.SegmentAt(pos); s != nil {
					if bitmap[ch][pos] != s.Owner {
						t.Fatalf("trial %d: SegmentAt(%d) owner %d, want %d", trial, pos, s.Owner, bitmap[ch][pos])
					}
				} else if bitmap[ch][pos] != NoConn {
					t.Fatalf("trial %d: SegmentAt(%d) = nil, want owner %d", trial, pos, bitmap[ch][pos])
				}
			case 3: // free-interval query
				pos := rng.Intn(length)
				iv, ok := c.FreeInterval(pos)
				if ok != (bitmap[ch][pos] == NoConn) {
					t.Fatalf("trial %d: FreeInterval(%d) ok=%v", trial, pos, ok)
				}
				if ok {
					lo, hi := pos, pos
					for lo > 0 && bitmap[ch][lo-1] == NoConn {
						lo--
					}
					for hi < length-1 && bitmap[ch][hi+1] == NoConn {
						hi++
					}
					if iv != geom.Iv(lo, hi) {
						t.Fatalf("trial %d: FreeInterval(%d) = %v, want %v", trial, pos, iv, geom.Iv(lo, hi))
					}
				}
			}
			if err := l.Audit(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
			for _, h := range live {
				if !h.s.Stored() || h.s.Channel() != h.ch {
					t.Fatalf("trial %d op %d: live handle %v: Stored=%v Channel=%d, want channel %d",
						trial, op, h.s.Interval(), h.s.Stored(), h.s.Channel(), h.ch)
				}
				if got := l.Chan(h.ch).SegmentAt(h.s.Lo); got != h.s {
					t.Fatalf("trial %d op %d: SegmentAt(%d) is not the handle Add returned", trial, op, h.s.Lo)
				}
				if bitmap[h.ch][h.s.Hi] != h.s.Owner {
					t.Fatalf("trial %d op %d: handle %v owner %d, bitmap %d", trial, op, h.s.Interval(), h.s.Owner, bitmap[h.ch][h.s.Hi])
				}
			}
			for _, h := range dead {
				if h.s.Stored() {
					t.Fatalf("trial %d op %d: removed handle %v still stored", trial, op, h.s.Interval())
				}
			}
		}
		n := 0
		for ch := 0; ch < chans; ch++ {
			n += l.Chan(ch).Len()
		}
		if n != len(live) {
			t.Fatalf("trial %d: %d segments stored, %d live handles", trial, n, len(live))
		}
	}
}

func TestLayerAuditAndDump(t *testing.T) {
	l := NewLayer(grid.Horizontal, 2, 3, 12)
	l.Add(0, 2, 5, 3)
	l.Add(1, 0, 0, PinOwner)
	l.Add(1, 4, 6, FillOwner)
	if err := l.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	dump := l.Dump()
	if len(dump) == 0 {
		t.Fatal("empty dump")
	}
}

func TestRemoveWrongChannelPanics(t *testing.T) {
	l := NewLayer(grid.Vertical, 0, 2, 10)
	s := l.Chan(0).Add(1, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("Remove from wrong channel should panic")
		}
	}()
	l.Chan(1).Remove(s)
}

func TestConnIDPermanence(t *testing.T) {
	if ConnID(0).Permanent() || ConnID(7).Permanent() {
		t.Error("routable IDs reported permanent")
	}
	for _, id := range []ConnID{PinOwner, FillOwner, KeepoutOwner} {
		if !id.Permanent() {
			t.Errorf("%d should be permanent", id)
		}
	}
}

// TestCursorLocality exercises the moving head-of-list pointer: probes
// that walk the channel in both directions must stay correct.
func TestCursorLocality(t *testing.T) {
	l := NewLayer(grid.Vertical, 0, 1, 300)
	c := l.Chan(0)
	for i := 0; i < 100; i++ {
		if c.Add(i*3, i*3, ConnID(i%20)) == nil {
			t.Fatal("setup add failed")
		}
	}
	// Ascending then descending sweeps.
	for pos := 0; pos < 300; pos++ {
		want := pos%3 != 0
		if got := c.Free(pos); got != want {
			t.Fatalf("ascending Free(%d) = %v", pos, got)
		}
	}
	for pos := 299; pos >= 0; pos-- {
		want := pos%3 != 0
		if got := c.Free(pos); got != want {
			t.Fatalf("descending Free(%d) = %v", pos, got)
		}
	}
	// Random jumps.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		pos := rng.Intn(300)
		if got := c.Free(pos); got != (pos%3 != 0) {
			t.Fatalf("random Free(%d) = %v", pos, got)
		}
	}
}

// TestChannelQuickProperty drives Add with quick-generated intervals and
// checks the fundamental invariant: an Add succeeds exactly when every
// covered position was free, and afterwards exactly those positions are
// occupied.
func TestChannelQuickProperty(t *testing.T) {
	type op struct{ Lo, Hi uint8 }
	f := func(ops []op) bool {
		const length = 100
		l := NewLayer(grid.Vertical, 0, 1, length)
		c := l.Chan(0)
		var occupied [length]bool
		for _, o := range ops {
			lo, hi := int(o.Lo)%length, int(o.Lo)%length+int(o.Hi)%7
			if hi >= length {
				hi = length - 1
			}
			free := true
			for p := lo; p <= hi; p++ {
				if occupied[p] {
					free = false
					break
				}
			}
			s := c.Add(lo, hi, 1)
			if (s != nil) != free {
				return false
			}
			if s != nil {
				for p := lo; p <= hi; p++ {
					occupied[p] = true
				}
			}
			if msg := c.audit(); msg != "" {
				return false
			}
		}
		for p := 0; p < length; p++ {
			if c.Free(p) == occupied[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSegmentStored checks the stale-handle marker used by the verifier.
func TestSegmentStored(t *testing.T) {
	l := NewLayer(grid.Vertical, 0, 1, 10)
	s := l.Chan(0).Add(2, 4, 1)
	if !s.Stored() {
		t.Fatal("live segment not stored")
	}
	l.Chan(0).Remove(s)
	if s.Stored() {
		t.Fatal("removed segment still stored")
	}
}

// TestRemoveStaleHandlePanics checks that a handle is only ever removed
// from the channel that holds it: a second Remove of the same handle,
// or a Remove on the same channel index of another layer, panics.
func TestRemoveStaleHandlePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	a := NewLayer(grid.Vertical, 0, 2, 10)
	b := NewLayer(grid.Vertical, 1, 2, 10)
	s := a.Add(1, 3, 4, 7)
	b.Add(1, 3, 4, 7)
	mustPanic("Remove on another layer", func() { b.Remove(s) })
	a.Remove(s)
	mustPanic("second Layer.Remove", func() { a.Remove(s) })
	mustPanic("second Channel.Remove", func() { a.Chan(1).Remove(s) })
	if err := a.Audit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Audit(); err != nil {
		t.Fatal(err)
	}
}

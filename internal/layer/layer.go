// Package layer implements the paper's Section 4 data representation for
// one signal layer: an array of channels, each holding its segments in
// position order with a moving head-of-list cursor.
//
// Free space is never stored; it is inferred from the gaps between
// segments. The moving cursor exploits the strong locality of the access
// pattern while routing a single connection — the change from a binary
// tree of segments to a cursor-walked list halved grr's running time
// (Section 12; the tree variant is kept in this package for the
// corresponding ablation benchmark). The paper's list was doubly
// linked; here a channel is a packed array of int32 spans, so the
// cursor is an index walked over contiguous memory and a search reads
// no segment pointers at all. The *Segment records survive only as
// stable handles for the callers that remove metal later.
package layer

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/geom"
	"repro/internal/grid"
)

// ConnID identifies the owner of a segment. Non-negative IDs are routable
// connections; negative IDs are permanent obstacles that the router must
// never rip up.
type ConnID int32

const (
	// NoConn marks "no owner"; it never appears in a stored segment.
	NoConn ConnID = -100
	// PinOwner marks the unit segments occupying pin sites on every layer.
	PinOwner ConnID = -1
	// FillOwner marks temporary tesselation fill (Section 10.2). Fill is
	// permanent from the router's point of view but removable by the
	// tiles package between passes.
	FillOwner ConnID = -2
	// KeepoutOwner marks board-level keepouts (mounting holes, edges).
	KeepoutOwner ConnID = -3
)

// Permanent reports whether segments owned by id may never be ripped up.
func (id ConnID) Permanent() bool { return id < 0 }

// Segment is a used interval [Lo, Hi] of one channel, owned by one
// connection. Segments of a channel never overlap and are kept sorted.
// A *Segment is a stable handle: it stays valid for Remove however many
// neighbours are added or removed around it.
type Segment struct {
	Lo, Hi int
	Owner  ConnID

	ch int32 // 1 + index of the channel holding s; 0 once removed
}

// Interval returns the occupied range of s.
func (s *Segment) Interval() geom.Interval { return geom.Iv(s.Lo, s.Hi) }

// Channel returns the channel index s lives in, and is only valid while s
// is stored.
func (s *Segment) Channel() int { return int(s.ch) - 1 }

// Stored reports whether s is currently held by a channel. A false
// result means the segment handle is stale (its metal was removed).
func (s *Segment) Stored() bool { return s.ch != 0 }

// span is the packed [lo, hi] of one stored segment.
type span struct{ lo, hi int32 }

// Channel is one routing channel: the position-sorted spans of its
// segments, their handles in the same order, and the moving cursor that
// makes localized probes cheap.
type Channel struct {
	spans  []span     // sorted, disjoint
	segs   []*Segment // segs[i] is the handle of spans[i]
	cursor int        // index hint in [0, len(spans)]
	length int
	index  int
}

// Layer is one signal layer of the board.
type Layer struct {
	Orient grid.Orientation
	Index  int // position in the board's layer stack

	chans   []Channel
	chanLen int
}

// NewLayer builds an empty layer with the given orientation, channel
// count and channel length, occupying stack position index. Channel
// indices and positions are stored as int32.
func NewLayer(orient grid.Orientation, index, numChans, chanLen int) *Layer {
	if numChans > math.MaxInt32 || chanLen > math.MaxInt32 {
		panic("layer: channel count or length exceeds int32")
	}
	l := &Layer{
		Orient:  orient,
		Index:   index,
		chans:   make([]Channel, numChans),
		chanLen: chanLen,
	}
	for i := range l.chans {
		l.chans[i].length = chanLen
		l.chans[i].index = i
	}
	return l
}

// NumChannels returns the number of channels on the layer.
func (l *Layer) NumChannels() int { return len(l.chans) }

// ChannelLength returns the number of positions along each channel.
func (l *Layer) ChannelLength() int { return l.chanLen }

// Chan returns channel i.
func (l *Layer) Chan(i int) *Channel { return &l.chans[i] }

// Add inserts a segment [lo, hi] owned by owner into channel ch.
// It returns nil if the interval is out of range or collides with an
// existing segment; collisions are an expected outcome while probing
// alternatives, not an error condition.
func (l *Layer) Add(ch, lo, hi int, owner ConnID) *Segment {
	if ch < 0 || ch >= len(l.chans) {
		return nil
	}
	return l.chans[ch].Add(lo, hi, owner)
}

// Remove unlinks a previously added segment.
func (l *Layer) Remove(s *Segment) {
	if !s.Stored() {
		panic("layer: Remove of a segment that is not stored")
	}
	l.chans[s.Channel()].Remove(s)
}

// Index returns the channel index of c within its layer.
func (c *Channel) Index() int { return c.index }

// Len returns the number of segments stored in c.
func (c *Channel) Len() int { return len(c.spans) }

// locate positions the cursor on the first span with hi >= pos and
// returns its index (len(c.spans) if every segment ends below pos).
// Starting the walk from the previous cursor position is the paper's
// "moving head-of-list pointer"; the walk steps over adjacent spans in
// one array.
func (c *Channel) locate(pos int) int {
	sp := c.spans
	p := int32(pos)
	i := min(c.cursor, len(sp))
	for i < len(sp) && sp[i].hi < p {
		i++
	}
	for i > 0 && sp[i-1].hi >= p {
		i--
	}
	c.cursor = i
	return i
}

// Add inserts [lo, hi] owned by owner, returning the new segment or nil
// if the interval is invalid, out of channel bounds, or not free.
func (c *Channel) Add(lo, hi int, owner ConnID) *Segment {
	if lo > hi || lo < 0 || hi >= c.length {
		return nil
	}
	i := c.locate(lo) // first span with hi >= lo
	if i < len(c.spans) && int(c.spans[i].lo) <= hi {
		return nil // collision
	}
	s := &Segment{Lo: lo, Hi: hi, Owner: owner, ch: int32(c.index) + 1}
	c.spans = slices.Insert(c.spans, i, span{int32(lo), int32(hi)})
	c.segs = slices.Insert(c.segs, i, s)
	return s
}

// Remove unlinks s from c. Removing a segment that is not stored in c is
// a logic error and panics.
func (c *Channel) Remove(s *Segment) {
	i := c.locate(s.Lo)
	if i == len(c.segs) || c.segs[i] != s {
		panic("layer: Remove of segment from wrong channel")
	}
	c.spans = slices.Delete(c.spans, i, i+1)
	c.segs = slices.Delete(c.segs, i, i+1)
	s.ch = 0
}

// SegmentAt returns the segment covering pos, or nil if pos is free or
// out of range.
func (c *Channel) SegmentAt(pos int) *Segment {
	if pos < 0 || pos >= c.length {
		return nil
	}
	i := c.locate(pos)
	if i < len(c.spans) && int(c.spans[i].lo) <= pos {
		return c.segs[i]
	}
	return nil
}

// Free reports whether pos is unoccupied (false for out-of-range
// positions: off-board space is not usable).
func (c *Channel) Free(pos int) bool {
	if pos < 0 || pos >= c.length {
		return false
	}
	return c.SegmentAt(pos) == nil
}

// FreeInterval returns the maximal free interval containing pos.
// ok is false if pos is occupied or out of range.
func (c *Channel) FreeInterval(pos int) (iv geom.Interval, ok bool) {
	if pos < 0 || pos >= c.length {
		return geom.Interval{}, false
	}
	i := c.locate(pos)
	lo, hi := 0, c.length-1
	if i < len(c.spans) {
		if int(c.spans[i].lo) <= pos {
			return geom.Interval{}, false
		}
		hi = int(c.spans[i].lo) - 1
	}
	if i > 0 {
		lo = int(c.spans[i-1].hi) + 1
	}
	return geom.Iv(lo, hi), true
}

// VisitFree calls f for every maximal free interval of c that overlaps
// win, in increasing order, passing the *unclipped* maximal interval.
// Iteration stops early if f returns false. Callers clip to win
// themselves when needed; the unclipped bounds identify the interval
// uniquely, which the search algorithms use as a visited-set key.
func (c *Channel) VisitFree(win geom.Interval, f func(iv geom.Interval) bool) {
	win = win.Intersect(geom.Iv(0, c.length-1))
	if win.Empty() {
		return
	}
	i := c.locate(win.Lo) // first span with hi >= win.Lo
	sp := c.spans
	lo := 0
	if i > 0 {
		lo = int(sp[i-1].hi) + 1
	}
	for ; i < len(sp); i++ {
		if slo := int(sp[i].lo); lo < slo {
			iv := geom.Iv(lo, slo-1)
			if iv.Overlaps(win) && !f(iv) {
				return
			}
			if iv.Lo > win.Hi {
				return
			}
		}
		lo = int(sp[i].hi) + 1
		if lo > win.Hi {
			return
		}
	}
	if lo <= c.length-1 {
		f(geom.Iv(lo, c.length-1))
	}
}

// VisitUsed calls f for every segment of c overlapping win, in increasing
// order. Iteration stops early if f returns false.
func (c *Channel) VisitUsed(win geom.Interval, f func(s *Segment) bool) {
	win = win.Intersect(geom.Iv(0, c.length-1))
	if win.Empty() {
		return
	}
	sp, segs := c.spans, c.segs
	for i := c.locate(win.Lo); i < len(sp) && int(sp[i].lo) <= win.Hi; i++ {
		if !f(segs[i]) {
			return
		}
	}
}

// VisitSegments calls f for every stored segment of the layer, in
// channel order and position order within each channel — a canonical
// traversal, so two layers holding the same metal visit it identically
// regardless of insertion history. Iteration stops early if f returns
// false. Board fingerprinting and snapshot serialization are built on
// it.
func (l *Layer) VisitSegments(f func(ch int, s *Segment) bool) {
	for i := range l.chans {
		for _, s := range l.chans[i].segs {
			if !f(i, s) {
				return
			}
		}
	}
}

// audit validates the channel invariants, returning a description of the
// first violation found, or "" if the channel is consistent: the spans
// are in bounds, sorted and disjoint, and every handle is stored in this
// channel with the bounds of its span. Tests use it after randomized
// operation sequences.
func (c *Channel) audit() string {
	if len(c.segs) != len(c.spans) {
		return fmt.Sprintf("%d spans but %d handles", len(c.spans), len(c.segs))
	}
	for i, sp := range c.spans {
		iv := geom.Iv(int(sp.lo), int(sp.hi))
		if iv.Lo > iv.Hi || iv.Lo < 0 || iv.Hi >= c.length {
			return fmt.Sprintf("span %v out of bounds (len %d)", iv, c.length)
		}
		if i > 0 && c.spans[i-1].hi >= sp.lo {
			prev := c.spans[i-1]
			return fmt.Sprintf("spans %v and %v overlap or are unsorted", geom.Iv(int(prev.lo), int(prev.hi)), iv)
		}
		s := c.segs[i]
		if s == nil {
			return fmt.Sprintf("span %v has no handle", iv)
		}
		if s.Channel() != c.index {
			return fmt.Sprintf("segment %v has wrong channel backref", s.Interval())
		}
		if s.Interval() != iv {
			return fmt.Sprintf("handle %v disagrees with span %v", s.Interval(), iv)
		}
	}
	if c.cursor < 0 || c.cursor > len(c.spans) {
		return fmt.Sprintf("cursor %d outside [0, %d]", c.cursor, len(c.spans))
	}
	return ""
}

// Audit validates every channel of the layer; see Channel audit.
func (l *Layer) Audit() error {
	for i := range l.chans {
		if msg := l.chans[i].audit(); msg != "" {
			return fmt.Errorf("layer %d channel %d: %s", l.Index, i, msg)
		}
	}
	return nil
}

// Dump renders the layer as ASCII art for debugging: one row per channel,
// '.' for free and the last hex digit of the owner for used positions.
func (l *Layer) Dump() string {
	var b strings.Builder
	for i := range l.chans {
		row := make([]byte, l.chanLen)
		for j := range row {
			row[j] = '.'
		}
		for _, s := range l.chans[i].segs {
			mark := byte('#')
			if s.Owner >= 0 {
				mark = "0123456789abcdef"[int(s.Owner)%16]
			} else {
				switch s.Owner {
				case PinOwner:
					mark = 'P'
				case FillOwner:
					mark = 'F'
				case KeepoutOwner:
					mark = 'K'
				}
			}
			for p := s.Lo; p <= s.Hi; p++ {
				row[p] = mark
			}
		}
		fmt.Fprintf(&b, "%4d |%s|\n", i, row)
	}
	return b.String()
}

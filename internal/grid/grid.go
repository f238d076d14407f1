// Package grid defines the routing-grid model of the paper's Section 4:
// a fine routing grid with an embedded, coarser via grid, a stack of
// signal layers with preferred orientations, and the manufacturing
// dimensions of Figure 1 that motivate the grid spacing.
//
// Grid units are dimensionless integers. The via grid is embedded so that
// a via site occurs wherever both coordinates are multiples of Pitch
// (Pitch = TracksBetweenVias + 1; the paper's process allows two traces
// between 100-mil via pads, giving Pitch 3 and the irregular 42/16/16-mil
// physical spacing of Figure 3).
package grid

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Orientation is the preferred trace direction of a signal layer.
// Channels run along the preferred direction: a Horizontal layer's
// channels are rows (indexed by y), a Vertical layer's channels are
// columns (indexed by x).
type Orientation uint8

const (
	Horizontal Orientation = iota
	Vertical
)

func (o Orientation) String() string {
	if o == Horizontal {
		return "H"
	}
	return "V"
}

// Opposite returns the other orientation.
func (o Orientation) Opposite() Orientation {
	if o == Horizontal {
		return Vertical
	}
	return Horizontal
}

// Process captures the board manufacturing dimensions from Figure 1.
// It exists to derive and document the grid model; the router itself
// works purely in grid units.
type Process struct {
	TraceWidthMils   int // minimum trace width (8 in the paper)
	TraceSpaceMils   int // minimum trace-to-trace spacing (8)
	ViaPadMils       int // via pad diameter (60)
	ViaDrillMils     int // via drill diameter (37)
	PinPitchMils     int // minimum pin pitch of any part (100)
	TracksBetweenVia int // routing tracks fitting between adjacent via pads (2)
}

// DefaultProcess is the example process of Figure 1.
var DefaultProcess = Process{
	TraceWidthMils:   8,
	TraceSpaceMils:   8,
	ViaPadMils:       60,
	ViaDrillMils:     37,
	PinPitchMils:     100,
	TracksBetweenVia: 2,
}

// Pitch returns the number of routing grid units between adjacent via
// sites (TracksBetweenVia + 1).
func (p Process) Pitch() int { return p.TracksBetweenVia + 1 }

// Validate checks that the process can actually fit the stated number of
// tracks between via pads.
func (p Process) Validate() error {
	if p.TracksBetweenVia < 0 {
		return fmt.Errorf("grid: negative TracksBetweenVia %d", p.TracksBetweenVia)
	}
	need := p.ViaPadMils + p.TracksBetweenVia*(p.TraceWidthMils+p.TraceSpaceMils) + p.TraceSpaceMils
	if p.PinPitchMils < need {
		return fmt.Errorf("grid: pin pitch %d mils cannot fit %d tracks plus a %d-mil via pad (needs %d mils)",
			p.PinPitchMils, p.TracksBetweenVia, p.ViaPadMils, need)
	}
	return nil
}

// Config describes one routing problem's board geometry: the extent of
// the routing grid, the via-grid pitch, and the layer stack.
type Config struct {
	// Width and Height are the routing-grid extents; valid grid
	// coordinates are 0..Width-1 and 0..Height-1.
	Width, Height int
	// Pitch is the via-grid embedding: grid points with both
	// coordinates divisible by Pitch are via sites.
	Pitch int
	// Layers lists the preferred orientation of each signal layer,
	// outermost first. Power layers are not routed and do not appear.
	Layers []Orientation
}

// NewConfig builds a Config spanning viaCols × viaRows via sites with the
// given pitch and an alternating V/H layer stack of the given depth
// (layer 0 vertical, layer 1 horizontal, ...). Alternating stacks are the
// common practical choice; callers needing a custom stack fill Layers
// directly.
func NewConfig(viaCols, viaRows, pitch, layers int) Config {
	c := Config{
		Width:  (viaCols-1)*pitch + 1,
		Height: (viaRows-1)*pitch + 1,
		Pitch:  pitch,
		Layers: make([]Orientation, layers),
	}
	for i := range c.Layers {
		if i%2 == 0 {
			c.Layers[i] = Vertical
		} else {
			c.Layers[i] = Horizontal
		}
	}
	return c
}

// Validate reports configuration errors: non-positive extents or extents
// beyond the int32 range the layer store keeps positions in, a pitch
// that does not embed at least one via site, or an empty/unbalanced
// layer stack (routing needs at least one layer of each orientation to
// make L-shaped connections; a single-orientation stack can only route
// straight lines).
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("grid: non-positive board extent %dx%d", c.Width, c.Height)
	}
	if c.Width > math.MaxInt32 || c.Height > math.MaxInt32 {
		return fmt.Errorf("grid: board extent %dx%d exceeds the int32 range of channel positions", c.Width, c.Height)
	}
	if c.Pitch <= 0 {
		return fmt.Errorf("grid: non-positive via pitch %d", c.Pitch)
	}
	if len(c.Layers) == 0 {
		return fmt.Errorf("grid: no signal layers")
	}
	var h, v int
	for _, o := range c.Layers {
		if o == Horizontal {
			h++
		} else {
			v++
		}
	}
	if len(c.Layers) > 1 && (h == 0 || v == 0) {
		return fmt.Errorf("grid: layer stack has %d horizontal and %d vertical layers; need at least one of each", h, v)
	}
	return nil
}

// Bounds returns the full board rectangle in grid units.
func (c Config) Bounds() geom.Rect {
	return geom.R(0, 0, c.Width-1, c.Height-1)
}

// ViaCols returns the number of via-grid columns.
func (c Config) ViaCols() int { return (c.Width-1)/c.Pitch + 1 }

// ViaRows returns the number of via-grid rows.
func (c Config) ViaRows() int { return (c.Height-1)/c.Pitch + 1 }

// IsViaSite reports whether grid point p lies on the via grid.
func (c Config) IsViaSite(p geom.Point) bool {
	return p.X%c.Pitch == 0 && p.Y%c.Pitch == 0
}

// ViaOf converts a grid point on the via grid to via coordinates
// (integer quotients of the grid coordinates, as in the paper's via map).
// It panics if p is not a via site: via coordinates of an off-grid point
// are a logic error, not a recoverable condition.
func (c Config) ViaOf(p geom.Point) geom.Point {
	if !c.IsViaSite(p) {
		panic(fmt.Sprintf("grid: %v is not a via site (pitch %d)", p, c.Pitch))
	}
	return geom.Pt(p.X/c.Pitch, p.Y/c.Pitch)
}

// GridOf converts via coordinates back to the grid point of that site.
func (c Config) GridOf(via geom.Point) geom.Point {
	return geom.Pt(via.X*c.Pitch, via.Y*c.Pitch)
}

// NearestViaSite returns the via site closest to grid point p
// (ties resolve toward lower coordinates), clamped to the board.
func (c Config) NearestViaSite(p geom.Point) geom.Point {
	round := func(v, limit int) int {
		q := (v + c.Pitch/2) / c.Pitch * c.Pitch
		if q < 0 {
			q = 0
		}
		if q > limit {
			q = (limit / c.Pitch) * c.Pitch
		}
		return q
	}
	return geom.Pt(round(p.X, c.Width-1), round(p.Y, c.Height-1))
}

// ViaDist returns the separation of two grid points in whole via units
// along each axis (the dx, dy of Sections 6 and 8.1). The points need not
// be via sites; distances are measured in floor-divided via units.
func (c Config) ViaDist(a, b geom.Point) (dx, dy int) {
	dx = absDiff(a.X, b.X) / c.Pitch
	dy = absDiff(a.Y, b.Y) / c.Pitch
	return dx, dy
}

// ChannelCount returns how many channels a layer of orientation o has on
// this board.
func (c Config) ChannelCount(o Orientation) int {
	if o == Horizontal {
		return c.Height
	}
	return c.Width
}

// ChannelLength returns the extent of each channel (number of positions
// along the preferred direction) for orientation o.
func (c Config) ChannelLength(o Orientation) int {
	if o == Horizontal {
		return c.Width
	}
	return c.Height
}

// ChanPos splits grid point p into (channel index, position along
// channel) for a layer of orientation o.
func (c Config) ChanPos(o Orientation, p geom.Point) (ch, pos int) {
	if o == Horizontal {
		return p.Y, p.X
	}
	return p.X, p.Y
}

// PointAt reassembles a grid point from channel index and position for a
// layer of orientation o. It is the inverse of ChanPos.
func (c Config) PointAt(o Orientation, ch, pos int) geom.Point {
	if o == Horizontal {
		return geom.Pt(pos, ch)
	}
	return geom.Pt(ch, pos)
}

// ChanSpan projects rectangle r onto (channel range, position range) for
// orientation o.
func (c Config) ChanSpan(o Orientation, r geom.Rect) (chans, pos geom.Interval) {
	if o == Horizontal {
		return geom.Iv(r.MinY, r.MaxY), geom.Iv(r.MinX, r.MaxX)
	}
	return geom.Iv(r.MinX, r.MaxX), geom.Iv(r.MinY, r.MaxY)
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

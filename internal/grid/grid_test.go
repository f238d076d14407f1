package grid

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestDefaultProcess(t *testing.T) {
	if err := DefaultProcess.Validate(); err != nil {
		t.Fatalf("the paper's Figure 1 process should validate: %v", err)
	}
	if DefaultProcess.Pitch() != 3 {
		t.Errorf("pitch = %d, want 3 (two traces between vias)", DefaultProcess.Pitch())
	}
}

func TestProcessValidateRejects(t *testing.T) {
	p := DefaultProcess
	p.TracksBetweenVia = 4 // 100 mils cannot fit 4 tracks plus a 60-mil pad
	if err := p.Validate(); err == nil {
		t.Error("overfull process accepted")
	}
	p = DefaultProcess
	p.TracksBetweenVia = -1
	if err := p.Validate(); err == nil {
		t.Error("negative track count accepted")
	}
}

func TestNewConfig(t *testing.T) {
	c := NewConfig(10, 20, 3, 4)
	if c.Width != 28 || c.Height != 58 {
		t.Errorf("extents %dx%d, want 28x58", c.Width, c.Height)
	}
	if c.ViaCols() != 10 || c.ViaRows() != 20 {
		t.Errorf("via grid %dx%d, want 10x20", c.ViaCols(), c.ViaRows())
	}
	want := []Orientation{Vertical, Horizontal, Vertical, Horizontal}
	for i, o := range c.Layers {
		if o != want[i] {
			t.Errorf("layer %d = %v, want %v", i, o, want[i])
		}
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	huge := math.MaxInt32
	huge++ // past the int32 positions of the layer store (negative where int is 32 bits)
	bad := []Config{
		{Width: huge, Height: 5, Pitch: 3, Layers: []Orientation{Vertical}},
		{Width: 0, Height: 5, Pitch: 3, Layers: []Orientation{Vertical}},
		{Width: 5, Height: 5, Pitch: 0, Layers: []Orientation{Vertical}},
		{Width: 5, Height: 5, Pitch: 3, Layers: nil},
		{Width: 5, Height: 5, Pitch: 3, Layers: []Orientation{Vertical, Vertical}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	// A single layer of one orientation is allowed (degenerate but legal).
	one := Config{Width: 5, Height: 5, Pitch: 3, Layers: []Orientation{Vertical}}
	if err := one.Validate(); err != nil {
		t.Errorf("single-layer config rejected: %v", err)
	}
}

func TestViaSiteRoundTrip(t *testing.T) {
	c := NewConfig(10, 10, 3, 2)
	for vx := 0; vx < 10; vx++ {
		for vy := 0; vy < 10; vy++ {
			v := geom.Pt(vx, vy)
			g := c.GridOf(v)
			if !c.IsViaSite(g) {
				t.Fatalf("GridOf(%v) = %v is not a via site", v, g)
			}
			if got := c.ViaOf(g); got != v {
				t.Fatalf("ViaOf(GridOf(%v)) = %v", v, got)
			}
		}
	}
	if c.IsViaSite(geom.Pt(1, 0)) || c.IsViaSite(geom.Pt(0, 2)) || c.IsViaSite(geom.Pt(4, 4)) {
		t.Error("off-grid points reported as via sites")
	}
}

func TestViaOfPanicsOffGrid(t *testing.T) {
	c := NewConfig(10, 10, 3, 2)
	defer func() {
		if recover() == nil {
			t.Error("ViaOf should panic for off-grid points")
		}
	}()
	c.ViaOf(geom.Pt(1, 1))
}

func TestNearestViaSite(t *testing.T) {
	c := NewConfig(10, 10, 3, 2)
	cases := []struct{ in, want geom.Point }{
		{geom.Pt(0, 0), geom.Pt(0, 0)},
		{geom.Pt(1, 1), geom.Pt(0, 0)},
		{geom.Pt(2, 2), geom.Pt(3, 3)},
		{geom.Pt(26, 26), geom.Pt(27, 27)},
		{geom.Pt(27, 25), geom.Pt(27, 24)},
	}
	for _, cse := range cases {
		if got := c.NearestViaSite(cse.in); got != cse.want {
			t.Errorf("NearestViaSite(%v) = %v, want %v", cse.in, got, cse.want)
		}
	}
}

func TestNearestViaSiteAlwaysOnGridQuick(t *testing.T) {
	c := NewConfig(12, 9, 3, 2)
	f := func(x, y uint8) bool {
		p := geom.Pt(int(x)%c.Width, int(y)%c.Height)
		v := c.NearestViaSite(p)
		return c.IsViaSite(v) && v.In(c.Bounds())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestViaDist(t *testing.T) {
	c := NewConfig(10, 10, 3, 2)
	dx, dy := c.ViaDist(geom.Pt(0, 0), geom.Pt(9, 6))
	if dx != 3 || dy != 2 {
		t.Errorf("ViaDist = (%d,%d), want (3,2)", dx, dy)
	}
	dx, dy = c.ViaDist(geom.Pt(6, 3), geom.Pt(0, 3))
	if dx != 2 || dy != 0 {
		t.Errorf("ViaDist = (%d,%d), want (2,0)", dx, dy)
	}
}

func TestChanPosRoundTrip(t *testing.T) {
	c := NewConfig(5, 7, 3, 2)
	for _, o := range []Orientation{Horizontal, Vertical} {
		for x := 0; x < c.Width; x++ {
			for y := 0; y < c.Height; y++ {
				p := geom.Pt(x, y)
				ch, pos := c.ChanPos(o, p)
				if got := c.PointAt(o, ch, pos); got != p {
					t.Fatalf("PointAt(ChanPos(%v)) = %v on %v layer", p, got, o)
				}
				if ch < 0 || ch >= c.ChannelCount(o) || pos < 0 || pos >= c.ChannelLength(o) {
					t.Fatalf("ChanPos(%v) out of range on %v layer", p, o)
				}
			}
		}
	}
}

func TestChanSpan(t *testing.T) {
	c := NewConfig(5, 7, 3, 2)
	r := geom.R(1, 2, 3, 5)
	chans, pos := c.ChanSpan(Horizontal, r)
	if chans != geom.Iv(2, 5) || pos != geom.Iv(1, 3) {
		t.Errorf("Horizontal ChanSpan = %v,%v", chans, pos)
	}
	chans, pos = c.ChanSpan(Vertical, r)
	if chans != geom.Iv(1, 3) || pos != geom.Iv(2, 5) {
		t.Errorf("Vertical ChanSpan = %v,%v", chans, pos)
	}
}

func TestOrientation(t *testing.T) {
	if Horizontal.Opposite() != Vertical || Vertical.Opposite() != Horizontal {
		t.Error("Opposite wrong")
	}
	if Horizontal.String() != "H" || Vertical.String() != "V" {
		t.Error("String wrong")
	}
}

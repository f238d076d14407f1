// Package repro's root benchmark harness regenerates every quantitative
// result in the paper's evaluation (Table 1) and every in-text
// performance claim, one benchmark per experiment. See DESIGN.md §5 for
// the experiment index and EXPERIMENTS.md for paper-vs-measured numbers.
//
// Run everything:
//
//	go test -bench=. -benchmem .
//
// Custom metrics reported alongside ns/op:
//
//	routed%     completed connections
//	lee%        connections needing Lee's algorithm (Table 1 "% lee")
//	ripups      connections ripped up (Table 1 "rip ups")
//	vias/conn   vias added per connection (Table 1 "vias")
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/layer"
	"repro/internal/lee"
	"repro/internal/stringer"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// reportRun attaches the Table 1 metrics to a benchmark.
func reportRun(b *testing.B, res core.Result) {
	m := res.Metrics
	if m.Connections > 0 {
		b.ReportMetric(100*float64(m.Routed)/float64(m.Connections), "routed%")
	}
	b.ReportMetric(100*m.LeeShare(), "lee%")
	b.ReportMetric(float64(m.RipUps), "ripups")
	b.ReportMetric(m.ViasPerConn(), "vias/conn")
}

// benchBoard routes one Table 1 board per iteration.
func benchBoard(b *testing.B, name string, mutate func(*core.Options)) {
	spec, ok := workload.Table1Spec(name)
	if !ok {
		b.Fatalf("unknown board %s", name)
	}
	opts := core.DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	var last core.Result
	for i := 0; i < b.N; i++ {
		run, err := experiment.RouteSpec(spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = run.Result
	}
	reportRun(b, last)
}

// --- Experiment T1: Table 1, one benchmark per row -----------------------

func BenchmarkTable1_kdj11_2L(b *testing.B) { benchBoard(b, "kdj11-2L", nil) } // the published failure
func BenchmarkTable1_nmc_4L(b *testing.B)   { benchBoard(b, "nmc-4L", nil) }
func BenchmarkTable1_dpath(b *testing.B)    { benchBoard(b, "dpath", nil) }
func BenchmarkTable1_coproc(b *testing.B)   { benchBoard(b, "coproc", nil) }
func BenchmarkTable1_kdj11_4L(b *testing.B) { benchBoard(b, "kdj11-4L", nil) }
func BenchmarkTable1_icache(b *testing.B)   { benchBoard(b, "icache", nil) }
func BenchmarkTable1_nmc_6L(b *testing.B)   { benchBoard(b, "nmc-6L", nil) }
func BenchmarkTable1_dcache(b *testing.B)   { benchBoard(b, "dcache", nil) }
func BenchmarkTable1_tna(b *testing.B)      { benchBoard(b, "tna", nil) }

// --- Experiment E-STR: connection ordering (Section 3) -------------------
// The paper fed the same problem with nearest-neighbor and with random
// stringing: both completed, but the random version ran 25× longer
// (50 vs 2 CPU minutes). Escalation is disabled so the arms compare the
// plain algorithm.

func benchStringing(b *testing.B, random bool) {
	spec, _ := workload.Table1Spec("nmc-4L")
	opts := core.DefaultOptions()
	opts.Escalate = false
	var last core.Result
	for i := 0; i < b.N; i++ {
		run, err := experiment.RouteSpecStrung(spec, opts, stringer.Options{Random: random, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = run.Result
	}
	reportRun(b, last)
}

func BenchmarkStringing_Ordered(b *testing.B) { benchStringing(b, false) }
func BenchmarkStringing_Random(b *testing.B)  { benchStringing(b, true) }

// --- Experiment E-VMAP: the via map (Section 4) --------------------------
// Via-availability probes outnumber updates by orders of magnitude;
// maintaining the map instead of probing every layer's channels is a
// significant win.

func benchViaMap(b *testing.B, useMap bool) {
	// Lee-heavy traffic dominates via probing; the paper's 10²–10⁴
	// probe/update ratios come from exactly such boards.
	spec, _ := workload.Table1Spec("kdj11-2L")
	d, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	var probes, updates float64
	var last core.Result
	for i := 0; i < b.N; i++ {
		bd, err := board.New(d.GridConfig())
		if err != nil {
			b.Fatal(err)
		}
		bd.UseViaMap = useMap
		if err := d.PlacePins(bd); err != nil {
			b.Fatal(err)
		}
		sr, err := stringer.String(d, stringer.Options{})
		if err != nil {
			b.Fatal(err)
		}
		r, err := core.New(bd, sr.Conns, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = r.Route()
		probes = float64(bd.Vias.Probes)
		updates = float64(bd.Vias.Updates)
	}
	reportRun(b, last)
	b.ReportMetric(probes/updates, "probes/update")
}

func BenchmarkViaMap_On(b *testing.B)  { benchViaMap(b, true) }
func BenchmarkViaMap_Off(b *testing.B) { benchViaMap(b, false) }

// --- Experiment E-CHAN: channel list vs binary tree (Section 12) ---------
// "The change from binary tree to doubly linked list with a moving
// head-of-list pointer halved the running time on most problems." Our
// channel keeps the moving cursor but not the links: it is a sorted span
// array walked by an index cursor (internal/layer). The benchmark
// replays an identical, locality-heavy operation trace — the router's
// access pattern — against it and the tree.

type chanOp struct {
	kind byte // 'a' add, 'r' remove, 'p' probe
	lo   int
	hi   int
}

// channelTrace builds a deterministic router-like trace: bursts of nearby
// probes with occasional inserts and removals, the cursor-friendly
// pattern the paper describes. The trace is a pure function of its own
// local rng — never the global math/rand stream — so the two structure
// benchmarks always replay identical operations.
func channelTrace(seed int64, length, n int) []chanOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]chanOp, 0, n)
	center := length / 2
	for len(ops) < n {
		// A routing episode works a small neighborhood.
		center += rng.Intn(21) - 10
		if center < 10 {
			center = 10
		}
		if center > length-10 {
			center = length - 10
		}
		for burst := 0; burst < 24 && len(ops) < n; burst++ {
			pos := center + rng.Intn(15) - 7
			if pos < 0 || pos >= length {
				continue
			}
			switch rng.Intn(10) {
			case 0:
				ops = append(ops, chanOp{'a', pos, min(length-1, pos+rng.Intn(4))})
			case 1:
				ops = append(ops, chanOp{'r', pos, pos})
			default:
				ops = append(ops, chanOp{'p', pos, pos})
			}
		}
	}
	return ops
}

func BenchmarkChannel_List(b *testing.B) {
	const length = 660 // a 22-inch board edge in grid units
	ops := channelTrace(99, length, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := layer.NewLayer(grid.Vertical, 0, 1, length)
		c := l.Chan(0)
		for _, op := range ops {
			switch op.kind {
			case 'a':
				c.Add(op.lo, op.hi, 1)
			case 'r':
				if s := c.SegmentAt(op.lo); s != nil {
					c.Remove(s)
				}
			default:
				c.Free(op.lo)
			}
		}
	}
}

func BenchmarkChannel_Tree(b *testing.B) {
	const length = 660
	ops := channelTrace(99, length, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := layer.NewTreeChannel(length)
		for _, op := range ops {
			switch op.kind {
			case 'a':
				tc.Add(op.lo, op.hi, 1)
			case 'r':
				tc.RemoveAt(op.lo)
			default:
				tc.Free(op.lo)
			}
		}
	}
}

// --- Experiment E-COST: Lee cost functions (Section 8.2, mod 3) ----------
// cost=+1 reproduces original Lee (minimum vias, huge searches);
// cost=distance is greedy; cost=distance×hops is the production choice.

func benchCost(b *testing.B, cf core.CostFn) {
	benchBoard(b, "nmc-4L", func(o *core.Options) {
		o.Cost = cf
		o.Escalate = false
	})
}

func BenchmarkCost_DistTimesHops(b *testing.B) { benchCost(b, core.CostDistTimesHops) }
func BenchmarkCost_PlusOne(b *testing.B)       { benchCost(b, core.CostPlusOne) }
func BenchmarkCost_Distance(b *testing.B)      { benchCost(b, core.CostDistance) }

// --- Experiment E-BIDIR: bidirectional wavefronts (Section 8.2, mod 2) ---
// A connection whose far end is walled in is detected as blocked almost
// immediately when wavefronts spread from both ends; a single wavefront
// from the free end floods a large part of the board first.

func walledBoard(b *testing.B) (*board.Board, []core.Connection) {
	bd, err := board.New(grid.NewConfig(60, 60, 3, 2))
	if err != nil {
		b.Fatal(err)
	}
	a := bd.Cfg.GridOf(geom.Pt(2, 30))
	c := bd.Cfg.GridOf(geom.Pt(50, 30))
	if err := bd.PlacePin(a); err != nil {
		b.Fatal(err)
	}
	if err := bd.PlacePin(c); err != nil {
		b.Fatal(err)
	}
	// Wall c in completely on both layers.
	for li := 0; li < 2; li++ {
		o := bd.Layers[li].Orient
		for dx := -4; dx <= 4; dx++ {
			for dy := -4; dy <= 4; dy++ {
				if dx == 0 && dy == 0 {
					continue
				}
				p := c.Add(geom.Pt(dx, dy))
				ch, pos := bd.Cfg.ChanPos(o, p)
				bd.Layers[li].Add(ch, pos, pos, layer.KeepoutOwner)
			}
		}
	}
	return bd, []core.Connection{{A: a, B: c}}
}

func benchWavefront(b *testing.B, bidi bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bd, conns := walledBoard(b)
		opts := core.DefaultOptions()
		opts.Bidirectional = bidi
		opts.Escalate = false
		opts.CostCapFactor = 0 // measure raw blockage detection
		opts.MaxRipupRounds = 1
		r, err := core.New(bd, conns, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := r.Route()
		if res.Complete() {
			b.Fatal("walled connection should be unroutable")
		}
		b.StopTimer()
		b.ReportMetric(float64(res.Metrics.LeeExpansions), "expansions")
		b.StartTimer()
	}
}

func BenchmarkWavefront_Bidirectional(b *testing.B)  { benchWavefront(b, true) }
func BenchmarkWavefront_Unidirectional(b *testing.B) { benchWavefront(b, false) }

// --- Experiment E-NEIGH: via-hop vs cell neighbors (Section 8.2, mod 1) --
// The same board routed by grr and by the original cell-wavefront Lee
// router. grr's neighbor definition makes search cost proportional to
// segments examined, not distance.

func BenchmarkNeighbors_ViaHop(b *testing.B) {
	spec := workload.SmallSpec(31)
	opts := core.DefaultOptions()
	var last core.Result
	for i := 0; i < b.N; i++ {
		run, err := experiment.RouteSpec(spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = run.Result
	}
	reportRun(b, last)
}

func BenchmarkNeighbors_Cell(b *testing.B) {
	spec := workload.SmallSpec(31)
	d, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	var routed, cells float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bd, err := board.New(d.GridConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := d.PlacePins(bd); err != nil {
			b.Fatal(err)
		}
		sr, err := stringer.String(d, stringer.Options{})
		if err != nil {
			b.Fatal(err)
		}
		r := lee.New(bd, lee.Options{})
		b.StartTimer()
		m := r.Route(sr.Conns)
		routed = 100 * float64(m.Routed) / float64(len(sr.Conns))
		cells = float64(m.CellsExpanded)
	}
	b.ReportMetric(routed, "routed%")
	b.ReportMetric(cells, "cells")
}

// --- Experiment E-SORT: connection sorting (Section 6) -------------------

func BenchmarkSorting_On(b *testing.B) {
	benchBoard(b, "nmc-4L", func(o *core.Options) { o.Sort = true; o.Escalate = false })
}
func BenchmarkSorting_Off(b *testing.B) {
	benchBoard(b, "nmc-4L", func(o *core.Options) { o.Sort = false; o.Escalate = false })
}

// --- Experiment E-RAD: the radius parameter (Section 8.1) ----------------
// "Typical values of radius are 1 or 2 ... Large values of radius are
// counterproductive."

func BenchmarkRadius_1(b *testing.B) { benchBoard(b, "coproc", func(o *core.Options) { o.Radius = 1 }) }
func BenchmarkRadius_2(b *testing.B) { benchBoard(b, "coproc", func(o *core.Options) { o.Radius = 2 }) }
func BenchmarkRadius_3(b *testing.B) { benchBoard(b, "coproc", func(o *core.Options) { o.Radius = 3 }) }

// --- Experiment E-TUNE: length tuning (Section 10.1) ---------------------
// "This algorithm leads to acceptable performance if there are a few tens
// of length-tuned wires on a board. It is slow for hundreds of tuned
// wires." The cost-function arm reproduces the rejected first
// implementation.

func tuningBoard(b *testing.B, seed int64, tunedNets int) (*board.Board, *core.Router, *tuning.Tuner) {
	bd, err := board.New(grid.NewConfig(110, 110, 3, 4))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var conns []core.Connection
	for i := 0; i < tunedNets; i++ {
		for {
			a := bd.Cfg.GridOf(geom.Pt(2+rng.Intn(50), 2+rng.Intn(106)))
			c := a.Add(geom.Pt((10+rng.Intn(20))*3, (rng.Intn(9)-4)*3))
			if !c.In(bd.Cfg.Bounds()) {
				continue
			}
			if bd.PlacePin(a) != nil {
				continue
			}
			if bd.PlacePin(c) != nil {
				continue
			}
			conns = append(conns, core.Connection{A: a, B: c, TargetDelayPs: 600})
			break
		}
	}
	r, err := core.New(bd, conns, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if res := r.Route(); !res.Complete() {
		b.Fatal("tuning board did not route")
	}
	return bd, r, tuning.New(bd, r, tuning.DefaultSpeeds(4), tuning.DefaultOptions())
}

func benchTuning(b *testing.B, nets int) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, _, tn := tuningBoard(b, 7, nets)
		b.StartTimer()
		results := tn.TuneAll()
		b.StopTimer()
		tuned := 0
		for _, r := range results {
			if r.Tuned {
				tuned++
			}
		}
		b.ReportMetric(100*float64(tuned)/float64(len(results)), "tuned%")
		b.StartTimer()
	}
}

func BenchmarkTuning_Tens(b *testing.B)     { benchTuning(b, 20) }
func BenchmarkTuning_Hundreds(b *testing.B) { benchTuning(b, 200) }

func BenchmarkTuning_CostFunction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, r, tn := tuningBoard(b, 7, 20)
		b.StartTimer()
		ok, attempts := 0, 0
		for ci := range r.Conns {
			res := tn.TuneByCost(ci, 40)
			attempts += res.Attempts
			if res.Ok {
				ok++
			}
		}
		b.StopTimer()
		b.ReportMetric(100*float64(ok)/float64(len(r.Conns)), "tuned%")
		b.ReportMetric(float64(attempts)/float64(len(r.Conns)), "attempts/conn")
		b.StartTimer()
	}
}

// --- Experiment E-TILE: mixed ECL/TTL boards (Section 10.2) --------------

func BenchmarkMixedTech(b *testing.B) {
	spec := workload.SmallSpec(41)
	spec.TTLFraction = 0.4
	d, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	var routedECL, routedTTL float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bd, err := board.New(d.GridConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := d.PlacePins(bd); err != nil {
			b.Fatal(err)
		}
		sr, err := stringer.String(d, stringer.Options{})
		if err != nil {
			b.Fatal(err)
		}
		plan := mixedPlan(bd, d)
		b.StartTimer()
		passes, err := routeMixed(bd, sr.Conns, plan)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, p := range passes {
			pct := 100 * float64(p.Result.Metrics.Routed) / float64(p.Result.Metrics.Connections)
			if p.Class == "ECL" {
				routedECL = pct
			} else if p.Class == "TTL" {
				routedTTL = pct
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(routedECL, "ecl%")
	b.ReportMetric(routedTTL, "ttl%")
}

// --- Experiment E-TREE (extension): tree vs chain stringing --------------
// Section 3 notes the chain-only stringer is suboptimal because "TTL
// allows nets to be joined by trees, not just chains". The extension
// strings TTL nets as minimum spanning trees; the benchmark measures the
// wiring-demand reduction and its routing effect on a TTL-heavy board.

func benchTrees(b *testing.B, trees bool) {
	spec := workload.SmallSpec(51)
	spec.TTLFraction = 1.0
	spec.NetSizeMax = 5
	spec.TargetConns = 90
	var last core.Result
	demand := 0.0
	for i := 0; i < b.N; i++ {
		d, err := workload.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		sr, err := stringer.String(d, stringer.Options{Trees: trees})
		if err != nil {
			b.Fatal(err)
		}
		demand = float64(sr.TotalViaLen)
		bd, err := board.New(d.GridConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := d.PlacePins(bd); err != nil {
			b.Fatal(err)
		}
		r, err := core.New(bd, sr.Conns, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = r.Route()
	}
	reportRun(b, last)
	b.ReportMetric(demand, "demand-via-units")
}

func BenchmarkStringing_Chains(b *testing.B) { benchTrees(b, false) }
func BenchmarkStringing_Trees(b *testing.B)  { benchTrees(b, true) }

package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stringer"
	"repro/internal/verify"
	"repro/internal/workload"
)

// setupRounds is how many times a run sets up every board on its own,
// before routing, for setup_s. A round is well under a second next to
// a run of tens of seconds, and the median of many is steady.
const setupRounds = 9

// goalBoards are the table1-goal boards: together they carry about 96%
// of the sweep's Lee expansions, so the goal engine's lower-bound index
// is exercised where it matters.
var goalBoards = []string{"kdj11-2L", "nmc-4L", "dpath"}

// tableSpecs returns the boards of a table1 workload: the paper's Table
// 1 specs, shifted by --offset and shrunk in smoke mode.
func tableSpecs(cfg *config, goal bool) []workload.Spec {
	var specs []workload.Spec
	for _, s := range workload.Table1Specs() {
		if goal && !slices.Contains(goalBoards, s.Name) {
			continue
		}
		s.Seed += cfg.Offset
		if cfg.Smoke {
			s = s.Scale(8)
		}
		specs = append(specs, s)
	}
	return specs
}

// baseName strips the "-scaled" suffix smoke mode adds, so metric
// names stay the same at every size.
func baseName(s workload.Spec) string { return strings.TrimSuffix(s.Name, "-scaled") }

// prepared is one board ready to route, with its set-up step times.
type prepared struct {
	spec                        workload.Spec
	b                           *board.Board
	r                           *core.Router
	generate, place, str, coreN float64 // seconds
}

// prepare runs the set-up the router needs: workload.Generate, board.New
// with PlacePins, stringer.String and core.New.
func prepare(spec workload.Spec, opts core.Options) (*prepared, error) {
	p := &prepared{spec: spec}
	t := time.Now()
	d, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	p.generate = since(&t)
	b, err := board.New(d.GridConfig())
	if err != nil {
		return nil, err
	}
	if err := d.PlacePins(b); err != nil {
		return nil, err
	}
	p.place = since(&t)
	strung, err := stringer.String(d, stringer.Options{})
	if err != nil {
		return nil, err
	}
	p.str = since(&t)
	r, err := core.New(b, strung.Conns, opts)
	if err != nil {
		return nil, err
	}
	p.coreN = since(&t)
	p.b, p.r = b, r
	return p, nil
}

func (p *prepared) setup() float64 { return p.generate + p.place + p.str + p.coreN }

// since returns the seconds elapsed from *t and resets *t to now.
func since(t *time.Time) float64 {
	n := time.Now()
	d := n.Sub(*t).Seconds()
	*t = n
	return d
}

// passStats accumulates one pass over the board set.
type passStats struct {
	route, wall, alloc        float64
	conns, routed             int
	m                         core.Metrics // summed
	probes, updates, mutation uint64
}

// tableRun holds the state of a table1 or table1-goal run.
type tableRun struct {
	cfg    *config
	engine string // "classic" or "goal", the --ref prefix
	opts   core.Options
	specs  []workload.Spec
	rng    *rand.Rand
	out    *outcome
	// fps holds each board's fingerprint from its first pass; later
	// passes must reproduce it.
	fps map[string]uint64
	// boardTime holds each board's speed-scaled route times, one per
	// pass, and boardWall the same unscaled.
	boardTime, boardWall map[string][]float64
	// sc scales every set-up round and board route by the host speed
	// measured around it.
	sc      *scaler
	verifyS float64
	drcS    float64
}

func runTable1(cfg *config, goal bool) (*outcome, error) {
	t := &tableRun{
		cfg:       cfg,
		engine:    "classic",
		opts:      core.DefaultOptions(),
		specs:     tableSpecs(cfg, goal),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		out:       &outcome{metrics: metrics{}},
		fps:       map[string]uint64{},
		boardTime: map[string][]float64{},
		boardWall: map[string][]float64{},
		// Four rounds of floods (about 0.12 s) around each board, after
		// a full collection of the garbage the last board left.
		sc: newScaler(newKernel(4, true)),
	}
	if goal {
		t.opts.Engine = core.EngineGoal
		t.engine = "goal"
	}
	if cfg.Offset == 0 && !cfg.Smoke {
		for _, s := range t.specs {
			if _, ok := cfg.Refs[t.engine+":"+s.Name]; !ok {
				return nil, fmt.Errorf("no pinned fingerprint --ref=%s:%s:... for the reference problem", t.engine, s.Name)
			}
		}
	}
	t.out.prov = map[string]any{"engine": t.engine, "boards": len(t.specs)}

	// Set-up is timed on its own, setupRounds times before any routing;
	// setup_s is the median speed-scaled round.
	var setups []float64
	var setupSteps [][3]float64
	for i := 0; i < setupRounds; i++ {
		s, steps, err := t.setupRound()
		if err != nil {
			return nil, err
		}
		idx := []int{t.sc.add(s), t.sc.add(steps[0]), t.sc.add(steps[1]), t.sc.add(steps[2])}
		t.sc.flush()
		setups = append(setups, t.sc.scaled[idx[0]])
		setupSteps = append(setupSteps, [3]float64{t.sc.scaled[idx[1]], t.sc.scaled[idx[2]], t.sc.scaled[idx[3]]})
	}

	start := time.Now()
	var untraced []passStats
	var reg *obs.Registry
	var stopProfile func() error
	minPasses := 2
	if cfg.Trace {
		// One untraced pass first: the base of bench.trace_overhead_frac.
		ps, err := t.pass(nil)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, ps)
		reg = obs.NewRegistry()
		if stopProfile, err = startProfile(cfg); err != nil {
			return nil, err
		}
		minPasses = 1
	}
	rt0 := readRuntime()
	var passes []passStats
	for {
		ps, err := t.pass(reg)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps)
		el := time.Since(start).Seconds()
		if len(passes) >= minPasses && el+el/float64(len(passes)+len(untraced)) > cfg.Seconds {
			break
		}
	}
	rt1 := readRuntime()
	if stopProfile != nil {
		if err := stopProfile(); err != nil {
			return nil, err
		}
	}

	m := t.out.metrics
	if !cfg.Trace {
		var allocMB []float64
		conns, routed := 0, 0
		for _, ps := range passes {
			allocMB = append(allocMB, ps.alloc/1e6)
			conns += ps.conns
			routed += ps.routed
		}
		// One pass: each board's median speed-scaled route time over
		// the passes, summed, so a slow moment in one pass does not move
		// the total.
		// A job is one board, and its time is its median over the
		// passes, so the job quantiles fall on fixed ranks of the boards.
		sweep := 0.0
		var jobTimes []float64
		for _, times := range t.boardTime {
			sweep += median(times)
			jobTimes = append(jobTimes, median(times))
		}
		m.set("route_s", "s", sweep)
		m.set("setup_s", "s", median(setups))
		m.set("conn_routed_frac", "ratio", ratio(float64(routed), float64(conns)))
		m.set("alloc_mb", "MB", median(allocMB))
		m.set("peak_rss_mb", "MB", peakRSSMB())
		m.set("job_p50_s", "s", quantile(jobTimes, 0.5))
		m.set("job_p90_s", "s", quantile(jobTimes, 0.9))
		m.set("job_done_frac", "ratio", ratio(float64(t.out.attempted-t.out.failed), float64(t.out.attempted)))
	} else {
		t.traceMetrics(passes, untraced, setupSteps, scrape(reg), rt0, rt1)
	}
	t.out.prov["passes"] = len(passes)
	t.out.prov["host_speed"] = t.sc.k.hostSpeed()
	wall := 0.0
	for _, times := range t.boardWall {
		wall += median(times)
	}
	t.out.prov["route_wall_s"] = wall
	return t.out, nil
}

// setupRound prepares every board once and discards it, returning the
// summed set-up time and its generate/string/core.New parts.
func (t *tableRun) setupRound() (float64, [3]float64, error) {
	total := 0.0
	var steps [3]float64
	for _, s := range t.specs {
		p, err := prepare(s, t.opts)
		if err != nil {
			return 0, steps, err
		}
		total += p.setup()
		steps[0] += p.generate
		steps[1] += p.str
		steps[2] += p.coreN
	}
	return total, steps, nil
}

// pass sets up and routes every board once, in an order drawn from the
// workload seed, and checks each result after its route timer stops.
func (t *tableRun) pass(reg *obs.Registry) (passStats, error) {
	var ps passStats
	order := t.rng.Perm(len(t.specs))
	for _, i := range order {
		spec := t.specs[i]
		opts := t.opts
		opts.Metrics = reg
		p, err := prepare(spec, opts)
		if err != nil {
			return ps, err
		}
		p.b.Vias.ResetCounters()
		mut0 := p.b.Mutations()

		a0 := readRuntime().allocBytes
		t0 := time.Now()
		res := p.r.RouteContext(context.Background())
		idx := t.sc.add(time.Since(t0).Seconds())
		ps.alloc += readRuntime().allocBytes - a0
		t.sc.flush()
		dt := t.sc.scaled[idx]

		ps.route += dt
		ps.wall += t.sc.wall[idx]
		name := baseName(spec)
		t.boardTime[name] = append(t.boardTime[name], dt)
		t.boardWall[name] = append(t.boardWall[name], t.sc.wall[idx])
		ps.conns += res.Metrics.Connections
		ps.routed += res.Metrics.Routed
		addMetrics(&ps.m, res.Metrics)
		ps.probes += p.b.Vias.Probes
		ps.updates += p.b.Vias.Updates
		ps.mutation += p.b.Mutations() - mut0

		t.out.attempted++
		if !t.check(p, res) {
			t.out.failed++
		}
	}
	return ps, nil
}

// check is the correctness gate for one routed board: the run must
// finish, audit clean, reproduce the pinned fingerprint (reference
// problems) or its own first-pass fingerprint (every later pass), and,
// on its first pass, pass verify.Routed and a clean DRC.
func (t *tableRun) check(p *prepared, res core.Result) bool {
	name := p.spec.Name
	ok := true
	if res.Aborted != core.AbortNone {
		t.out.mismatch("%s: routing aborted: %v", name, res.Aborted)
		ok = false
	}
	if err := p.b.Audit(); err != nil {
		t.out.mismatch("%s: audit: %v", name, err)
		ok = false
	}
	fp := p.b.Fingerprint()
	if ref, pinned := t.cfg.Refs[t.engine+":"+name]; pinned && t.cfg.Offset == 0 {
		if got := fmt.Sprintf("%016x", fp); got != ref {
			t.out.mismatch("%s: fingerprint %s, pinned reference %s", name, got, ref)
			ok = false
		}
	}
	first, seen := t.fps[name]
	if !seen {
		t.fps[name] = fp
		v0 := time.Now()
		if err := verify.Routed(p.b, p.r); err != nil {
			t.out.mismatch("%s: verify: %v", name, err)
			ok = false
		}
		t.verifyS += time.Since(v0).Seconds()
		d0 := time.Now()
		if v := drc.Check(p.b, grid.DefaultProcess); len(v) > 0 {
			t.out.mismatch("%s: DRC: %d violations, first %v", name, len(v), v[0])
			ok = false
		}
		t.drcS += time.Since(d0).Seconds()
	} else if fp != first {
		t.out.mismatch("%s: fingerprint %016x differs from first pass %016x", name, fp, first)
		ok = false
	}
	return ok
}

func addMetrics(dst *core.Metrics, m core.Metrics) {
	dst.Connections += m.Connections
	dst.Routed += m.Routed
	dst.Failed += m.Failed
	for i := range m.ByMethod {
		dst.ByMethod[i] += m.ByMethod[i]
	}
	dst.RipUps += m.RipUps
	dst.PutBacks += m.PutBacks
	dst.ReRouted += m.ReRouted
	dst.LeeExpansions += m.LeeExpansions
	dst.LeeBlocked += m.LeeBlocked
	dst.TraceCalls += m.TraceCalls
	dst.ViasCalls += m.ViasCalls
	dst.Passes += m.Passes
}

// traceMetrics fills the per-layer metrics of a traced table1 run.
// Counts are per pass (every pass routes identical problems).
func (t *tableRun) traceMetrics(passes, untraced []passStats, setupSteps [][3]float64,
	reg map[string]float64, rt0, rt1 runtimeSample) {
	m := t.out.metrics
	n := float64(len(passes))
	var gen, str, cn []float64
	for _, s := range setupSteps {
		gen = append(gen, s[0])
		str = append(str, s[1])
		cn = append(cn, s[2])
	}
	m.set("workload.generate_s", "s", median(gen))
	m.set("stringer.string_s", "s", median(str))
	m.set("core.new_s", "s", median(cn))
	for _, s := range workload.Table1Specs() {
		// Boards outside the workload (table1-goal routes three) read 0.
		times := t.boardTime[s.Name]
		m.set("core.route_s."+s.Name, "s", median(times[max(0, len(times)-len(passes)):]))
	}
	var tot passStats
	var routeS []float64
	for _, ps := range passes {
		routeS = append(routeS, ps.route)
		tot.route += ps.route
		tot.wall += ps.wall
		addMetrics(&tot.m, ps.m)
		tot.probes += ps.probes
		tot.updates += ps.updates
		tot.mutation += ps.mutation
	}
	// The phase sums are wall time; scaling them by the traced passes'
	// speed-scaled ÷ wall route time makes them comparable with
	// core.route_s.<board>.
	for _, ph := range []string{"zero_via", "one_via", "lee", "put_back"} {
		m.set("core.phase."+ph+"_incl_s", "s", reg[`grr_router_phase_seconds_sum{phase="`+ph+`"}`]/n*ratio(tot.route, tot.wall))
	}
	setRouterCounts(m, tot.m, n)
	m.set("viamap.probes", "count", float64(tot.probes)/n)
	m.set("viamap.updates", "count", float64(tot.updates)/n)
	m.set("viamap.probes_per_update", "ratio", ratio(float64(tot.probes), float64(tot.updates)))
	m.set("board.mutations", "count", float64(tot.mutation)/n)
	setLB(m, []map[string]float64{reg}, n)
	m.set("runtime.gc_cpu_frac", "ratio", ratio(rt1.gcCPU-rt0.gcCPU, rt1.busyCPU-rt0.busyCPU))
	m.set("verify.routed_s", "s", t.verifyS)
	m.set("drc.check_s", "s", t.drcS)
	var base []float64
	for _, ps := range untraced {
		base = append(base, ps.route)
	}
	m.set("bench.trace_overhead_frac", "ratio", ratio(median(routeS), median(base))-1)
	m.set("bench.host_speed", "ratio", t.sc.k.hostSpeed())
}

// setRouterCounts publishes the core.Metrics-derived layer counts,
// divided by n (passes or jobs).
func setRouterCounts(m metrics, tm core.Metrics, n float64) {
	m.set("core.lee_expansions", "count", float64(tm.LeeExpansions)/n)
	m.set("core.lee_blocked", "count", float64(tm.LeeBlocked)/n)
	m.set("core.rip_ups", "count", float64(tm.RipUps)/n)
	m.set("core.put_backs", "count", float64(tm.PutBacks)/n)
	m.set("core.rerouted", "count", float64(tm.ReRouted)/n)
	m.set("core.passes", "count", float64(tm.Passes)/n)
	m.set("core.lee_share", "ratio", tm.LeeShare())
	m.set("core.optimal_share", "ratio", tm.OptimalShare())
	m.set("sla.trace_calls", "count", float64(tm.TraceCalls)/n)
	m.set("sla.vias_calls", "count", float64(tm.ViasCalls)/n)
}

// setLB publishes the goal engine's lower-bound index counters.
func setLB(m metrics, regs []map[string]float64, n float64) {
	q := sumSeries(regs, "grr_lb_queries_total")
	m.set("core.lb_builds", "count", sumSeries(regs, "grr_lb_builds_total")/n)
	m.set("core.lb_queries", "count", q/n)
	m.set("core.lb_hit_frac", "ratio", ratio(sumSeries(regs, "grr_lb_via_bound_hits_total"), q))
}

// startProfile starts a CPU profile for the traced run; the returned
// function stops it and closes the file.
func startProfile(cfg *config) (func() error, error) {
	dir := filepath.Join(cfg.Root, ".bench_build", "profiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, cfg.Workload+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "grrbench: CPU profile", path)
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/boardio"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/simfs"
	"repro/internal/stringer"
	"repro/internal/workload"
)

// fleetBoards are the Table 1 boards fleet jobs are made from: the four
// 16x22" Titan processor boards, one board class, so every routed job
// is the same size and the latency percentiles fall inside one dense
// cluster instead of in the gap between small and large boards.
var fleetBoards = []string{"dpath", "coproc", "icache", "dcache"}

const (
	// fleetScale shrinks the boards for fleet jobs: routing is then a
	// small share of a job's life and the service layers show.
	fleetScale = 4
	// resubmitEvery makes every fourth job resubmit an earlier design,
	// drawn from the last resubmitWindow fresh ones of the same rig.
	// The window is smaller than the coordinator's 64-entry route cache,
	// so every resubmit is a hit and every fresh design a miss: the hit
	// share is the same in every run.
	resubmitEvery  = 4
	resubmitWindow = 48
	// rigJobs is how many jobs one rig serves before the client moves
	// to a fresh one. A node keeps every job it has run in memory, so
	// without this the peak RSS would grow with the run's throughput.
	rigJobs = 160
	// inflight is the number of client workers, each with one job in
	// flight at a time. The coordinator places a job by a rendezvous
	// hash of its design, not by load, so with two in flight half the
	// jobs would queue behind the other on one node and the latencies
	// would split into two clusters. With one, no job ever waits for a
	// slot and a slow moment delays only the job it overlaps, and the
	// reference kernel can run between jobs while the fleet is idle.
	inflight = 1
	// fleetSetups is how many times a run starts the fleet for setup_s.
	// A start-up is a few milliseconds of journal and EPOCH fsyncs, so
	// it takes many to make the median steady.
	fleetSetups = 41
	// pollEvery is the client's status polling interval, fine next to
	// job latencies of 50-100 ms.
	pollEvery = 5 * time.Millisecond
	// jobWait bounds how long the client waits for one job before
	// counting it failed.
	jobWait = 60 * time.Second
)

// design is one distinct job input.
type design struct {
	board string
	body  []byte // the JobSpec JSON
	text  string // the design in boardio text form
}

// jobSource draws a phase's job sequence from the workload seed: the
// fresh designs cycle through fleetBoards (in a seeded order per cycle)
// with per-job seeds, and every resubmitEvery-th job repeats an earlier
// one of the current rig. The sequence depends only on the seed, not on
// which worker takes which job, so two phases with the same seed send
// the same jobs.
type jobSource struct {
	mu      sync.Mutex
	rng     *rand.Rand
	specs   []workload.Spec
	order   []int
	designs []design
	// rigDesign is the first design of the current rig, rigLeft the
	// jobs it still takes.
	rigDesign, rigLeft int
	// seq holds the design of each job handed out, in order, and jobs
	// what the client observed for it.
	seq  []int
	jobs []jobResult
}

func newJobSource(seed int64) *jobSource {
	src := &jobSource{rng: rand.New(rand.NewSource(seed))}
	for _, name := range fleetBoards {
		s, _ := workload.Table1Spec(name)
		src.specs = append(src.specs, s)
	}
	return src
}

// newRig starts the sequence of a fresh rig.
func (src *jobSource) newRig() {
	src.mu.Lock()
	src.rigDesign, src.rigLeft = len(src.designs), rigJobs
	src.mu.Unlock()
}

// next hands out the next job: its index and request body. ok is false
// once the current rig has had its rigJobs jobs.
func (src *jobSource) next() (k int, body []byte, ok bool, err error) {
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.rigLeft == 0 {
		return 0, nil, false, nil
	}
	src.rigLeft--
	k = len(src.seq)
	src.jobs = append(src.jobs, jobResult{})
	// The last two fresh designs may still be in flight; a resubmit
	// draws from before them.
	if k%resubmitEvery == resubmitEvery-1 && len(src.designs)-src.rigDesign > 2 {
		lo := max(src.rigDesign, len(src.designs)-resubmitWindow)
		d := lo + src.rng.Intn(len(src.designs)-2-lo)
		src.seq = append(src.seq, d)
		return k, src.designs[d].body, true, nil
	}
	if len(src.order) == 0 {
		src.order = src.rng.Perm(len(src.specs))
	}
	spec := src.specs[src.order[0]].Scale(fleetScale)
	src.order = src.order[1:]
	spec.Seed = src.rng.Int63n(1 << 31)
	d, err := workload.Generate(spec)
	if err != nil {
		return 0, nil, false, err
	}
	var sb strings.Builder
	if err := boardio.WriteDesign(&sb, d); err != nil {
		return 0, nil, false, err
	}
	body, err = json.Marshal(server.JobSpec{Design: sb.String()})
	if err != nil {
		return 0, nil, false, err
	}
	src.seq = append(src.seq, len(src.designs))
	src.designs = append(src.designs, design{board: spec.Name, body: body, text: sb.String()})
	return k, body, true, nil
}

func (src *jobSource) record(k int, jr jobResult) {
	src.mu.Lock()
	src.jobs[k] = jr
	src.mu.Unlock()
}

// rig is one running fleet: a coordinator and two worker nodes, each
// behind a real loopback listener.
type rig struct {
	coord    *fleet.Coordinator
	coordReg *obs.Registry
	coordSrv *http.Server
	coordURL string
	nodes    []*rigNode
	admit    *durations
}

type rigNode struct {
	srv    *server.Server
	reg    *obs.Registry
	http   *http.Server
	cancel context.CancelFunc
	agent  chan struct{} // closed when the agent goroutine returns
}

// durations is a goroutine-safe list of timings.
type durations struct {
	mu sync.Mutex
	v  []float64
}

func (d *durations) add(s float64) {
	d.mu.Lock()
	d.v = append(d.v, s)
	d.mu.Unlock()
}

func (d *durations) values() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.v...)
}

// serve starts an HTTP server for h on a fresh loopback port.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// startRig boots the coordinator and both nodes under dir and waits
// until the coordinator's /readyz answers 200.
func startRig(dir string, client *http.Client) (*rig, error) {
	r := &rig{coordReg: obs.NewRegistry(), admit: &durations{}}
	r.coord = fleet.New(fleet.Config{Metrics: r.coordReg})
	var err error
	if r.coordSrv, r.coordURL, err = serve(r.coord.Handler()); err != nil {
		r.coord.Close()
		return nil, err
	}
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("n%d", i)
		reg := obs.NewRegistry()
		journal := filepath.Join(dir, name)
		srv, err := server.New(server.Config{NodeName: name, Workers: 1, JournalDir: journal, Metrics: reg})
		if err != nil {
			r.stop()
			return nil, err
		}
		h := srv.Handler()
		admit := r.admit
		timed := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.Method != http.MethodPost || req.URL.Path != "/jobs" {
				h.ServeHTTP(w, req)
				return
			}
			t0 := time.Now()
			h.ServeHTTP(w, req)
			admit.add(time.Since(t0).Seconds())
		})
		hs, url, err := serve(timed)
		if err != nil {
			srv.Drain(context.Background())
			r.stop()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		n := &rigNode{srv: srv, reg: reg, http: hs, cancel: cancel, agent: make(chan struct{})}
		r.nodes = append(r.nodes, n)
		agent := fleet.NewAgent(fleet.AgentConfig{Node: name, Addr: url, Journal: journal,
			Coordinator: r.coordURL, Server: srv})
		go func() {
			defer close(n.agent)
			agent.Run(ctx)
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(r.coordURL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, nil
			}
		}
		if time.Now().After(deadline) {
			r.stop()
			return nil, errors.New("fleet never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the rig down and waits for every goroutine it started.
func (r *rig) stop() {
	for _, n := range r.nodes {
		n.cancel()
		<-n.agent
		n.http.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		n.srv.Drain(ctx)
		cancel()
	}
	r.coordSrv.Close()
	r.coord.Close()
}

// jobResult is what the client observed for one job.
type jobResult struct {
	// latency is speed-scaled, wall the same unscaled.
	latency, wall, submit float64
	hit, done, refused    bool
	status                server.Status
}

// phaseResult is one closed-loop phase.
type phaseResult struct {
	designs  []design
	seq      []int // the design of each job
	jobs     []jobResult
	rt0, rt1 runtimeSample
	scrapes  []map[string]float64 // every node of every rig
	coords   []map[string]float64 // every rig's coordinator
	admit    []float64
	fs       *fsStats
	// routeS holds the oracle's in-process route times per board.
	routeS map[string][]float64
}

// runPhase keeps inflight jobs running for dur, through a fresh rig
// for every rigJobs jobs, and waits for the last ones. With fsys set,
// the phase runs under that timing filesystem. Job latencies are
// speed-scaled by k run after every job.
func runPhase(cfg *config, client *http.Client, dir string, dur time.Duration, fsys *timingFS, k *kernel) (*phaseResult, error) {
	if fsys != nil {
		prev := simfs.Swap(fsys)
		defer simfs.Swap(prev)
	}
	src := newJobSource(cfg.Seed)
	pr := &phaseResult{}
	sc := newScaler(k)
	pr.rt0 = readRuntime()
	end := time.Now().Add(dur)
	for i := 0; time.Now().Before(end); i++ {
		r, err := startRig(filepath.Join(dir, fmt.Sprint(i)), client)
		if err != nil {
			return nil, err
		}
		src.newRig()
		err = drive(r, src, client, end, sc)
		for _, n := range r.nodes {
			pr.scrapes = append(pr.scrapes, scrape(n.reg))
		}
		pr.coords = append(pr.coords, scrape(r.coordReg))
		pr.admit = append(pr.admit, r.admit.values()...)
		r.stop()
		if err != nil {
			return nil, err
		}
	}
	pr.rt1 = readRuntime()
	if fsys != nil {
		st := fsys.stats()
		pr.fs = &st
	}
	pr.designs, pr.seq, pr.jobs = src.designs, src.seq, src.jobs
	return pr, nil
}

// drive runs inflight closed-loop workers against one rig until it has
// had its jobs or the phase ends, and waits for their last jobs. After
// each job, sc runs its kernel and scales the job's latency.
func drive(r *rig, src *jobSource, client *http.Client, end time.Time, sc *scaler) error {
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				k, body, ok, err := src.next()
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					return
				}
				jr := submitAndWait(client, r.coordURL, body)
				i := sc.add(jr.latency)
				sc.flush()
				jr.wall, jr.latency = jr.latency, sc.scaled[i]
				src.record(k, jr)
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// submitAndWait posts one job to the coordinator and polls it to a
// terminal state.
func submitAndWait(client *http.Client, base string, body []byte) jobResult {
	var jr jobResult
	t0 := time.Now()
	giveUp := t0.Add(jobWait)
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	jr.submit = time.Since(t0).Seconds()
	if err != nil {
		jr.refused = true
		return jr
	}
	var st server.Status
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	switch {
	case derr != nil:
		jr.refused = true
		return jr
	case resp.StatusCode == http.StatusOK && resp.Header.Get("X-Grr-Cache") == "hit":
		jr.hit = true
	case resp.StatusCode != http.StatusAccepted:
		jr.refused = true
		return jr
	}
	for !st.State.Terminal() {
		if time.Now().After(giveUp) {
			return jr
		}
		time.Sleep(pollEvery)
		resp, err := client.Get(base + "/jobs/" + st.ID)
		if err != nil {
			continue
		}
		var next server.Status
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&next) == nil {
			st = next
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	jr.latency = time.Since(t0).Seconds()
	jr.status = st
	jr.done = st.State == server.StateDone
	return jr
}

func runFleet(cfg *config) (*outcome, error) {
	out := &outcome{metrics: metrics{}}
	base := filepath.Join(cfg.Dir, fmt.Sprintf("fleet-%d", os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	tr := &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	out.prov = map[string]any{"inflight": inflight, "journal_fs": fsType(base), "scale": fleetScale}

	// One round of floods (about 30 ms) around each start-up, job and
	// group of oracle routes; no forced collection, which would take a
	// job's garbage out of the next job's latency.
	k := newKernel(1, false)
	defer func() { out.prov["host_speed"] = k.hostSpeed() }()

	// Set-up: start and join the whole fleet fleetSetups times; setup_s
	// is the median speed-scaled time to a 200 from the coordinator's
	// /readyz.
	sc := newScaler(k)
	for i := 0; i < fleetSetups; i++ {
		t0 := time.Now()
		r, err := startRig(filepath.Join(base, fmt.Sprintf("setup%d", i)), client)
		if err != nil {
			return nil, err
		}
		sc.add(time.Since(t0).Seconds())
		r.stop()
		sc.flush()
	}
	setups := sc.scaled

	dur := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		// Two phases on the same job sequence: untraced (the base of
		// bench.trace_overhead_frac), then traced.
		dur /= 2
	}
	plain, err := runPhase(cfg, client, filepath.Join(base, "plain"), dur, nil, k)
	if err != nil {
		return nil, err
	}
	if err := checkPhase(out, plain, k); err != nil {
		return nil, err
	}
	if !cfg.Trace {
		fleetMetrics(out, plain, setups)
		return out, nil
	}
	fsys := newTimingFS(simfs.Current())
	stop, err := startProfile(cfg)
	if err != nil {
		return nil, err
	}
	traced, err := runPhase(cfg, client, filepath.Join(base, "traced"), dur, fsys, k)
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	if err := checkPhase(out, traced, k); err != nil {
		return nil, err
	}
	fleetTraceMetrics(out, plain, traced)
	out.metrics.set("bench.host_speed", "ratio", k.hostSpeed())
	return out, nil
}

// checkPhase is the grrd-fleet correctness gate: every finished job
// must be done, audit clean and carry the fingerprint of an in-process
// experiment.RouteDesign of the same design; cache hits must return the
// fingerprint the first copy was served with. It also times that
// oracle, which is the phase's route_s, speed-scaled by k run after
// every oracleGroup designs.
func checkPhase(out *outcome, pr *phaseResult, k *kernel) error {
	const oracleGroup = 8
	oracle := make([]string, len(pr.designs))
	pr.routeS = map[string][]float64{}
	sc := newScaler(k)
	for i, d := range pr.designs {
		des, err := boardio.ReadDesign(strings.NewReader(d.text))
		if err != nil {
			return err
		}
		run, err := experiment.RouteDesign(des, core.DefaultOptions(), stringer.Options{})
		if err != nil {
			return err
		}
		sc.add(run.Elapsed.Seconds())
		if (i+1)%oracleGroup == 0 || i == len(pr.designs)-1 {
			sc.flush()
		}
		oracle[i] = fmt.Sprintf("%016x", run.Board.Fingerprint())
	}
	for i, d := range pr.designs {
		pr.routeS[d.board] = append(pr.routeS[d.board], sc.scaled[i])
	}
	first := map[int]string{}
	refused, unfinished, hits := 0, 0, 0
	for i, j := range pr.jobs {
		d := pr.seq[i]
		out.attempted++
		if j.hit {
			hits++
		}
		if !j.done {
			out.failed++
			if j.refused {
				refused++
			} else {
				unfinished++
			}
			continue
		}
		st := j.status
		if st.AuditOK == nil || !*st.AuditOK {
			out.mismatch("job %s (%s): audit_ok missing or false", st.ID, pr.designs[d].board)
		}
		if st.Fingerprint != oracle[d] {
			out.mismatch("job %s (%s): fingerprint %s, oracle %s", st.ID, pr.designs[d].board, st.Fingerprint, oracle[d])
		}
		if j.hit {
			if f, ok := first[d]; ok && f != st.Fingerprint {
				out.mismatch("job %s: cache hit fingerprint %s, first copy %s", st.ID, st.Fingerprint, f)
			}
		} else if _, ok := first[d]; !ok {
			first[d] = st.Fingerprint
		}
	}
	out.prov["jobs_refused"] = refused
	out.prov["jobs_not_done"] = unfinished
	out.prov["cache_hits"] = hits
	return nil
}

// latencies returns each job's submit-to-done time; a job that failed,
// was refused or never finished counts as jobWait, so it misses any
// latency limit.
func (pr *phaseResult) latencies() []float64 {
	var v []float64
	for _, j := range pr.jobs {
		if j.done {
			v = append(v, j.latency)
		} else {
			v = append(v, jobWait.Seconds())
		}
	}
	return v
}

func fleetMetrics(out *outcome, pr *phaseResult, setups []float64) {
	m := out.metrics
	conns, routed, done := 0, 0, 0
	for _, j := range pr.jobs {
		if j.done {
			done++
			conns += j.status.Conns
			routed += j.status.Routed
		}
	}
	lat := pr.latencies()
	// One scaled sweep: the median speed-scaled oracle route time of
	// each board, summed over fleetBoards.
	sweep := 0.0
	for _, v := range pr.routeS {
		sweep += median(v)
	}
	m.set("route_s", "s", sweep)
	m.set("setup_s", "s", median(setups))
	m.set("conn_routed_frac", "ratio", ratio(float64(routed), float64(conns)))
	m.set("alloc_mb", "MB", ratio((pr.rt1.allocBytes-pr.rt0.allocBytes)/1e6, float64(len(pr.jobs))))
	m.set("peak_rss_mb", "MB", peakRSSMB())
	m.set("job_p50_s", "s", quantile(lat, 0.5))
	m.set("job_p90_s", "s", quantile(lat, 0.9))
	m.set("job_done_frac", "ratio", ratio(float64(done), float64(len(pr.jobs))))
	var wall []float64
	for _, j := range pr.jobs {
		if j.done {
			wall = append(wall, j.wall)
		}
	}
	out.prov["job_p50_wall_s"] = quantile(wall, 0.5)
}

// fleetTraceMetrics fills the per-layer metrics from the traced phase;
// counts are totals over that phase.
func fleetTraceMetrics(out *outcome, plain, pr *phaseResult) {
	m := out.metrics
	var submits []float64
	var tm core.Metrics
	routedJobs := 0
	for _, j := range pr.jobs {
		if j.refused || j.hit {
			continue
		}
		submits = append(submits, j.submit)
		if j.done && j.status.Metrics != nil {
			addMetrics(&tm, *j.status.Metrics)
			routedJobs++
		}
	}
	sub50 := quantile(submits, 0.5)
	m.set("fleet.submit_p50_s", "s", sub50)
	m.set("fleet.submit_p95_s", "s", quantile(submits, 0.95))
	m.set("server.admit_s", "s", median(pr.admit))
	m.set("fleet.forward_overhead_s", "s", sub50-median(pr.admit))
	hits := sumSeries(pr.coords, "grr_fleet_cache_hits_total")
	m.set("fleet.cache_hit_frac", "ratio", ratio(hits, hits+sumSeries(pr.coords, "grr_fleet_cache_misses_total")))
	regs := pr.scrapes
	m.set("server.queue_wait_s", "s", ratio(sumSeries(regs, "grr_queue_wait_seconds_sum"), sumSeries(regs, "grr_queue_wait_seconds_count")))
	m.set("server.attempt_s", "s", ratio(sumSeries(regs, "grr_job_attempt_seconds_sum"), sumSeries(regs, "grr_job_attempt_seconds_count")))
	m.set("server.journal_writes_per_job", "ratio", ratio(sumSeries(regs, "grr_journal_writes_total"), sumSeries(regs, "grr_jobs_done_total")))
	fs := pr.fs
	m.set("simfs.fsyncs", "count", float64(fs.fsyncs))
	m.set("simfs.fsync_s", "s", fs.fsyncS)
	m.set("simfs.write_mb", "MB", fs.writeMB)
	m.set("boardio.atomic_write_s", "s", ratio(fs.atomicS, float64(fs.atomicWrites)))
	m.set("boardio.record_kb", "KB", ratio(fs.writeMB*1e3, float64(fs.atomicWrites)))
	for _, ph := range []string{"zero_via", "one_via", "lee", "put_back"} {
		m.set("core.phase."+ph+"_incl_s", "s", sumSeries(regs, `grr_router_phase_seconds_sum{phase="`+ph+`"}`))
	}
	setRouterCounts(m, tm, 1)
	setLB(m, regs, 1)
	m.set("runtime.gc_cpu_frac", "ratio", ratio(pr.rt1.gcCPU-pr.rt0.gcCPU, pr.rt1.busyCPU-pr.rt0.busyCPU))
	m.set("server.retries", "count", sumFamily(regs, "grr_jobs_retried_total"))
	m.set("fleet.forward_retries", "count", sumSeries(pr.coords, "grr_fleet_forward_retries_total"))
	m.set("fleet.rejects", "count", sumSeries(pr.coords, "grr_fleet_rejects_total"))
	m.set("bench.trace_overhead_frac", "ratio", ratio(quantile(pr.latencies(), 0.5), quantile(plain.latencies(), 0.5))-1)
	out.prov["routed_jobs"] = routedJobs
}

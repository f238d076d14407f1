// Command grrbench is the repository's benchmark: it drives the grr
// router and the grrd fleet from outside, through their public Go
// functions, checks every output it times, and prints one JSON result
// line. README.md in this directory documents the workloads, every
// metric and the layer each one belongs to.
//
// Usage (from the repository root, which run.sh builds it from):
//
//	bash grrbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0 \
//	    --ref=classic:kdj11-2L:9726ac68144f5825 ...
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set. A
// fingerprint, audit, verify, DRC or oracle mismatch prints the result
// with "correct": false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Offset shifts every Table 1 spec seed (0 = the paper's reference
	// problems, the only ones with pinned fingerprints).
	Offset int64
	// Refs maps "engine:board" to the pinned 16-hex fingerprint.
	Refs map[string]string
	// Smoke shrinks every workload to a seconds-long self-test.
	Smoke bool
	// Root is the checkout root; Dir is the directory for the run's
	// journals, under it.
	Root, Dir string
}

// result is the printed last line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named values with their units.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	metrics           metrics
	// mismatches lists every correctness failure; any entry fails the
	// run.
	mismatches []string
	prov       map[string]any
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

// layer is one per-layer metric a traced run prints.
type layer struct{ name, unit string }

// layers is the per-layer set, in BENCHMARK.json's order. Every traced
// run prints all of them; the self-test checks this list against
// BENCHMARK.json.
var layers = []layer{
	{"workload.generate_s", "s"},
	{"stringer.string_s", "s"},
	{"core.new_s", "s"},
	{"core.route_s.kdj11-2L", "s"},
	{"core.route_s.nmc-4L", "s"},
	{"core.route_s.dpath", "s"},
	{"core.route_s.coproc", "s"},
	{"core.route_s.kdj11-4L", "s"},
	{"core.route_s.icache", "s"},
	{"core.route_s.nmc-6L", "s"},
	{"core.route_s.dcache", "s"},
	{"core.route_s.tna", "s"},
	{"core.phase.zero_via_incl_s", "s"},
	{"core.phase.one_via_incl_s", "s"},
	{"core.phase.lee_incl_s", "s"},
	{"core.phase.put_back_incl_s", "s"},
	{"core.lee_expansions", "count"},
	{"core.lee_blocked", "count"},
	{"core.rip_ups", "count"},
	{"core.put_backs", "count"},
	{"core.rerouted", "count"},
	{"core.passes", "count"},
	{"core.lee_share", "ratio"},
	{"core.optimal_share", "ratio"},
	{"sla.trace_calls", "count"},
	{"sla.vias_calls", "count"},
	{"viamap.probes", "count"},
	{"viamap.updates", "count"},
	{"viamap.probes_per_update", "ratio"},
	{"board.mutations", "count"},
	{"core.lb_builds", "count"},
	{"core.lb_queries", "count"},
	{"core.lb_hit_frac", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"verify.routed_s", "s"},
	{"drc.check_s", "s"},
	{"fleet.submit_p50_s", "s"},
	{"fleet.submit_p95_s", "s"},
	{"server.admit_s", "s"},
	{"fleet.forward_overhead_s", "s"},
	{"fleet.cache_hit_frac", "ratio"},
	{"server.queue_wait_s", "s"},
	{"server.attempt_s", "s"},
	{"server.journal_writes_per_job", "ratio"},
	{"simfs.fsyncs", "count"},
	{"simfs.fsync_s", "s"},
	{"simfs.write_mb", "MB"},
	{"boardio.atomic_write_s", "s"},
	{"boardio.record_kb", "KB"},
	{"server.retries", "count"},
	{"fleet.forward_retries", "count"},
	{"fleet.rejects", "count"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.host_speed", "ratio"},
}

var workloads = map[string]func(*config) (*outcome, error){
	"table1":      func(c *config) (*outcome, error) { return runTable1(c, false) },
	"table1-goal": func(c *config) (*outcome, error) { return runTable1(c, true) },
	"grrd-fleet":  runFleet,
}

type refFlag map[string]string

func (r refFlag) String() string { return fmt.Sprint(map[string]string(r)) }

func (r refFlag) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) != 3 || (parts[0] != "classic" && parts[0] != "goal") || len(parts[2]) != 16 {
		return fmt.Errorf("want ENGINE:BOARD:16HEX with ENGINE classic or goal, got %q", s)
	}
	r[parts[0]+":"+parts[1]] = parts[2]
	return nil
}

func main() {
	cfg := config{Refs: map[string]string{}}
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: table1, table1-goal or grrd-fleet")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Int64Var(&cfg.Offset, "offset", 0, "held-out problems: shift every Table 1 spec seed by this much (checks audit, verify and DRC only)")
	flag.Var(refFlag(cfg.Refs), "ref", "pinned fingerprint ENGINE:BOARD:HEX (repeatable)")
	flag.BoolVar(&cfg.Smoke, "smoke", false, "tiny sizes, for the self-test")
	flag.StringVar(&cfg.Root, "root", ".", "checkout root; a run writes only under ROOT/.bench_build")
	flag.Parse()
	cfg.Trace = trace == 1
	cfg.Dir = filepath.Join(cfg.Root, ".bench_build", "run")

	res, prov, err := run(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grrbench:", err)
		os.Exit(2)
	}
	printReport(res, prov)
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result. An error means
// the run could not be made at all (bad flags, set-up failure);
// correctness failures come back as Correct == false.
func run(cfg *config) (*result, map[string]any, error) {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return nil, nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	out, err := fn(cfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Trace {
		// Every traced run prints the whole per-layer set; a layer the
		// workload does not exercise reads 0.
		for _, l := range layers {
			if _, ok := out.metrics[l.name]; !ok {
				out.metrics.set(l.name, l.unit, 0)
			}
		}
	}
	for _, m := range out.mismatches {
		fmt.Fprintln(os.Stderr, "grrbench: MISMATCH:", m)
	}
	res := &result{
		Correct:   len(out.mismatches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	prov := provenance(cfg)
	for k, v := range out.prov {
		prov[k] = v
	}
	return res, prov, nil
}

// printReport prints the provenance, a name/value/unit table, and the
// result object as the last line.
func printReport(res *result, prov map[string]any) {
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

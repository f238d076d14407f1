package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
)

// benchmarkMetrics reads the metrics BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd []string, perLayer []layer) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string }       `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, layer{m.Name, m.Unit})
	}
	return endToEnd, perLayer
}

func smokeConfig(t *testing.T, workload string, trace bool) *config {
	root := t.TempDir()
	return &config{
		Workload: workload, Seed: 7, Seconds: 1.5, Trace: trace,
		Refs: map[string]string{}, Smoke: true,
		Root: root, Dir: filepath.Join(root, ".bench_build", "run"),
	}
}

// TestLayersMatchBenchmark checks that the per-layer set a traced run
// prints is the one BENCHMARK.json declares, with the same units.
func TestLayersMatchBenchmark(t *testing.T) {
	_, perLayer := benchmarkMetrics(t)
	if !slices.Equal(perLayer, layers) {
		t.Fatalf("BENCHMARK.json per_layer %v\nlayers %v", perLayer, layers)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that the run is correct, that it emits exactly the
// metrics BENCHMARK.json declares, and that the traced run's CPU
// profile parses.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range []string{"table1", "table1-goal", "grrd-fleet"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				cfg := smokeConfig(t, w, trace)
				res, _, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := map[string]string{}
				for _, n := range endToEnd {
					want[n] = ""
				}
				if trace {
					want = map[string]string{}
					for _, l := range perLayer {
						want[l.name] = l.unit
					}
				}
				for n, unit := range want {
					got, ok := res.Metrics[n]
					if !ok {
						t.Errorf("metric %s not emitted", n)
					} else if unit != "" && got.Unit != unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", n, got.Unit, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(want))
				}
				if !trace {
					for _, n := range endToEnd {
						if res.Metrics[n].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", n, res.Metrics[n].Value)
						}
					}
					return
				}
				prof := filepath.Join(cfg.Root, ".bench_build", "profiles", w+".pprof")
				if out, err := exec.Command("go", "tool", "pprof", "-top", prof).CombinedOutput(); err != nil {
					t.Errorf("go tool pprof -top %s: %v\n%s", prof, err, out)
				}
			})
		}
	}
}

// TestHeldOutOffset runs held-out problems (--offset 1): the pinned
// references do not apply there, even a wrong one, and every board
// must still pass audit, verify and DRC.
func TestHeldOutOffset(t *testing.T) {
	cfg := smokeConfig(t, "table1", false)
	cfg.Offset = 1
	cfg.Refs["classic:tna-scaled"] = "0123456789abcdef"
	res, _, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("held-out run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestPinnedReferences checks the fingerprint gate both ways: the
// references an independent experiment.RouteSpec run produces pass,
// and one corrupted reference fails the run.
func TestPinnedReferences(t *testing.T) {
	cfg := smokeConfig(t, "table1", false)
	for _, s := range tableSpecs(cfg, false) {
		r, err := experiment.RouteSpec(s, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Refs["classic:"+s.Name] = fmt.Sprintf("%016x", r.Board.Fingerprint())
	}
	res, _, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("run with correct references failed")
	}

	bad := smokeConfig(t, "table1", false)
	bad.Refs = cfg.Refs
	bad.Refs["classic:tna-scaled"] = "0123456789abcdef"
	res, _, err = run(bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted reference passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestScaler checks speed-scaling: a span is scaled by refFloodS over
// the mean round time of the kernel runs right before and after it,
// and its wall time is kept.
func TestScaler(t *testing.T) {
	k := newKernel(1, false)
	sc := newScaler(k)
	i := sc.add(2)
	sc.flush()
	j := sc.add(3)
	sc.flush()
	if len(k.samples) != 3 {
		t.Fatalf("%d kernel runs, want 3", len(k.samples))
	}
	for n, c := range []struct {
		idx           int
		wall          float64
		before, after float64
	}{{i, 2, k.samples[0], k.samples[1]}, {j, 3, k.samples[1], k.samples[2]}} {
		want := c.wall * refFloodS / ((c.before + c.after) / 2)
		if got := sc.scaled[c.idx]; math.Abs(got-want) > 1e-12*want {
			t.Errorf("span %d scaled to %v, want %v", n, got, want)
		}
		if sc.wall[c.idx] != c.wall {
			t.Errorf("span %d wall %v, want %v", n, sc.wall[c.idx], c.wall)
		}
	}
	if n := k.flood(k.dist[0], k.queue[0]); n < calibSide*calibSide/2 {
		t.Errorf("flood reached %d cells, want most of %d", n, calibSide*calibSide)
	}
}

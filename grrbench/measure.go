package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/obs"
)

// quantile returns the p-quantile (0..1) of vs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeSample reads the cumulative heap-allocation and CPU-class
// counters of the Go runtime. The runtime updates the CPU classes only
// at each GC, so they suit a span that holds many GCs.
type runtimeSample struct {
	allocBytes float64
	// gcCPU is the CPU time spent on GC; busyCPU the CPU time spent on
	// anything (the total class, GOMAXPROCS × wall time, less idle).
	gcCPU, busyCPU float64
}

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), busyCPU: val(2) - val(3)}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// scrape reads every series of a registry through its own exposition
// format, the same text /metrics serves.
func scrape(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		return nil
	}
	m, err := obs.ParseExposition(&buf)
	if err != nil {
		return nil
	}
	return m
}

// sumSeries adds up the named series across registries' scrapes.
func sumSeries(scrapes []map[string]float64, name string) float64 {
	t := 0.0
	for _, s := range scrapes {
		t += s[name]
	}
	return t
}

// sumFamily adds up every labelled series of a family (e.g. all causes
// of grr_jobs_retried_total).
func sumFamily(scrapes []map[string]float64, family string) float64 {
	t := 0.0
	for _, s := range scrapes {
		for k, v := range s {
			if k == family || strings.HasPrefix(k, family+"{") {
				t += v
			}
		}
	}
	return t
}

// provenance describes where and how a result was measured.
func provenance(cfg *config) map[string]any {
	return map[string]any{
		"git_sha":    gitSHA(cfg.Root),
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"offset":     cfg.Offset,
		"seconds":    cfg.Seconds,
		"trace":      cfg.Trace,
		"smoke":      cfg.Smoke,
	}
}

// gitSHA reads HEAD from the checkout's .git directory without running
// git; a checkout exported without .git reports "unknown".
func gitSHA(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x794c7630: "overlayfs", 0x01021994: "tmpfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021997: "9p",
		0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

package main

import (
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on a share of a machine whose other tenants slow
// it down by 20-100% for seconds to minutes at a time, and the thread's
// CPU time slows by as much as its wall time, so neither clock repeats
// between runs minutes apart. Every timed span is therefore paired with
// a reference kernel run right before and right after it: breadth-first
// floods over a fixed maze, the same kind of memory-bound grid search
// the router does, written here in the benchmark so that no change to
// the program can speed it up or slow it down. One flood runs on every
// P at once, because the program's garbage collector and the fleet's
// goroutines use every P, so a tenant slowing any core slows the
// program. A span's speed-scaled time is its wall time × refFloodS ÷
// the mean flood time of the two kernel runs around it: the time the
// span would have taken on a host that runs the floods in refFloodS.

const (
	// calibSide is the maze's side in cells. Its 1M cells (9 MB of
	// distances, queue and walls per P) do not fit in cache, like a
	// board's grids.
	calibSide = 1024
	// refFloodS is the reference time of one round of floods: about
	// what a quiet 2-vCPU Xeon host takes. It only sets the unit of
	// scaled times, and it never changes, so scaled times stay
	// comparable across commits.
	refFloodS = 0.030
)

// kernel is the reference floods with their preallocated state; a run
// allocates nothing but its goroutines.
type kernel struct {
	// wall is the maze, shared read-only; src is an open cell near its
	// centre that every flood starts from.
	wall []bool
	src  int32
	// dist and queue are each P's own flood state.
	dist, queue [][]int32
	// floods is the number of rounds per run.
	floods int
	// collect makes every run start with a full garbage collection, so
	// garbage the program left behind is not collected inside the
	// kernel run or the span after it.
	collect bool
	// samples holds the time of one round in every run so far.
	samples []float64
}

func newKernel(floods int, collect bool) *kernel {
	k := &kernel{
		wall:    make([]bool, calibSide*calibSide),
		src:     calibSide*calibSide/2 + calibSide/2,
		floods:  floods,
		collect: collect,
	}
	x := uint32(12345)
	for i := range k.wall {
		x = x*1664525 + 1013904223
		k.wall[i] = x>>28 < 4 // a quarter of the cells blocked
	}
	k.wall[k.src] = false
	for p := runtime.GOMAXPROCS(0); p > 0; p-- {
		k.dist = append(k.dist, make([]int32, calibSide*calibSide))
		k.queue = append(k.queue, make([]int32, 0, calibSide*calibSide))
	}
	return k
}

// flood fills dist with every open cell's distance from k.src, using
// queue, and returns the number of cells reached.
func (k *kernel) flood(dist, queue []int32) int {
	wall := k.wall
	for i := range dist {
		dist[i] = -1
	}
	q := queue[:0]
	dist[k.src] = 0
	q = append(q, k.src)
	for h := 0; h < len(q); h++ {
		c := q[h]
		d := dist[c] + 1
		x := c % calibSide
		if x > 0 && !wall[c-1] && dist[c-1] < 0 {
			dist[c-1] = d
			q = append(q, c-1)
		}
		if x < calibSide-1 && !wall[c+1] && dist[c+1] < 0 {
			dist[c+1] = d
			q = append(q, c+1)
		}
		if c >= calibSide && !wall[c-calibSide] && dist[c-calibSide] < 0 {
			dist[c-calibSide] = d
			q = append(q, c-calibSide)
		}
		if c < calibSide*(calibSide-1) && !wall[c+calibSide] && dist[c+calibSide] < 0 {
			dist[c+calibSide] = d
			q = append(q, c+calibSide)
		}
	}
	return len(q)
}

// run floods the maze k.floods times on every P at once and returns the
// time of one round.
func (k *kernel) run() float64 {
	if k.collect {
		runtime.GC()
	}
	t := time.Now()
	var wg sync.WaitGroup
	for p := range k.dist {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < k.floods; i++ {
				k.flood(k.dist[p], k.queue[p])
			}
		}()
	}
	wg.Wait()
	s := time.Since(t).Seconds() / float64(k.floods)
	k.samples = append(k.samples, s)
	return s
}

// scaler turns a stream of spans into speed-scaled times. start runs
// the kernel once; then each span is added as it ends, and flush runs
// the kernel again and scales every span added since the last run by
// the mean of the two runs around them.
type scaler struct {
	k       *kernel
	prev    float64
	pending []int
	// scaled holds every span's speed-scaled seconds, in the order
	// they were added; a value is final once a flush has followed it.
	// wall holds the same spans unscaled.
	scaled, wall []float64
}

func newScaler(k *kernel) *scaler {
	s := &scaler{k: k}
	s.prev = k.run()
	return s
}

// add records a span of wall seconds and returns its index in scaled.
func (s *scaler) add(wall float64) int {
	s.scaled = append(s.scaled, wall)
	s.wall = append(s.wall, wall)
	s.pending = append(s.pending, len(s.scaled)-1)
	return len(s.scaled) - 1
}

// flush runs the kernel and scales the spans added since the last run.
func (s *scaler) flush() {
	cur := s.k.run()
	f := refFloodS / ((s.prev + cur) / 2)
	for _, i := range s.pending {
		s.scaled[i] *= f
	}
	s.pending = s.pending[:0]
	s.prev = cur
}

// hostSpeed is refFloodS ÷ the median flood time of every kernel run:
// above 1 on a host faster than the reference, below 1 on a slower one.
func (k *kernel) hostSpeed() float64 { return ratio(refFloodS, median(k.samples)) }

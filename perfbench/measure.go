package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// counters are the process-wide figures read at the edges of a timed
// region; their differences are the region's cost.
type counters struct {
	wall    time.Time
	cpu     time.Duration // own user + system time (getrusage)
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNs uint64
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return counters{
		wall: time.Now(), cpu: cpu,
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		numGC: ms.NumGC, pauseNs: ms.PauseTotalNs,
	}
}

// peakRSS returns the process's peak resident set (VmHWM) in bytes.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// opOutcome is what one timed operation reports to the loop.
type opOutcome struct {
	lat       float64 // seconds from start to completion
	latency   bool    // counts in the latency metrics
	failed    bool
	particles int // particles in successfully completed steps
}

// loopStats is a timed region: per-op latencies plus the process-wide
// counters' differences.
type loopStats struct {
	lat       []float64
	attempted int
	failed    int
	particles int64
	wall      float64
	cpu       float64
	mallocs   float64
	bytes     float64
	gcCycles  float64
	gcPause   float64
}

// recorder collects op outcomes from one or more client goroutines.
type recorder struct {
	mu sync.Mutex
	ls loopStats
}

func (r *recorder) record(o opOutcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ls.attempted++
	if o.failed {
		r.ls.failed++
	} else {
		r.ls.particles += int64(o.particles)
	}
	if o.latency {
		r.ls.lat = append(r.ls.lat, o.lat)
	}
}

// finish closes the timed region opened at c0.
func (r *recorder) finish(c0 counters) loopStats {
	c1 := readCounters()
	r.mu.Lock()
	defer r.mu.Unlock()
	ls := r.ls
	ls.wall = c1.wall.Sub(c0.wall).Seconds()
	ls.cpu = (c1.cpu - c0.cpu).Seconds()
	ls.mallocs = float64(c1.mallocs - c0.mallocs)
	ls.bytes = float64(c1.bytes - c0.bytes)
	ls.gcCycles = float64(c1.numGC - c0.numGC)
	ls.gcPause = float64(c1.pauseNs-c0.pauseNs) / 1e9
	return ls
}

// passRule decides, at each pass boundary, whether a run has measured
// enough: --seconds elapsed and at least MinOps latency ops, or, in a
// traced run, a fixed number of passes.
type passRule struct {
	start   time.Time
	seconds float64
	minOps  int
	passes  int // > 0: stop after exactly this many passes
}

func (o opts) rule(passes int) passRule {
	return passRule{start: time.Now(), seconds: o.seconds, minOps: o.size.MinOps, passes: passes}
}

func (p passRule) done(passesRun, latOps int) bool {
	if p.passes > 0 {
		return passesRun >= p.passes
	}
	return time.Since(p.start).Seconds() >= p.seconds && latOps >= p.minOps
}

// closedLoop runs op in whole passes of passLen operations, one at a time
// (a single closed-loop client), until rule says the run is done.
func closedLoop(rule passRule, passLen int, op func(i int) (opOutcome, error)) (loopStats, error) {
	var rec recorder
	c0 := readCounters()
	for pass := 0; !rule.done(pass, len(rec.ls.lat)); pass++ {
		for i := 0; i < passLen; i++ {
			out, err := op(i)
			if err != nil {
				return loopStats{}, err
			}
			rec.record(out)
		}
	}
	return rec.finish(c0), nil
}

// settle ends set-up: one forced GC so the timed region starts from the
// same heap state on every run.
func settle() { runtime.GC() }

// median returns the middle of xs (mean of the two middles), 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-percentile latency with at least ten ops beyond
// it: the eleventh largest. Below eleven ops it returns the largest.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[max(len(s)-11, 0)]
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the benchmark's bounds are judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// endToEnd appends the end-to-end metrics of a timed region.
func endToEnd(r *result, setupS float64, ls loopStats) error {
	rss, err := peakRSS()
	if err != nil {
		return err
	}
	ops := float64(ls.attempted)
	r.add("setup_s", "s", setupS)
	r.add("op_s_p50", "s", median(ls.lat))
	r.add("op_s_tail", "s", tail(ls.lat))
	r.add("ops_per_s", "1/s", ops/ls.wall)
	r.add("particles_per_s", "1/s", float64(ls.particles)/ls.wall)
	r.add("cpu_s_per_op", "s", ls.cpu/ops)
	r.add("allocs_per_op", "count", ls.mallocs/ops)
	r.add("alloc_bytes_per_op", "bytes", ls.bytes/ops)
	r.add("peak_rss_bytes", "bytes", rss)
	return nil
}

// printEndToEnd writes the end-to-end figures of a region as one
// human-readable line on stdout, for a traced run to show next to its
// per-layer metrics.
func printEndToEnd(label string, ls loopStats) {
	ops := float64(ls.attempted)
	fmt.Printf("%s: ops=%d failed=%d op_s_p50=%.4f op_s_tail=%.4f ops_per_s=%.3f particles_per_s=%.0f cpu_s_per_op=%.4f allocs_per_op=%.0f alloc_bytes_per_op=%.0f\n",
		label, ls.attempted, ls.failed, median(ls.lat), tail(ls.lat), ops/ls.wall,
		float64(ls.particles)/ls.wall, ls.cpu/ops, ls.mallocs/ops, ls.bytes/ops)
}

// repeatSetup runs setup n times, closing all but the last instance, and
// returns the last instance and the median set-up time. The first set-up
// is timed from process start; before each later one the closed instance
// is collected, so every set-up starts from a similar heap.
func repeatSetup[T any](n int, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var cur T
	var times []float64
	start := processStart
	for i := 0; i < max(n, 1); i++ {
		if i > 0 {
			closeFn(cur)
			runtime.GC()
			start = time.Now()
		}
		v, err := setup()
		if err != nil {
			return cur, 0, err
		}
		cur = v
		times = append(times, time.Since(start).Seconds())
	}
	return cur, median(times), nil
}

// relErr is |a-b| relative to |b|.
func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// timeIt returns f's wall time in seconds.
func timeIt(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// allocDelta measures f's wall time and its heap allocations (count and
// bytes) on a quiet heap.
func allocDelta(f func() error) (secs, allocs, bytes float64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	err = f()
	secs = time.Since(t0).Seconds()
	runtime.ReadMemStats(&b)
	return secs, float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc), err
}

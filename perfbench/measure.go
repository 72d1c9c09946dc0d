package main

// Measurement helpers: order statistics, process resource usage, the
// hpmtel snapshot deltas the traced run reads, and the tracer that times
// calls into each layer's public functions from outside.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// calRefS is what one calibrate call takes on the reference machine (a
// shared 2-vCPU Intel Xeon VM at 2.0 GHz). Reported timings are scaled to
// that speed: raw seconds × calRefS / calibration seconds.
const calRefS = 0.33

// calRow is a row of the table calibrate round-trips through gzip and
// JSON.
type calRow struct {
	ID   int
	Name string
	Vals []float64
}

// calibrate times a fixed piece of standard-library work that does not
// touch the program: fill and sort a million floats on one thread, copy
// 4 MiB buffers back and forth on GOMAXPROCS threads at once, then
// gzip-and-JSON encode a fixed table and decode it again, as the
// workloads do all three. It builds its inputs and touches its buffers
// before the clock starts, with no collector work pending; everything
// is garbage when it returns, and every operation starts from a
// collected heap, so no operation's resident set includes it.
//
// The host's speed drifts by a quarter and more over tens of seconds.
// The program's time over the median of the calibrations taken through
// the same run drifts far less: no one kind of work tracked every
// workload, the three together did best.
func calibrate() float64 {
	rows := make([]calRow, 4000)
	for i := range rows {
		rows[i] = calRow{ID: i, Name: strconv.Itoa(i * 7919), Vals: []float64{float64(i) / 3, float64(i) * 1.7, 1 / float64(i+1)}}
	}
	floats := make([]float64, 1<<20)
	bufs := make([][2][]byte, runtime.GOMAXPROCS(0))
	for i := range bufs {
		bufs[i] = [2][]byte{make([]byte, 4<<20), make([]byte, 4<<20)}
		for j := range bufs[i][1] {
			bufs[i][1][j] = byte(j)
		}
		clear(bufs[i][0])
	}
	clear(floats)
	debug.FreeOSMemory()

	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := range floats {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		floats[i] = float64(x>>11) / (1 << 53)
	}
	sort.Float64s(floats)
	var wg sync.WaitGroup
	for _, b := range bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				copy(b[0], b[1])
				copy(b[1], b[0])
			}
		}()
	}
	wg.Wait()
	for range 2 {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		json.NewEncoder(zw).Encode(rows)
		zw.Close()
		zr, _ := gzip.NewReader(&buf)
		var back []calRow
		json.NewDecoder(zr).Decode(&back)
	}
	return time.Since(t0).Seconds()
}

// hostScale converts raw seconds measured during a run into
// reference-machine seconds, given the run's calibrations.
func hostScale(cals []float64) float64 {
	return calRefS / median(cals)
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set (VmHWM), so the next peakRSS is one operation's own; it
// reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSS is the peak resident set in MiB since resetPeakRSS, or, where
// that could not be reset, since the process started.
func peakRSS(reset bool) float64 {
	if reset {
		b, err := os.ReadFile("/proc/self/status")
		if err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
					if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	return peakRSSMB()
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// allocMB is the cumulative heap allocation so far, in MiB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// telSnap flattens an hpmtel snapshot: counters by name, histograms as
// name+".sum" and name+".count".
type telSnap map[string]float64

func readTel() telSnap {
	snap := telemetry.Default.Snapshot()
	m := make(telSnap, len(snap.Counters)+2*len(snap.Histograms))
	for _, c := range snap.Counters {
		m[c.Name] = float64(c.Value)
	}
	for _, h := range snap.Histograms {
		m[h.Name+".sum"] = h.Sum
		m[h.Name+".count"] = float64(h.Count)
	}
	return m
}

// since is the growth of one series from s0 to s1.
func since(s0, s1 telSnap, name string) float64 { return s1[name] - s0[name] }

// nsToS converts an hpmtel nanosecond sum to seconds.
func nsToS(ns float64) float64 { return ns / 1e9 }

// tracer collects one traced operation's per-layer figures. A nil
// tracer is an untraced operation: every method is a no-op and the
// wrapped calls run bare.
type tracer struct {
	m map[string]float64
}

func newTracer() *tracer { return &tracer{m: make(map[string]float64)} }

// span times f into the named per-layer metric (accumulating).
func (t *tracer) span(name string, f func()) {
	if t == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	t.m[name] += time.Since(t0).Seconds()
}

// set records a per-layer figure.
func (t *tracer) set(name string, v float64) {
	if t != nil {
		t.m[name] = v
	}
}

// add accumulates into a per-layer figure.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.m[name] += v
	}
}

// generator wraps a campaign's generate stage so every GenerateDay call
// is timed and its jobs counted; untraced, g is returned unchanged.
func (t *tracer) generator(g workload.Generator) workload.Generator {
	if t == nil {
		return g
	}
	return timedGenerator{t: t, g: g}
}

type timedGenerator struct {
	t *tracer
	g workload.Generator
}

func (tg timedGenerator) GenerateDay(day int) workload.DayPlan {
	t0 := time.Now()
	p := tg.g.GenerateDay(day)
	tg.t.m["workload.generate_s"] += time.Since(t0).Seconds()
	tg.t.m["workload.jobs_generated"] += float64(len(p.Jobs))
	return p
}

// reducer wraps a campaign's reduce stage so every ReduceDay and Finish
// call is timed; untraced, r is returned unchanged.
func (t *tracer) reducer(r workload.Reducer) workload.Reducer {
	if t == nil {
		return r
	}
	return timedReducer{t: t, r: r}
}

type timedReducer struct {
	t *tracer
	r workload.Reducer
}

func (tr timedReducer) ReduceDay(d workload.Day) {
	t0 := time.Now()
	tr.r.ReduceDay(d)
	tr.t.m["workload.reduce_s"] += time.Since(t0).Seconds()
}

func (tr timedReducer) Finish(f workload.Final) {
	t0 := time.Now()
	tr.r.Finish(f)
	tr.t.m["workload.reduce_s"] += time.Since(t0).Seconds()
}

// engineLayers fills the workload and pbs figures of a traced operation
// from the hpmtel deltas of the staged engine. campaignS is the time
// spent inside campaign runs (RunInto, or the fleet's per-cluster runs);
// generate and reduce are taken from the tracer's wrappers when present,
// otherwise from hpmtel.
func engineLayers(t *tracer, s0, s1 telSnap, campaignS float64) {
	if t == nil {
		return
	}
	if _, ok := t.m["workload.generate_s"]; !ok {
		t.m["workload.generate_s"] = nsToS(since(s0, s1, "workload.campaign.generate_ns.sum"))
	}
	if _, ok := t.m["workload.reduce_s"]; !ok {
		t.m["workload.reduce_s"] = nsToS(since(s0, s1, "workload.campaign.reduce_ns.sum"))
	}
	simulate := campaignS - t.m["workload.generate_s"] - t.m["workload.reduce_s"]
	tick := nsToS(since(s0, s1, "workload.campaign.tick_ns.sum"))
	sampled := since(s0, s1, "workload.engine.nodes_sampled")
	sample := nsToS(since(s0, s1, "workload.engine.sample_ns.sum"))
	t.m["workload.simulate_s"] = simulate
	t.m["workload.tick_s"] = tick
	t.m["workload.advance_s"] = nsToS(since(s0, s1, "workload.engine.advance_ns.sum"))
	t.m["workload.sample_s"] = sample
	t.m["workload.ticks"] = since(s0, s1, "workload.campaign.ticks")
	t.m["workload.jobs_advanced"] = since(s0, s1, "workload.engine.jobs_advanced")
	t.m["workload.nodes_sampled"] = sampled
	t.m["workload.ns_per_node_sample"] = ratio(sample*1e9, sampled)
	t.m["pbs.schedule_s"] = simulate - tick
}

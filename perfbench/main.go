// Command perfbench is the repository's benchmark: four workloads that
// exercise the pipeline from spec to analysis, the fleet and persistence
// layers, and the rs2hpm collection path, each run for a fixed window
// with its output checked.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload paper-campaign --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a traced run instead. The line before it describes the run
// (seed, CPUs, Go version, shape, persisted sizes). The exit code is 0
// only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// unattributedLimit is the share of a traced batch operation's wall
// clock that may fall outside every layer span before the run fails.
const unattributedLimit = 0.05

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	shape    shape
	dir      string
	// mutate, when set, alters each operation's output before it is
	// checked; the self-test uses it to prove corruption is caught.
	mutate func(out any)
}

// endToEnd and perLayer name every metric with its unit, in the order
// BENCHMARK.json lists them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"samples_per_s", "1/s"},
}

var perLayer = []struct{ name, unit string }{
	{"spec.resolve_s", "s"},
	{"profile.measure_s", "s"},
	{"profile.sim_instrs_per_s", "instr/s"},
	{"profile.store_hits", "count"},
	{"profile.store_misses", "count"},
	{"workload.generate_s", "s"},
	{"workload.jobs_generated", "count"},
	{"workload.reduce_s", "s"},
	{"workload.simulate_s", "s"},
	{"workload.tick_s", "s"},
	{"workload.advance_s", "s"},
	{"workload.sample_s", "s"},
	{"workload.ticks", "count"},
	{"workload.jobs_advanced", "count"},
	{"workload.nodes_sampled", "count"},
	{"workload.ns_per_node_sample", "ns"},
	{"workload.alloc_mb", "MB"},
	{"pbs.schedule_s", "s"},
	{"pbs.records", "count"},
	{"pbs.dropped_records", "count"},
	{"faults.expected", "count"},
	{"faults.captured", "count"},
	{"faults.lost_node_s", "node-s"},
	{"fleet.live_s", "s"},
	{"fleet.cluster_s", "s"},
	{"fleet.shard_busy_frac", "frac"},
	{"fleet.checkpoint_s", "s"},
	{"fleet.checkpoints_written", "count"},
	{"fleet.checkpoint_bytes", "B"},
	{"replay.run_s", "s"},
	{"replay.bytes_written", "B"},
	{"replay.bytes_read", "B"},
	{"replay.encode_s", "s"},
	{"replay.decode_s", "s"},
	{"trace.db_encode_s", "s"},
	{"trace.db_decode_s", "s"},
	{"trace.db_json_mb", "MB"},
	{"trace.db_gz_mb", "MB"},
	{"trace.db_encode_mb_per_s", "MB/s"},
	{"trace.db_decode_mb_per_s", "MB/s"},
	{"trace.db_encode_alloc_mb", "MB"},
	{"trace.db_decode_alloc_mb", "MB"},
	{"analysis.render_s", "s"},
	{"analysis.table4_s", "s"},
	{"analysis.npb_s", "s"},
	{"analysis.whatif_s", "s"},
	{"rs2hpm.sweep_s", "s"},
	{"rs2hpm.sweep_p50_ms", "ms"},
	{"rs2hpm.sweep_p99_ms", "ms"},
	{"rs2hpm.wire_bytes_per_sample", "B/sample"},
	{"rs2hpm.batches", "count"},
	{"rs2hpm.fallbacks", "count"},
	{"rs2hpm.pool_reuse_frac", "frac"},
	{"rs2hpm.retries", "count"},
	{"rs2hpm.gaps", "count"},
	{"rs2hpm.ingest_dropped", "count"},
	{"rs2hpm.ingest_rejected", "count"},
	{"bench.cpu_s", "s"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.unattributed_frac", "frac"},
}

func main() {
	var cfg config
	var traceFlag int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: %v", names))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	if _, ok := lookup(cfg.workload); !ok || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.shape = paperShape

	// Files the workloads write stay inside the checkout's build directory.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.dir = dir
	rep, meta := run(cfg)
	os.RemoveAll(dir)

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"run": meta}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one invocation: set-up repeated shape.SetupReps times
// (each including the golden-recipe check), then operations until the
// window closes. A traced run alternates untraced and traced operations,
// so its overhead is measured in the same process.
func run(cfg config) (report, map[string]any) {
	def, _ := lookup(cfg.workload)
	e := env{seed: cfg.seed, shape: cfg.shape, workers: runtime.GOMAXPROCS(0), dir: cfg.dir}
	rep := report{Correct: true, Metrics: map[string]metric{}}
	meta := map[string]any{
		"workload":           cfg.workload,
		"seed":               cfg.seed,
		"seconds":            cfg.seconds,
		"trace":              cfg.trace,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"unattributed_limit": unattributedLimit,
	}
	switch cfg.workload {
	case "paper-campaign", "archive":
		meta["days"], meta["nodes"] = cfg.shape.Days, cfg.shape.Nodes
	case "durable-fleet":
		meta["clusters"], meta["shards"] = cfg.shape.Clusters, cfg.shape.Shards
	case "collect":
		meta["daemons"], meta["nodes"] = cfg.shape.Daemons, cfg.shape.Daemons*cfg.shape.NodesPerDaemon
	}
	fail := func(format string, args ...any) {
		rep.Correct = false
		rep.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}

	// Calibrations before and after every set-up and operation give the
	// run's host speed (see calibrate).
	var (
		r      runner
		setups []float64
		cals   = []float64{calibrate()}
	)
	for i := 0; i < cfg.shape.SetupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		rep.Attempted++
		if err := goldenCheck(e.workers); err != nil {
			fail("%v", err)
		}
		var err error
		r, err = def.setup(e)
		setups = append(setups, time.Since(t0).Seconds())
		cals = append(cals, calibrate())
		if err != nil {
			fail("%s set-up: %v", cfg.workload, err)
			return finish(cfg.trace, rep), meta
		}
	}
	meta["setup_s"] = setups

	var untraced, traced []opOut
	var untracedCPU []float64
	var traces []map[string]float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	minOps := cfg.shape.MinOps
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		var t *tracer
		if cfg.trace && n%2 == 1 {
			t = newTracer()
		}
		// Start each operation from a collected heap returned to the OS,
		// as a fresh process would, so its resident peak is its own.
		debug.FreeOSMemory()
		c0 := cpuSeconds()
		reset := resetPeakRSS()
		o, err := r.op(t)
		o.rss = peakRSS(reset)
		cpu := cpuSeconds() - c0
		cals = append(cals, calibrate())
		if def.batch {
			rep.Attempted++
		} else {
			rep.Attempted += int(o.reads)
			rep.Failed += int(o.readFails)
		}
		if err == nil {
			if cfg.mutate != nil {
				cfg.mutate(o.out)
			}
			err = r.check(&o)
		}
		if err != nil {
			switch {
			case def.batch:
				rep.Failed++
			case o.reads > 0:
				// A session that fails its check loses all its reads.
				rep.Failed += int(o.reads - o.readFails)
			default:
				rep.Attempted++
				rep.Failed++
			}
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			continue
		}
		o.out = nil // checked; let the collector have it before the next operation
		for k, v := range o.meta {
			meta[k] = v
		}
		if t == nil {
			untraced = append(untraced, o)
			untracedCPU = append(untracedCPU, cpu)
			continue
		}
		traced = append(traced, o)
		covered := 0.0
		for _, name := range def.top {
			covered += t.m[name]
		}
		un := 1 - covered/o.wall
		t.m["bench.unattributed_frac"] = un
		if def.batch && un > unattributedLimit {
			fail("%s: traced operation leaves %.3f of its wall clock unattributed, limit %.2f", cfg.workload, un, unattributedLimit)
		}
		traces = append(traces, t.m)
	}
	meta["ops"] = len(untraced) + len(traced)
	var walls, rss []float64
	for _, o := range untraced {
		walls = append(walls, o.wall)
		rss = append(rss, o.rss)
	}
	meta["op_walls"] = walls
	meta["op_rss_mb"] = rss
	meta["calibration_s"] = cals
	if !def.batch {
		meta["sweeps"] = (len(untraced) + len(traced)) * cfg.shape.Sweeps
	}
	if cfg.trace {
		rep.Metrics = layerMetrics(traces, traced, untraced, untracedCPU)
	} else {
		rep.Metrics = endToEndMetrics(setups, untraced, rep, hostScale(cals))
	}
	return finish(cfg.trace, rep), meta
}

// finish fills any metric the run could not measure with 0, so every
// name is present whatever happened.
func finish(trace bool, rep report) report {
	list := endToEnd
	if trace {
		list = perLayer
	}
	for _, m := range list {
		if _, ok := rep.Metrics[m.name]; !ok {
			rep.Metrics[m.name] = metric{0, m.unit}
		}
	}
	if rep.Attempted == 0 {
		rep.Attempted = 1
		rep.Failed = 1
		rep.Correct = false
	}
	return rep
}

// endToEndMetrics reports times in reference-machine seconds: raw times
// multiplied by scale, the run's hostScale.
func endToEndMetrics(setups []float64, ops []opOut, rep report, scale float64) map[string]metric {
	// Times are medians over operations, so a burst of host interference
	// that covers a minority of them cannot move them. An operation's
	// resident peak depends on where the collector's cycles fall, which
	// scatters it evenly between the live heap and the heap goal; the mean
	// over operations settles that faster than the median.
	var walls, rss, rates []float64
	for _, o := range ops {
		wall := o.wall * scale
		walls = append(walls, wall)
		rss = append(rss, o.rss)
		rates = append(rates, ratio(o.samples, wall))
	}
	v := map[string]float64{
		"setup_s":       median(setups) * scale,
		"wall_s":        median(walls),
		"peak_rss_mb":   sum(rss) / float64(max(len(rss), 1)),
		"ok_frac":       1 - float64(rep.Failed)/float64(max(rep.Attempted, 1)),
		"samples_per_s": median(rates),
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// layerMetrics reports the median over traced operations of every
// per-layer figure, plus the tracing overhead against the untraced
// operations of the same run.
func layerMetrics(traces []map[string]float64, traced, untraced []opOut, untracedCPU []float64) map[string]metric {
	out := map[string]metric{}
	for _, m := range perLayer {
		var xs []float64
		for _, tm := range traces {
			xs = append(xs, tm[m.name])
		}
		out[m.name] = metric{median(xs), m.unit}
	}
	var tw, uw []float64
	for _, o := range traced {
		tw = append(tw, o.wall)
	}
	for _, o := range untraced {
		uw = append(uw, o.wall)
	}
	if len(tw) > 0 && len(uw) > 0 {
		out["bench.trace_overhead_frac"] = metric{median(tw)/median(uw) - 1, "frac"}
	}
	if len(untracedCPU) > 0 {
		out["bench.cpu_s"] = metric{median(untracedCPU), "s"}
	}
	return out
}

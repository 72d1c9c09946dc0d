package main

// The four workloads. Each has a set-up, an operation that calls the
// program's public functions the way its command-line tools do, and an
// output check that runs outside the timed region. Operations time only
// program work; a traced operation additionally times each layer's calls
// from outside and reads the hpmtel deltas of layers that have no public
// call boundary of their own.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/fleet"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/rs2hpm/loadtest"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shape sizes the workloads. paperShape is what the benchmark runs; the
// self-test runs a tiny one.
type shape struct {
	Days, Nodes             int // paper-campaign and archive campaigns
	FleetDays               int // durable-fleet days per cluster; 0 keeps the preset's
	Clusters, Shards        int
	Daemons, NodesPerDaemon int
	Sweeps                  int // collect: sweeps per operation
	SetupReps               int // set-ups per run; setup_s is their median
	MinOps                  int // operations per run at least
}

var paperShape = shape{
	Days: 270, Nodes: 144,
	Clusters: 2, Shards: 2,
	Daemons: 2, NodesPerDaemon: 72, Sweeps: 1000,
	SetupReps: 3, MinOps: 2,
}

// env is what every workload's set-up receives.
type env struct {
	seed    uint64
	shape   shape
	workers int    // GOMAXPROCS, the CLIs' default engine width
	dir     string // scratch directory for the files a workload writes
}

// opOut is one operation's result.
type opOut struct {
	wall    float64 // seconds of program work
	rss     float64 // peak resident set while the operation ran, MiB
	samples float64 // node samples handled
	// reads and readFails count node reads (collect only); a batch
	// workload's unit of failure is the whole operation.
	reads, readFails float64
	// meta carries the run's shape and persisted sizes for the run
	// metadata.
	meta map[string]float64
	// out is the operation's output, verified by check.
	out any
}

type runner interface {
	op(t *tracer) (opOut, error)
	check(o *opOut) error
}

type workloadDef struct {
	name  string
	batch bool
	// top lists the per-layer spans that partition a traced operation's
	// wall clock; the rest is bench.unattributed_frac.
	top   []string
	setup func(env) (runner, error)
}

var workloads = []workloadDef{
	{
		name:  "paper-campaign",
		batch: true,
		top: []string{"spec.resolve_s", "profile.measure_s", "workload.generate_s",
			"workload.simulate_s", "workload.reduce_s", "analysis.render_s"},
		setup: setupPaper,
	},
	{
		name:  "durable-fleet",
		batch: true,
		top:   []string{"fleet.live_s", "replay.run_s"},
		setup: setupFleet,
	},
	{
		name:  "archive",
		batch: true,
		top: []string{"trace.db_encode_s", "trace.db_decode_s", "analysis.render_s",
			"analysis.table4_s", "analysis.whatif_s", "analysis.npb_s",
			"replay.encode_s", "replay.decode_s"},
		setup: setupArchive,
	},
	{
		name:  "collect",
		top:   []string{"rs2hpm.sweep_s"},
		setup: setupCollect,
	},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// goldenHash is the program's pinned campaign hash: seed 7, 2 days,
// standard profiles, fnv-64a over the JSON Result.
const goldenHash uint64 = 0x88ee6c33b8c0bd5c

func resultHash(r workload.Result) uint64 {
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(r); err != nil {
		return 0
	}
	return h.Sum64()
}

// goldenCheck runs the golden recipe and compares its hash.
func goldenCheck(workers int) error {
	std := profile.MeasureStandardStore(profile.NewStore(), 7, workers)
	cfg := workload.DefaultConfig(7)
	cfg.Days = 2
	cfg.Workers = workers
	if h := resultHash(workload.NewCampaign(cfg, workload.DefaultMix(std)).Run()); h != goldenHash {
		return fmt.Errorf("golden recipe hashes to %#x, want %#x", h, goldenHash)
	}
	return nil
}

// ticksPerDay is the campaign's sampling sweeps per simulated day.
func ticksPerDay(cfg workload.Config) float64 {
	if cfg.SamplePeriodSeconds <= 0 {
		return 96
	}
	return 86400 / cfg.SamplePeriodSeconds
}

// timeCampaign runs f, a campaign run, and in a traced operation fills
// the workload and pbs layers from its wall time and hpmtel deltas.
func timeCampaign(t *tracer, f func()) {
	if t == nil {
		f()
		return
	}
	s0, a0 := readTel(), allocMB()
	t0 := time.Now()
	f()
	runS := time.Since(t0).Seconds()
	s1 := readTel()
	engineLayers(t, s0, s1, runS)
	t.set("workload.alloc_mb", allocMB()-a0)
}

// sameHash checks determinism across the operations of one run: the
// first operation's hash becomes the reference.
func sameHash(ref *uint64, h uint64, what string) error {
	if *ref == 0 {
		*ref = h
		return nil
	}
	if h != *ref {
		return fmt.Errorf("%s hash %#x differs from this run's first operation %#x", what, h, *ref)
	}
	return nil
}

// ---- paper-campaign -------------------------------------------------

// paperRunner makes the calls spsim makes through core, one layer at a
// time: load the spec, measure the standard profiles on a fresh store,
// resolve, run the campaign at the default engine width, then render
// Tables 2/3 and Figures 1-5.
type paperRunner struct {
	env
	ref uint64
}

type paperOut struct {
	res  workload.Result
	text string
}

func setupPaper(e env) (runner, error) {
	if _, err := spec.Load("paper-1996"); err != nil {
		return nil, err
	}
	return &paperRunner{env: e}, nil
}

func (r *paperRunner) op(t *tracer) (opOut, error) {
	var (
		sp  *spec.Spec
		std profile.Standard
		cfg workload.Config
		mix workload.Mix
		err error
		rr  workload.ResultReducer
	)
	store := profile.NewStore()
	start := time.Now()
	t.span("spec.resolve_s", func() { sp, err = spec.Load("paper-1996") })
	if err != nil {
		return opOut{}, err
	}
	t.span("profile.measure_s", func() { std = profile.MeasureStandardStore(store, r.seed, r.workers) })
	t.span("spec.resolve_s", func() { cfg, mix, err = spec.Resolve(sp, std) })
	if err != nil {
		return opOut{}, err
	}
	cfg.Seed, cfg.Workers = r.seed, r.workers
	cfg.Days, cfg.Nodes = r.shape.Days, r.shape.Nodes
	timeCampaign(t, func() {
		c := workload.NewCampaign(cfg, mix)
		if t != nil {
			c.SetGenerator(t.generator(workload.NewGenerator(cfg, mix)))
		}
		c.RunInto(t.reducer(&rr))
	})
	res := rr.Result()
	var text strings.Builder
	t.span("analysis.render_s", func() {
		text.WriteString(analysis.ComputeTable2(res).Render())
		text.WriteString(analysis.ComputeTable3(res).Render())
		text.WriteString(analysis.RenderAll(res))
	})
	wall := time.Since(start).Seconds()

	if t != nil {
		st := store.Stats()
		t.set("profile.store_hits", float64(st.Hits))
		t.set("profile.store_misses", float64(st.Misses))
		t.set("profile.sim_instrs_per_s", ratio(storeInstrs(store), t.m["profile.measure_s"]))
		t.set("pbs.records", float64(len(res.Records)))
		t.set("pbs.dropped_records", float64(res.DroppedRecords))
	}
	return opOut{
		wall:    wall,
		samples: float64(cfg.Days*cfg.Nodes) * ticksPerDay(cfg),
		out:     &paperOut{res: res, text: text.String()},
	}, nil
}

func (r *paperRunner) check(o *opOut) error {
	out := o.out.(*paperOut)
	res := out.res
	if len(res.Days) != r.shape.Days {
		return fmt.Errorf("paper-campaign: %d days, want %d", len(res.Days), r.shape.Days)
	}
	for i, d := range res.Days {
		if u := d.Utilization(res.Config.Nodes); !(u >= 0 && u <= 1+1e-9) {
			return fmt.Errorf("paper-campaign: day %d utilisation %v outside [0,1]", i, u)
		}
	}
	if len(res.Records) == 0 || out.text == "" {
		return errors.New("paper-campaign: no batch records or empty report")
	}
	return sameHash(&r.ref, resultHash(res), "paper-campaign result")
}

// storeInstrs is the simulated instructions behind a store's entries.
func storeInstrs(s *profile.Store) float64 {
	n := 0.0
	for _, m := range s.Entries() {
		n += float64(m.Instrs)
	}
	return n
}

// ---- durable-fleet --------------------------------------------------

// fleetRunner runs the bursty preset as a 2-cluster fleet on 2 shards
// with Workers=1, checkpointing and recording, then replays the trace:
// spsim -spec bursty -clusters 2 -shards 2 -workers 1 -checkpoint ...
// -record ..., followed by the same command with -replay.
type fleetRunner struct {
	env
	members []fleet.Member
	days    int
	cp, tr  string
	ref     uint64
}

type fleetOut struct {
	live, replayed workload.Result
}

func setupFleet(e env) (runner, error) {
	sp, err := spec.Load("bursty")
	if err != nil {
		return nil, err
	}
	std := profile.MeasureStandardStore(profile.NewStore(), e.seed, e.workers)
	cfg, mix, err := spec.Resolve(sp, std)
	if err != nil {
		return nil, err
	}
	if e.shape.FleetDays > 0 {
		cfg.Days = e.shape.FleetDays
	}
	cfg.Workers = 1
	members := make([]fleet.Member, e.shape.Clusters)
	for i := range members {
		c := cfg
		c.Seed = workload.ClusterSeed(e.seed, i)
		members[i] = fleet.Member{Config: c, Mix: mix}
	}
	return &fleetRunner{
		env:     e,
		members: members,
		days:    cfg.Days,
		cp:      filepath.Join(e.dir, "fleet.json.gz"),
		tr:      filepath.Join(e.dir, "fleet.trace.gz"),
	}, nil
}

func (r *fleetRunner) op(t *tracer) (opOut, error) {
	for _, p := range []string{r.cp, r.tr} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return opOut{}, err
		}
	}
	var s0 telSnap
	var a0 float64
	if t != nil {
		s0, a0 = readTel(), allocMB()
	}
	var live, replayed workload.Result
	var err error
	start := time.Now()
	t.span("fleet.live_s", func() {
		live, err = fleet.Run(r.members, fleet.Options{Shards: r.shape.Shards, Checkpoint: r.cp, RecordTo: r.tr})
	})
	if err != nil {
		return opOut{}, err
	}
	t.span("replay.run_s", func() {
		replayed, err = fleet.Run(r.members, fleet.Options{Shards: r.shape.Shards, ReplayFrom: r.tr})
	})
	if err != nil {
		return opOut{}, err
	}
	wall := time.Since(start).Seconds()

	meta := map[string]float64{
		"days":             float64(r.days),
		"nodes":            float64(len(r.members) * r.members[0].Config.Nodes),
		"checkpoint_bytes": fileSize(r.cp),
		"trace_bytes":      fileSize(r.tr),
	}
	if t != nil {
		s1 := readTel()
		t.set("workload.alloc_mb", allocMB()-a0)
		clusterS := nsToS(since(s0, s1, "fleet.cluster_ns.sum"))
		engineLayers(t, s0, s1, clusterS)
		busy := 0.0
		for s := 0; s < r.shape.Shards; s++ {
			busy += since(s0, s1, fmt.Sprintf("fleet.shard%d.busy_ns", s))
		}
		t.set("fleet.cluster_s", clusterS)
		t.set("fleet.shard_busy_frac", ratio(nsToS(busy), float64(r.shape.Shards)*(t.m["fleet.live_s"]+t.m["replay.run_s"])))
		t.set("fleet.checkpoint_s", nsToS(since(s0, s1, "fleet.checkpoint_ns.sum")))
		t.set("fleet.checkpoints_written", since(s0, s1, "fleet.checkpoints_written"))
		t.set("fleet.checkpoint_bytes", meta["checkpoint_bytes"])
		t.set("replay.bytes_written", since(s0, s1, "replay.bytes_written"))
		t.set("replay.bytes_read", since(s0, s1, "replay.bytes_read"))
		if cov := live.Coverage; cov != nil {
			t.set("faults.expected", float64(cov.Total.Expected))
			t.set("faults.captured", float64(cov.Total.Captured))
			t.set("faults.lost_node_s", cov.Total.LostNodeSeconds)
		}
		t.set("pbs.records", float64(len(live.Records)))
		t.set("pbs.dropped_records", float64(live.DroppedRecords))
		// Both runs simulate the plans the live generators produced.
		jobs := 0
		for _, m := range r.members {
			g := workload.NewGenerator(m.Config, m.Mix)
			for d := 0; d < m.Config.Days; d++ {
				jobs += len(g.GenerateDay(d).Jobs)
			}
		}
		t.set("workload.jobs_generated", 2*float64(jobs))
	}
	samples := 0.0
	for _, m := range r.members {
		samples += 2 * float64(m.Config.Days*m.Config.Nodes) * ticksPerDay(m.Config)
	}
	return opOut{
		wall:    wall,
		samples: samples,
		meta:    meta,
		out:     &fleetOut{live: live, replayed: replayed},
	}, nil
}

func (r *fleetRunner) check(o *opOut) error {
	out := o.out.(*fleetOut)
	h := resultHash(out.live)
	if rh := resultHash(out.replayed); rh != h {
		return fmt.Errorf("durable-fleet: replayed hash %#x, live %#x", rh, h)
	}
	if len(out.live.Days) != r.days {
		return fmt.Errorf("durable-fleet: %d merged days, want %d", len(out.live.Days), r.days)
	}
	if out.live.Coverage == nil {
		return errors.New("durable-fleet: faulted fleet has no coverage report")
	}
	if err := out.live.Coverage.Check(); err != nil {
		return fmt.Errorf("durable-fleet: %w", err)
	}
	cp, err := trace.ReadFleetCheckpointFile(r.cp)
	if err != nil {
		return fmt.Errorf("durable-fleet: %w", err)
	}
	if cp.Clusters != len(r.members) || len(cp.Done) != len(r.members) {
		return fmt.Errorf("durable-fleet: checkpoint has %d of %d clusters done", len(cp.Done), cp.Clusters)
	}
	for _, d := range cp.Done {
		if len(d.Result.Days) != r.days {
			return fmt.Errorf("durable-fleet: checkpointed cluster %d has %d days, want %d", d.Cluster, len(d.Result.Days), r.days)
		}
	}
	return sameHash(&r.ref, h, "durable-fleet merged result")
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// ---- archive --------------------------------------------------------

// archiveRunner is the record-then-reduce path of experiments -all
// -trace: persist and reload the campaign database, regenerate every
// table and figure from it, and record the day plans to a campaign trace
// that is then decoded and validated.
type archiveRunner struct {
	env
	cfg  workload.Config
	mix  workload.Mix
	res  workload.Result
	hash uint64
	path string
}

type archiveOut struct {
	decoded workload.Result
	text    string
	days    int // day plans the decoded trace carries
}

func setupArchive(e env) (runner, error) {
	std := profile.MeasureStandardStore(profile.NewStore(), e.seed, e.workers)
	cfg := workload.DefaultConfig(e.seed)
	cfg.Days, cfg.Nodes = e.shape.Days, e.shape.Nodes
	mix := workload.DefaultMix(std)
	// The serial engine is the quicker one on few cores; the Result is
	// identical at every width.
	res := workload.NewCampaign(cfg, mix).Run()
	return &archiveRunner{
		env:  e,
		cfg:  cfg,
		mix:  mix,
		res:  res,
		hash: resultHash(res),
		path: filepath.Join(e.dir, "archive.trace.gz"),
	}, nil
}

// countingWriter counts the bytes passing through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (r *archiveRunner) op(t *tracer) (opOut, error) {
	// Every experiments process starts with a cold profile store.
	profile.DefaultStore = profile.NewStore()
	var s0 telSnap
	if t != nil {
		s0 = readTel()
	}
	var (
		buf   bytes.Buffer
		cw    countingWriter
		dec   workload.Result
		text  strings.Builder
		rp   *replay.Replayer
		jobs int
		err  error
	)
	defs := []replay.Def{{Config: r.cfg, Mix: r.mix}}
	start := time.Now()

	t.span("replay.encode_s", func() {
		var rec *replay.Recorder
		if rec, err = replay.Create(r.path, replay.HeaderFor(defs)); err != nil {
			return
		}
		tap := rec.Tap(0, r.cfg, workload.NewGenerator(r.cfg, r.mix))
		for d := 0; d < r.cfg.Days; d++ {
			jobs += len(tap.GenerateDay(d).Jobs)
		}
		err = rec.Close()
	})
	if err != nil {
		return opOut{}, err
	}
	t.span("replay.decode_s", func() {
		if rp, err = replay.OpenFile(r.path); err == nil {
			err = rp.Validate(defs)
		}
	})
	if err != nil {
		return opOut{}, err
	}
	a0 := t.alloc()
	t.span("trace.db_encode_s", func() {
		gz := gzip.NewWriter(&buf)
		cw.w = gz
		if err = trace.Write(&cw, r.res); err == nil {
			err = gz.Close()
		}
	})
	t.add("trace.db_encode_alloc_mb", t.alloc()-a0)
	if err != nil {
		return opOut{}, err
	}
	a0 = t.alloc()
	t.span("trace.db_decode_s", func() {
		var zr *gzip.Reader
		if zr, err = gzip.NewReader(bytes.NewReader(buf.Bytes())); err == nil {
			dec, err = trace.Read(zr)
		}
	})
	t.add("trace.db_decode_alloc_mb", t.alloc()-a0)
	if err != nil {
		return opOut{}, err
	}

	t.span("analysis.render_s", func() {
		text.WriteString(analysis.RenderScenario(dec))
		text.WriteString(analysis.RenderCoverage(dec))
		text.WriteString(analysis.RenderTable1())
		text.WriteString(analysis.ComputeTable2(dec).Render())
		text.WriteString(analysis.ComputeTable3(dec).Render())
	})
	t.span("analysis.table4_s", func() {
		seq := analysis.MeasureSequentialRow(r.seed, 200_000)
		bt := analysis.MeasureBT49Row(analysis.DefaultBT49())
		text.WriteString(analysis.ComputeTable4(dec, seq, bt).Render())
	})
	t.span("analysis.render_s", func() { text.WriteString(analysis.RenderAll(dec)) })
	t.span("analysis.whatif_s", func() { text.WriteString(analysis.MeasureIOWaitWhatIf(r.seed).Render()) })
	t.span("analysis.npb_s", func() { text.WriteString(analysis.MeasureNPBSuite(r.seed, 400_000).Render()) })

	wall := time.Since(start).Seconds()

	jsonMB, gzMB := float64(cw.n)/(1<<20), float64(buf.Len())/(1<<20)
	if t != nil {
		s1 := readTel()
		st := profile.DefaultStore.Stats()
		measure := nsToS(since(s0, s1, "profile.store.load_ns.sum"))
		t.set("profile.measure_s", measure)
		t.set("profile.store_hits", float64(st.Hits))
		t.set("profile.store_misses", float64(st.Misses))
		t.set("profile.sim_instrs_per_s", ratio(storeInstrs(profile.DefaultStore), measure))
		t.set("workload.jobs_generated", float64(jobs))
		t.set("pbs.records", float64(len(dec.Records)))
		t.set("pbs.dropped_records", float64(dec.DroppedRecords))
		t.set("trace.db_json_mb", jsonMB)
		t.set("trace.db_gz_mb", gzMB)
		t.set("trace.db_encode_mb_per_s", ratio(jsonMB, t.m["trace.db_encode_s"]))
		t.set("trace.db_decode_mb_per_s", ratio(jsonMB, t.m["trace.db_decode_s"]))
		t.set("replay.bytes_written", since(s0, s1, "replay.bytes_written"))
		t.set("replay.bytes_read", since(s0, s1, "replay.bytes_read"))
	}
	return opOut{
		wall:    wall,
		samples: float64(r.cfg.Days*r.cfg.Nodes) * ticksPerDay(r.cfg),
		meta:    map[string]float64{"db_json_bytes": float64(cw.n), "db_gz_bytes": float64(buf.Len()), "trace_bytes": fileSize(r.path)},
		out:     &archiveOut{decoded: dec, text: text.String(), days: rp.Header().Days},
	}, nil
}

func (r *archiveRunner) check(o *opOut) error {
	out := o.out.(*archiveOut)
	if h := resultHash(out.decoded); h != r.hash {
		return fmt.Errorf("archive: decoded database hashes to %#x, input %#x", h, r.hash)
	}
	if out.days != r.cfg.Days {
		return fmt.Errorf("archive: trace carries %d days, want %d", out.days, r.cfg.Days)
	}
	if out.text == "" {
		return errors.New("archive: empty report")
	}
	return nil
}

// alloc is allocMB in a traced operation and 0 otherwise.
func (t *tracer) alloc() float64 {
	if t == nil {
		return 0
	}
	return allocMB()
}

// ---- collect --------------------------------------------------------

// collectRunner is a closed loop of sweeps by the collection service
// over loopback: 2 daemons x 72 nodes, one on wire v2 (batched MGET) and
// one pinned to v1, 2 collectors, pool size 1. Each operation collects a
// fixed number of sweeps into a fresh sample log, so the log's size, and
// with it peak memory, does not depend on how fast the sweeps ran.
type collectRunner struct {
	env
	spec loadtest.Spec
}

func setupCollect(e env) (runner, error) {
	r := &collectRunner{env: e, spec: loadtest.Spec{
		Healthy:        e.shape.Daemons,
		NodesPerDaemon: e.shape.NodesPerDaemon,
		LegacyEvery:    2,
		Collectors:     2,
		PoolSize:       1,
		Batch:          true,
		Seed:           e.seed,
	}}
	// Warm the loopback path and prove the fleet answers.
	h, err := loadtest.New(r.spec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 10; i++ {
		if err := h.Sweep(); err != nil {
			h.Close()
			return nil, err
		}
	}
	h.Close()
	if err := h.Verify(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *collectRunner) op(t *tracer) (opOut, error) {
	h, err := loadtest.New(r.spec)
	if err != nil {
		return opOut{}, err
	}
	var s0 telSnap
	if t != nil {
		s0 = readTel()
	}
	steps := make([]float64, 0, r.shape.Sweeps)
	start := time.Now()
	for i := 0; i < r.shape.Sweeps; i++ {
		t0 := time.Now()
		h.Sweep() // daemon-level failures land in the ledger
		steps = append(steps, float64(time.Since(t0))/1e6)
	}
	h.Close()
	wall := time.Since(start).Seconds()

	l := h.Ledger()
	if t != nil {
		s1 := readTel()
		t.set("rs2hpm.sweep_s", sum(steps)/1e3)
		t.set("rs2hpm.sweep_p50_ms", quantile(steps, 0.50))
		t.set("rs2hpm.sweep_p99_ms", quantile(steps, 0.99))
		wire := since(s0, s1, "rs2hpm.client.bytes_rx") + since(s0, s1, "rs2hpm.client.bytes_tx")
		t.set("rs2hpm.wire_bytes_per_sample", ratio(wire, float64(l.Captured)))
		t.set("rs2hpm.batches", since(s0, s1, "rs2hpm.client.batches"))
		t.set("rs2hpm.fallbacks", since(s0, s1, "rs2hpm.client.fallbacks"))
		reuses, dials := since(s0, s1, "rs2hpm.pool.reuses"), since(s0, s1, "rs2hpm.pool.dials")
		t.set("rs2hpm.pool_reuse_frac", ratio(reuses, reuses+dials))
		t.set("rs2hpm.retries", since(s0, s1, "rs2hpm.collector.retries"))
		t.set("rs2hpm.gaps", float64(l.Gapped))
		t.set("rs2hpm.ingest_dropped", float64(l.Dropped))
		t.set("rs2hpm.ingest_rejected", float64(l.Rejected))
	}
	return opOut{
		wall:      wall,
		samples:   float64(l.Captured),
		reads:     float64(l.Offered + l.SweepFailures),
		readFails: float64(l.Gaps() + l.SweepFailures),
		out:       h,
	}, nil
}

func (r *collectRunner) check(o *opOut) error {
	h := o.out.(*loadtest.Harness)
	if err := h.Verify(); err != nil {
		return fmt.Errorf("collect: %w", err)
	}
	return nil
}

package pbs

import (
	"testing"

	"repro/internal/hpm"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/simclock"
)

func cluster(n int) []*node.Node {
	nodes := make([]*node.Node, n)
	for i := range nodes {
		nodes[i] = node.New(node.Config{ID: i})
	}
	return nodes
}

func newServer(t *testing.T, n int, cfg Config) (*simclock.Clock, *Server) {
	t.Helper()
	clock := &simclock.Clock{}
	return clock, New(clock, cluster(n), cfg)
}

func TestSubmitValidation(t *testing.T) {
	_, s := newServer(t, 4, Config{})
	if _, err := s.Submit(Spec{Nodes: 0, WallSeconds: 10}); err == nil {
		t.Fatal("zero-node job accepted")
	}
	if _, err := s.Submit(Spec{Nodes: 5, WallSeconds: 10}); err == nil {
		t.Fatal("oversized job accepted")
	}
	if _, err := s.Submit(Spec{Nodes: 1, WallSeconds: 0}); err == nil {
		t.Fatal("zero-wall job accepted")
	}
}

func TestSingleJobLifecycle(t *testing.T) {
	clock, s := newServer(t, 4, Config{})
	var started, ended *Job
	s.OnStart = func(j *Job) { started = j }
	s.OnEnd = func(j *Job) { ended = j }

	id, err := s.Submit(Spec{User: "alice", Nodes: 2, WallSeconds: 700, Class: "cfd"})
	if err != nil {
		t.Fatal(err)
	}
	if started == nil || started.ID != id {
		t.Fatal("OnStart not fired at submit-time scheduling")
	}
	if s.RunningCount() != 1 || s.FreeNodes() != 2 || s.BusyNodes() != 2 {
		t.Fatalf("state after start: running=%d free=%d", s.RunningCount(), s.FreeNodes())
	}
	clock.Run()
	if ended == nil || ended.ID != id {
		t.Fatal("OnEnd not fired")
	}
	if s.RunningCount() != 0 || s.FreeNodes() != 4 {
		t.Fatal("nodes not freed")
	}
	recs := s.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.User != "alice" || r.NodesUsed != 2 || r.WallSeconds != 700 || r.Class != "cfd" {
		t.Fatalf("record = %+v", r)
	}
	if r.StartAt != 0 || r.EndAt != simclock.Time(700) {
		t.Fatalf("times = %v..%v", r.StartAt, r.EndAt)
	}
}

func TestFIFOWhenSaturated(t *testing.T) {
	clock, s := newServer(t, 2, Config{})
	var order []int
	s.OnStart = func(j *Job) { order = append(order, j.ID) }
	a, _ := s.Submit(Spec{Nodes: 2, WallSeconds: 100})
	b, _ := s.Submit(Spec{Nodes: 2, WallSeconds: 100})
	c, _ := s.Submit(Spec{Nodes: 2, WallSeconds: 100})
	clock.Run()
	if len(order) != 3 || order[0] != a || order[1] != b || order[2] != c {
		t.Fatalf("start order = %v", order)
	}
}

func TestBackfillPastBlockedSmallJob(t *testing.T) {
	clock, s := newServer(t, 4, Config{})
	var order []int
	s.OnStart = func(j *Job) { order = append(order, j.ID) }
	s.Submit(Spec{Nodes: 3, WallSeconds: 1000})          // takes 3, leaves 1
	bID, _ := s.Submit(Spec{Nodes: 2, WallSeconds: 100}) // does not fit
	cID, _ := s.Submit(Spec{Nodes: 1, WallSeconds: 100}) // fits: backfill
	if len(order) != 2 || order[1] != cID {
		t.Fatalf("backfill order = %v (b=%d c=%d)", order, bID, cID)
	}
	clock.Run()
}

func TestDrainForLargeJobs(t *testing.T) {
	clock, s := newServer(t, 100, Config{DrainThreshold: 64})
	var order []int
	s.OnStart = func(j *Job) { order = append(order, j.ID) }
	s.Submit(Spec{Nodes: 60, WallSeconds: 500})           // running
	big, _ := s.Submit(Spec{Nodes: 80, WallSeconds: 100}) // >64: needs drain
	small, _ := s.Submit(Spec{Nodes: 10, WallSeconds: 50})
	// The small job fits in the 40 free nodes but must NOT start: the
	// queue is draining for the 80-node job.
	if len(order) != 1 {
		t.Fatalf("drain violated: order = %v", order)
	}
	clock.Run()
	// After the 60-node job ends the big job starts, then the small one.
	if len(order) != 3 || order[1] != big || order[2] != small {
		t.Fatalf("order = %v", order)
	}
}

func TestSmallJobsBackfillFreely(t *testing.T) {
	clock, s := newServer(t, 10, Config{DrainThreshold: 64})
	var order []int
	s.OnStart = func(j *Job) { order = append(order, j.ID) }
	s.Submit(Spec{Nodes: 8, WallSeconds: 500})
	s.Submit(Spec{Nodes: 4, WallSeconds: 100})         // small, does not fit
	c, _ := s.Submit(Spec{Nodes: 2, WallSeconds: 100}) // fits: backfill allowed
	if len(order) != 2 || order[1] != c {
		t.Fatalf("order = %v", order)
	}
	clock.Run()
}

func TestPrologueEpilogueCaptureDeltas(t *testing.T) {
	clock, s := newServer(t, 2, Config{})
	// Pre-existing counter activity must not leak into the job's record.
	s.nodes[0].WithAccumulator(func(a *hpm.Accumulator) {
		a.AddDirect(hpm.User, hpm.EvCycles, 999999)
	})
	s.OnEnd = func(j *Job) {
		// The campaign applies the job's counters before the epilogue.
		for _, nd := range j.Nodes() {
			nd.WithAccumulator(func(a *hpm.Accumulator) {
				a.AddDirect(hpm.User, hpm.EvFPU0Add, 5000)
				a.AddDirect(hpm.User, hpm.EvCycles, 70000)
			})
		}
	}
	s.Submit(Spec{Nodes: 2, WallSeconds: 700})
	clock.Run()
	recs := s.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, d := range recs[0].PerNode {
		if got := d.Get(hpm.User, hpm.EvFPU0Add); got != 5000 {
			t.Fatalf("node %d delta adds = %d", i, got)
		}
		if got := d.Get(hpm.User, hpm.EvCycles); got != 70000 {
			t.Fatalf("node %d delta cycles = %d (baseline leaked?)", i, got)
		}
	}
	// Derived record quantities.
	total := recs[0].TotalDelta()
	if total.Get(hpm.User, hpm.EvFPU0Add) != 10000 {
		t.Fatal("TotalDelta wrong")
	}
	rates := recs[0].PerNodeRates()
	wantMflops := 5000.0 / 700 / 1e6
	if diff := rates.MflopsAll - wantMflops; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("per-node Mflops = %v, want %v", rates.MflopsAll, wantMflops)
	}
	if recs[0].JobMflops() < rates.MflopsAll {
		t.Fatal("JobMflops must scale by node count")
	}
}

func TestMinRecordWallFilters(t *testing.T) {
	clock, s := newServer(t, 2, Config{MinRecordWall: 600})
	s.Submit(Spec{Nodes: 1, WallSeconds: 100}) // interactive-ish: dropped
	s.Submit(Spec{Nodes: 1, WallSeconds: 900}) // kept
	clock.Run()
	if len(s.Records()) != 1 {
		t.Fatalf("records = %d", len(s.Records()))
	}
	if s.DroppedRecords() != 1 {
		t.Fatalf("dropped = %d", s.DroppedRecords())
	}
	if s.Records()[0].WallSeconds != 900 {
		t.Fatal("wrong record kept")
	}
}

func TestBusyNodeSeconds(t *testing.T) {
	clock, s := newServer(t, 4, Config{})
	s.Submit(Spec{Nodes: 2, WallSeconds: 100})
	clock.RunUntil(simclock.Time(50))
	clock.AdvanceTo(simclock.Time(50))
	got := s.BusyNodeSeconds()
	if got != 100 { // 2 nodes x 50 s elapsed
		t.Fatalf("mid-job busy node-seconds = %v, want 100", got)
	}
	clock.Run()
	if got := s.BusyNodeSeconds(); got != 200 {
		t.Fatalf("final busy node-seconds = %v, want 200", got)
	}
}

func TestUtilizationArithmetic(t *testing.T) {
	clock, s := newServer(t, 4, Config{})
	s.Submit(Spec{Nodes: 4, WallSeconds: 64})
	clock.Run()
	clock.AdvanceTo(simclock.Time(100))
	util := s.BusyNodeSeconds() / (float64(s.NodeCount()) * 100)
	if util != 0.64 {
		t.Fatalf("utilization = %v, want 0.64", util)
	}
}

func TestSequentialJobsReuseNodesDeterministically(t *testing.T) {
	clock, s := newServer(t, 3, Config{})
	var allocs [][]int
	s.OnStart = func(j *Job) {
		var ids []int
		for _, nd := range j.Nodes() {
			ids = append(ids, nd.ID())
		}
		allocs = append(allocs, ids)
	}
	for i := 0; i < 3; i++ {
		s.Submit(Spec{Nodes: 2, WallSeconds: 10})
	}
	clock.Run()
	for _, a := range allocs {
		if len(a) != 2 || a[0] != 0 || a[1] != 1 {
			t.Fatalf("allocations not deterministic: %v", allocs)
		}
	}
}

func TestRecordsCopyIsolated(t *testing.T) {
	clock, s := newServer(t, 1, Config{})
	s.Submit(Spec{Nodes: 1, WallSeconds: 10})
	clock.Run()
	r := s.Records()
	r[0].User = "mallory"
	if s.Records()[0].User == "mallory" {
		t.Fatal("Records exposes internal slice")
	}
}

func TestEmptyRecordRates(t *testing.T) {
	var r Record
	if r.PerNodeRates().MflopsAll != 0 || r.JobMflops() != 0 {
		t.Fatal("empty record rates not zero")
	}
}

func TestNewPanicsWithoutNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(&simclock.Clock{}, nil, Config{})
}

// TestReusedNodeRecordsOnlyItsJob: a node's prologue baseline belongs to
// the job on it. A job that reuses a node records only its own counts, not
// the previous job's nor what the idle node counted between them, while a
// job on other nodes keeps its own baselines.
func TestReusedNodeRecordsOnlyItsJob(t *testing.T) {
	clock, s := newServer(t, 3, Config{})
	// Each job adds ID x 1000 FPU adds to each of its nodes.
	s.OnEnd = func(j *Job) {
		for _, nd := range j.Nodes() {
			nd.WithAccumulator(func(acc *hpm.Accumulator) {
				acc.AddDirect(hpm.User, hpm.EvFPU0Add, uint64(j.ID)*1000)
			})
		}
	}
	a, _ := s.Submit(Spec{Nodes: 1, WallSeconds: 100}) // node 0
	b, _ := s.Submit(Spec{Nodes: 2, WallSeconds: 300}) // nodes 1 and 2
	clock.RunUntil(simclock.Time(150))
	clock.AdvanceTo(simclock.Time(150))
	s.nodes[0].WithAccumulator(func(acc *hpm.Accumulator) {
		acc.AddDirect(hpm.User, hpm.EvFPU0Add, 777) // idle-node counts
	})
	c, _ := s.Submit(Spec{Nodes: 1, WallSeconds: 100}) // node 0 again, beside b
	clock.Run()

	want := map[int]struct {
		nodes []int
		adds  uint64
	}{a: {[]int{0}, 1000}, b: {[]int{1, 2}, 2000}, c: {[]int{0}, 3000}}
	recs := s.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	for _, r := range recs {
		w := want[r.JobID]
		if len(r.NodeIDs) != len(w.nodes) || len(r.PerNode) != len(w.nodes) {
			t.Fatalf("job %d: nodes %v with %d deltas, want %v", r.JobID, r.NodeIDs, len(r.PerNode), w.nodes)
		}
		for i, d := range r.PerNode {
			if r.NodeIDs[i] != w.nodes[i] {
				t.Fatalf("job %d: nodes %v, want %v", r.JobID, r.NodeIDs, w.nodes)
			}
			if got := d.Get(hpm.User, hpm.EvFPU0Add); got != w.adds {
				t.Errorf("job %d node %d: %d adds, want %d", r.JobID, r.NodeIDs[i], got, w.adds)
			}
		}
	}
}

// BenchmarkPBSDay schedules one simulated day of submissions on the
// paper's 144 nodes: one every 5 minutes, walls from 700 s to 6 h, and
// power-of-two requests from 1 to 128 nodes, each size half as likely as
// the one below it (mean 4.5 nodes, about the machine's capacity), run
// until the last job ends. No hook runs, so its time and B/op are the
// scheduler's own: node allocation, the prologue and epilogue captures
// and the accounting records.
func BenchmarkPBSDay(b *testing.B) {
	nodes := cluster(144)
	src := rng.Stream(1, 0)
	specs := make([]Spec, 86400/300)
	for i := range specs {
		k := 0
		for k < 7 && src.Bool(0.5) {
			k++
		}
		specs[i] = Spec{Nodes: 1 << k, WallSeconds: src.Range(700, 6*3600)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock := &simclock.Clock{}
		s := New(clock, nodes, Config{DrainThreshold: 64, MinRecordWall: 600})
		for k, spec := range specs {
			spec := spec
			clock.At(simclock.Time(k*300), func() {
				if _, err := s.Submit(spec); err != nil {
					b.Fatal(err)
				}
			})
		}
		clock.Run()
		if s.QueueLength() != 0 || s.DroppedRecords() != 0 {
			b.Fatalf("day ended with %d queued and %d records dropped", s.QueueLength(), s.DroppedRecords())
		}
	}
}

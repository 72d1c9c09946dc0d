package workload

// Equivalence of the rewritten tick path: sampleNode folds through
// node.SampleInto in place, where it used to copy through
// hpm.Sub64(prev, Counters()). The property test drives two identical
// nodes through the same random history and checks every fate against
// the previous implementation, kept here as referenceSampleNode.

import (
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/hpm"
	"repro/internal/node"
	"repro/internal/pbs"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// referenceSampleNode is sampleNode as it was before the rewrite.
func referenceSampleNode(nd *node.Node, prev []hpm.Counts64, fates []faults.Fate, i int) hpm.Delta {
	f := faults.FateCaptured
	if fates != nil {
		f = fates[i]
	}
	switch f {
	case faults.FateDown, faults.FateDropped:
		return hpm.Delta{}
	case faults.FateRebase:
		prev[i] = nd.Counters()
		return hpm.Delta{}
	case faults.FateDuplicated:
		cur := nd.Counters()
		d := hpm.Sub64(prev[i], cur)
		again := nd.Counters()
		d.Add(hpm.Sub64(cur, again))
		prev[i] = again
		return d
	default:
		cur := nd.Counters()
		d := hpm.Sub64(prev[i], cur)
		prev[i] = cur
		return d
	}
}

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

func TestPropertySampleNodeMatchesReference(t *testing.T) {
	allFates := []faults.Fate{faults.FateCaptured, faults.FateDuplicated, faults.FateRebase, faults.FateDown, faults.FateDropped}
	f := func(ops []uint64) bool {
		ref, cur := node.New(node.Config{ID: 3}), node.New(node.Config{ID: 3})
		refPrev, curPrev := make([]hpm.Counts64, 1), make([]hpm.Counts64, 1)
		var refTotal, curTotal hpm.Delta
		fates := make([]faults.Fate, 1)
		for _, op := range ops {
			ev, mode := hpm.Event(op%uint64(hpm.NumEvents)), hpm.Mode(op>>8&1)
			n := op >> 12
			switch op >> 9 % 5 {
			case 0: // profile extrapolation straight into the extended totals
				for _, nd := range []*node.Node{ref, cur} {
					nd.WithAccumulator(func(a *hpm.Accumulator) { a.AddDirect(mode, ev, n) })
				}
			case 1: // raw register activity, left unfolded until the next read
				for _, nd := range []*node.Node{ref, cur} {
					m := nd.CPU().Monitor()
					m.SetMode(mode)
					m.Add(ev, n%(1<<32)) // wraps the 32-bit register
				}
			case 2: // a reboot (registers and totals) or a daemon restart (totals)
				for _, nd := range []*node.Node{ref, cur} {
					if n%2 == 0 {
						nd.ResetMonitor()
					} else {
						nd.ResetExtendedTotals()
					}
				}
			default: // a sweep with a random fate
				fates[0] = allFates[n%uint64(len(allFates))]
				var want hpm.Delta
				refPanicked := panics(func() { want = referenceSampleNode(ref, refPrev, fates, 0) })
				var got hpm.Delta
				curPanicked := panics(func() { sampleNode(cur, curPrev, fates, 0, &got) })
				if refPanicked != curPanicked {
					return false
				}
				if refPanicked {
					// Captured across a reset: both refuse the backwards
					// counters; re-baseline as the campaign would have.
					fates[0] = faults.FateRebase
					referenceSampleNode(ref, refPrev, fates, 0)
					sampleNode(cur, curPrev, fates, 0, &got)
					continue
				}
				if got != want || curPrev[0] != refPrev[0] {
					return false
				}
				refTotal.Add(want)
				curTotal.Add(got)
			}
		}
		return refTotal == curTotal && ref.Counters() == cur.Counters()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSerialTickAllocFree: one advanceRuns + sampleNodes — the whole
// per-tick engine step, extrapolation and sweep — allocates nothing.
// hotalloc proves the same statically from the //hpmlint:hotpath roots.
func TestSerialTickAllocFree(t *testing.T) {
	nodes := make([]*node.Node, 8)
	for i := range nodes {
		nodes[i] = node.New(node.Config{ID: i})
	}
	var prof profile.Profile
	for ev := range prof.EventsPerSec[hpm.User] {
		prof.EventsPerSec[hpm.User][ev] = 1e6 + 0.5
	}
	var runs []*jobRun
	srv := pbs.New(&simclock.Clock{}, nodes, pbs.Config{})
	srv.OnStart = func(j *pbs.Job) {
		runs = append(runs, &jobRun{job: j, prof: prof, rnd: rng.New(uint64(j.ID))})
	}
	for i := 0; i < 2; i++ {
		if _, err := srv.Submit(pbs.Spec{User: "u", Nodes: 4, WallSeconds: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	if len(runs) != 2 {
		t.Fatalf("%d jobs started, want 2", len(runs))
	}
	prev := make([]hpm.Counts64, len(nodes))
	at := simclock.Time(0)
	allocs := testing.AllocsPerRun(100, func() {
		at += 900
		advanceRuns(runs, at)
		sampleNodes(nodes, prev, nil)
	})
	if allocs != 0 {
		t.Fatalf("serial tick allocates %.1f times per call", allocs)
	}
}

// BenchmarkJobAdvance is the advance layer's kernel: one 16-node job
// extrapolated over one 900 s sampling interval per op, with the paper
// CFD profile on divide-bug monitors. workload.advance_s is this cost
// summed over every running job and tick.
func BenchmarkJobAdvance(b *testing.B) {
	nodes := make([]*node.Node, 16)
	for i := range nodes {
		nodes[i] = node.New(node.Config{ID: i}) // hpm.New: the divide bug on
	}
	cfd := profile.MeasureStandard(1).CFD
	var run *jobRun
	srv := pbs.New(&simclock.Clock{}, nodes, pbs.Config{})
	srv.OnStart = func(j *pbs.Job) {
		run = &jobRun{job: j, prof: cfd, rnd: rng.New(uint64(j.ID))}
	}
	if _, err := srv.Submit(pbs.Spec{User: "u", Nodes: len(nodes), WallSeconds: 1e9}); err != nil {
		b.Fatal(err)
	}
	if run == nil {
		b.Fatal("the job did not start")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.advanceTo(run.applied + 900)
	}
}

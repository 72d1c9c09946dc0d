package node

import (
	"math"
	"sync"
	"testing"

	"repro/internal/hpm"
	"repro/internal/isa"
)

func testNode(id int) *Node { return New(Config{ID: id}) }

func fmaLoop(iters uint64) *isa.Loop {
	b := isa.NewBuilder()
	b.FMA(0, 8, 9, 0)
	b.FMA(1, 8, 9, 1)
	return b.Build(iters, 0)
}

func TestDefaults(t *testing.T) {
	n := testNode(7)
	if n.ID() != 7 || n.NodeID() != 7 {
		t.Fatalf("IDs = %d/%d", n.ID(), n.NodeID())
	}
	if n.CPU().VM() == nil {
		t.Fatal("paging model not enabled by default")
	}
}

func TestRunFeedsMonitor(t *testing.T) {
	n := testNode(0)
	st := n.RunLimited(fmaLoop(100), math.MaxUint64)
	if st.Flops != 400 {
		t.Fatalf("flops = %d", st.Flops)
	}
	s := n.Counters()
	fpu := s.Get(hpm.User, hpm.EvFPU0Instr) + s.Get(hpm.User, hpm.EvFPU1Instr)
	if fpu != 200 {
		t.Fatalf("FPU instr = %d", fpu)
	}
}

func TestRunLimited(t *testing.T) {
	n := testNode(0)
	st := n.RunLimited(fmaLoop(1000000), 50)
	if st.Instructions != 50 {
		t.Fatalf("instructions = %d", st.Instructions)
	}
}

func TestAccountDMA(t *testing.T) {
	n := testNode(0)
	n.AccountDMA(5, 9)
	s := n.Counters()
	if s.Get(hpm.User, hpm.EvDMARead) != 5 || s.Get(hpm.User, hpm.EvDMAWrite) != 9 {
		t.Fatal("DMA counters wrong")
	}
}

func TestWithAccumulatorAndReset(t *testing.T) {
	n := testNode(0)
	n.WithAccumulator(func(a *hpm.Accumulator) { a.AddDirect(hpm.User, hpm.EvCycles, 42) })
	if n.Counters().Get(hpm.User, hpm.EvCycles) != 42 {
		t.Fatal("WithAccumulator write lost")
	}
	n.ResetMonitor()
	if n.Counters().Get(hpm.User, hpm.EvCycles) != 0 {
		t.Fatal("ResetMonitor did not clear")
	}
}

func TestConcurrentSnapshotsDoNotRace(t *testing.T) {
	// The RS2HPM daemon snapshots while the simulation accounts DMA.
	n := testNode(0)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				n.Counters()
			}
		}()
	}
	for j := 0; j < 1000; j++ {
		n.AccountDMA(1, 1)
	}
	wg.Wait()
	s := n.Counters()
	if s.Get(hpm.User, hpm.EvDMARead) != 1000 {
		t.Fatalf("dma_read = %d", s.Get(hpm.User, hpm.EvDMARead))
	}
}

func TestSeedDerivedFromID(t *testing.T) {
	// Different nodes must not share TLB-penalty RNG streams; same-ID
	// nodes must be reproducible. We can only observe this indirectly:
	// construction succeeds and a fresh node's run is deterministic.
	a1 := testNode(3)
	a2 := testNode(3)
	s1 := a1.RunLimited(fmaLoop(1000), math.MaxUint64)
	s2 := a2.RunLimited(fmaLoop(1000), math.MaxUint64)
	if s1 != s2 {
		t.Fatalf("same node ID, different run stats: %+v vs %+v", s1, s2)
	}
}

func TestArmSelection(t *testing.T) {
	n := testNode(0)
	n.AccountDMA(5, 5)
	if err := n.ArmSelection("iowait"); err != nil {
		t.Fatal(err)
	}
	// Re-arming cleared both hardware registers and extended totals.
	if got := n.Counters().Get(hpm.User, hpm.EvDMARead); got != 0 {
		t.Fatalf("counters survived re-arm: %d", got)
	}
	// I/O wait is now countable.
	n.AddIOWait(0.001) // ~66.7k cycles
	got := n.Counters().Get(hpm.User, hpm.EvICacheReload)
	if got < 66000 || got > 67000 {
		t.Fatalf("io_wait slot = %d, want ~66700", got)
	}
	if err := n.ArmSelection("nope"); err == nil {
		t.Fatal("unknown selection armed")
	}
}

func TestAddIOWaitInvisibleUnderNAS(t *testing.T) {
	n := testNode(0)
	n.AddIOWait(0.5)
	c := n.Counters()
	var total uint64
	for ev := hpm.Event(0); ev < hpm.NumEvents; ev++ {
		total += c.Get(hpm.User, ev) + c.Get(hpm.System, ev)
	}
	if total != 0 {
		t.Fatalf("I/O wait leaked into NAS-selected counters: %d", total)
	}
}

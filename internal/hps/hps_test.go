package hps

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/hpm"
	"repro/internal/node"
)

type fakeAdapter struct {
	id     int
	reads  uint64
	writes uint64
}

func (f *fakeAdapter) NodeID() int { return f.id }
func (f *fakeAdapter) AccountDMA(r, w uint64) {
	f.reads += r
	f.writes += w
}

func TestSP2Config(t *testing.T) {
	cfg := SP2()
	if cfg.LatencySeconds != 45e-6 {
		t.Fatalf("latency = %v", cfg.LatencySeconds)
	}
	if cfg.BandwidthBytesPerSec != 34e6 {
		t.Fatalf("bandwidth = %v", cfg.BandwidthBytesPerSec)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{LatencySeconds: -1, BandwidthBytesPerSec: 1, DMABytesPerTransfer: 64},
		{LatencySeconds: 1, BandwidthBytesPerSec: 0, DMABytesPerTransfer: 64},
		{LatencySeconds: 1, BandwidthBytesPerSec: 1, DMABytesPerTransfer: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{})
}

func TestTransferTime(t *testing.T) {
	n := New(SP2())
	// Zero bytes: pure latency.
	if got := n.TransferTime(0); got != 45e-6 {
		t.Fatalf("latency-only transfer = %v", got)
	}
	// 34 MB takes latency + 1 second.
	got := n.TransferTime(34e6)
	if math.Abs(got-1.000045) > 1e-9 {
		t.Fatalf("34MB transfer = %v, want ~1.000045", got)
	}
}

func TestTransfersGranularity(t *testing.T) {
	n := New(SP2())
	cases := []struct {
		bytes uint64
		want  uint64
	}{{0, 0}, {1, 1}, {64, 1}, {65, 2}, {4096, 64}}
	for _, c := range cases {
		if got := n.Transfers(c.bytes); got != c.want {
			t.Errorf("Transfers(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestDeliverAccountsBothEnds(t *testing.T) {
	n := New(SP2())
	a := &fakeAdapter{id: 0}
	b := &fakeAdapter{id: 1}
	n.Attach(a)
	n.Attach(b)
	sec, err := n.Deliver(0, 1, 6400)
	if err != nil {
		t.Fatal(err)
	}
	if sec <= 45e-6 {
		t.Fatalf("transfer time %v too small", sec)
	}
	if a.reads != 100 || a.writes != 0 {
		t.Fatalf("sender DMA = %d/%d, want 100 reads", a.reads, a.writes)
	}
	if b.writes != 100 || b.reads != 0 {
		t.Fatalf("receiver DMA = %d/%d, want 100 writes", b.reads, b.writes)
	}
	msgs, bytes := n.Stats()
	if msgs != 1 || bytes != 6400 {
		t.Fatalf("stats = %d msgs %d bytes", msgs, bytes)
	}
}

// TestDeliverChargesNodeDMA: with real nodes on both ends of the switch,
// a delivery lands in the SCU counters the daemon serves — the sender's
// dma_read and the receiver's dma_write, one per 64-byte transfer.
func TestDeliverChargesNodeDMA(t *testing.T) {
	n := New(SP2())
	src, dst := node.New(node.Config{ID: 0}), node.New(node.Config{ID: 1})
	n.Attach(src)
	n.Attach(dst)
	if _, err := n.Deliver(0, 1, 6400); err != nil {
		t.Fatal(err)
	}
	if got := src.Counters().Get(hpm.User, hpm.EvDMARead); got != 100 {
		t.Fatalf("sender dma_read = %d, want 100", got)
	}
	if got := dst.Counters().Get(hpm.User, hpm.EvDMAWrite); got != 100 {
		t.Fatalf("receiver dma_write = %d, want 100", got)
	}
}

func TestDeliverUnattachedEndpoints(t *testing.T) {
	n := New(SP2())
	n.Attach(&fakeAdapter{id: 0})
	if _, err := n.Deliver(0, 9, 100); err == nil {
		t.Fatal("delivery to unattached node succeeded")
	}
	if _, err := n.Deliver(9, 0, 100); err == nil {
		t.Fatal("delivery from unattached node succeeded")
	}
}

func TestAttachDuplicatePanics(t *testing.T) {
	n := New(SP2())
	n.Attach(&fakeAdapter{id: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate attach")
		}
	}()
	n.Attach(&fakeAdapter{id: 3})
}

func TestAttachedCount(t *testing.T) {
	n := New(SP2())
	for i := 0; i < 144; i++ {
		n.Attach(&fakeAdapter{id: i})
	}
	if n.Attached() != 144 {
		t.Fatalf("Attached = %d", n.Attached())
	}
}

func TestTransferTimeMonotoneProperty(t *testing.T) {
	n := New(SP2())
	f := func(a, b uint32) bool {
		lo, hi := uint64(a), uint64(a)+uint64(b)
		return n.TransferTime(lo) <= n.TransferTime(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDMAConservationProperty(t *testing.T) {
	// Total reads accounted equals total writes for any message pattern
	// (every byte sent is received).
	n := New(SP2())
	ads := make([]*fakeAdapter, 4)
	for i := range ads {
		ads[i] = &fakeAdapter{id: i}
		n.Attach(ads[i])
	}
	f := func(moves []uint16) bool {
		for i, m := range moves {
			src := i % 4
			dst := (i + 1 + int(m)%3) % 4
			if _, err := n.Deliver(src, dst, uint64(m)); err != nil {
				return false
			}
		}
		var r, w uint64
		for _, a := range ads {
			r += a.reads
			w += a.writes
		}
		return r == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// atomicAdapter is an adapter safe for concurrent delivery, for the race
// stress test below.
type atomicAdapter struct {
	id     int
	reads  atomic.Uint64
	writes atomic.Uint64
}

func (a *atomicAdapter) NodeID() int { return a.id }
func (a *atomicAdapter) AccountDMA(r, w uint64) {
	a.reads.Add(r)
	a.writes.Add(w)
}

// TestConcurrentAttachAndDeliver exercises the fabric the way the cluster
// layer does: rank goroutines delivering messages while late-booting nodes
// and NFS servers are still being attached. Run under -race this pins the
// mutex protection of the adapter table.
func TestConcurrentAttachAndDeliver(t *testing.T) {
	n := New(SP2())
	const initial = 8
	for i := 0; i < initial; i++ {
		n.Attach(&atomicAdapter{id: i})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				src := (g + i) % initial
				dst := (src + 1) % initial
				if _, err := n.Deliver(src, dst, 256); err != nil {
					t.Errorf("deliver: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			n.Attach(&atomicAdapter{id: initial + i})
			n.Attached()
			n.Stats()
		}
	}()
	wg.Wait()
	if got := n.Attached(); got != initial+100 {
		t.Fatalf("Attached() = %d, want %d", got, initial+100)
	}
	msgs, bytes := n.Stats()
	if msgs != 2000 || bytes != 2000*256 {
		t.Fatalf("Stats() = %d msgs, %d bytes", msgs, bytes)
	}
}

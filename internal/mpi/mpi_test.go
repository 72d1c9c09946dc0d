package mpi

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hpm"
	"repro/internal/hps"
	"repro/internal/node"
)

func newWorld(t *testing.T, p int) *World {
	t.Helper()
	net := hps.New(hps.SP2())
	nodes := make([]*node.Node, p)
	for i := range nodes {
		nodes[i] = node.New(node.Config{ID: i})
	}
	return NewWorld(net, nodes)
}

func TestNewWorldPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewWorld(hps.New(hps.SP2()), nil)
}

func TestSendRecvAdvancesReceiverClock(t *testing.T) {
	w := newWorld(t, 2)
	var recvTime, sendTime float64
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(0.010)
			r.Send(1, 34000) // ~1 ms serialisation + 45 us latency
			sendTime = r.Now()
		case 1:
			if got := r.Recv(0); got != 34000 {
				t.Errorf("recv bytes = %d", got)
			}
			recvTime = r.Now()
		}
	})
	// Receiver must be at >= 10 ms (sender's compute) + latency + transfer.
	want := 0.010 + 45e-6 + 34000/34e6
	if math.Abs(recvTime-want) > 1e-9 {
		t.Fatalf("receiver clock = %v, want %v", recvTime, want)
	}
	if sendTime >= recvTime {
		t.Fatalf("async send blocked: sender %v, receiver %v", sendTime, recvTime)
	}
	// The wait time is recorded.
	if got := w.Ranks()[1].WaitSeconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("wait seconds = %v", got)
	}
}

func TestRecvDoesNotRewindAheadClock(t *testing.T) {
	w := newWorld(t, 2)
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 64)
		case 1:
			r.Compute(5.0) // receiver far ahead
			r.Recv(0)
			if r.Now() < 5.0 {
				t.Errorf("clock rewound to %v", r.Now())
			}
			if r.WaitSeconds() != 0 {
				t.Errorf("no wait expected, got %v", r.WaitSeconds())
			}
		}
	})
}

func TestMessagesAccountDMAOnBothNodes(t *testing.T) {
	w := newWorld(t, 2)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 6400)
		} else {
			r.Recv(0)
		}
	})
	s0 := w.nodes[0].Counters()
	s1 := w.nodes[1].Counters()
	if got := s0.Get(hpm.User, hpm.EvDMARead); got != 100 {
		t.Fatalf("sender dma_read = %d, want 100", got)
	}
	if got := s1.Get(hpm.User, hpm.EvDMAWrite); got != 100 {
		t.Fatalf("receiver dma_write = %d, want 100", got)
	}
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	w := newWorld(t, 4)
	w.Run(func(r *Rank) {
		r.Compute(float64(r.ID()) * 0.25) // ranks arrive at 0, .25, .5, .75
		r.Barrier()
		want := 0.75 + 45e-6
		if math.Abs(r.Now()-want) > 1e-9 {
			t.Errorf("rank %d left barrier at %v, want %v", r.ID(), r.Now(), want)
		}
	})
}

func TestSequentialBarriers(t *testing.T) {
	w := newWorld(t, 3)
	w.Run(func(r *Rank) {
		for i := 0; i < 5; i++ {
			r.Compute(0.001 * float64(r.ID()+1))
			r.Barrier()
		}
	})
	// All clocks equal after the last barrier.
	base := w.Ranks()[0].Now()
	for _, r := range w.Ranks() {
		if math.Abs(r.Now()-base) > 1e-9 {
			t.Fatalf("clocks diverged: %v vs %v", r.Now(), base)
		}
	}
}

func TestAllreduceChargesButterfly(t *testing.T) {
	w := newWorld(t, 8)
	w.Run(func(r *Rank) {
		r.Allreduce(800)
	})
	// 2*log2(8) = 6 steps of (latency + 800/34e6), after a barrier exit of
	// one latency.
	want := 45e-6 + 6*(45e-6+800/34e6)
	for _, r := range w.Ranks() {
		if math.Abs(r.Now()-want) > 1e-9 {
			t.Fatalf("allreduce time = %v, want %v", r.Now(), want)
		}
	}
}

func TestAllreduceSingleRank(t *testing.T) {
	w := newWorld(t, 1)
	w.Run(func(r *Rank) {
		r.Allreduce(1000)
	})
	// Barrier of one completes immediately; no butterfly steps.
	if got := w.Ranks()[0].Now(); math.Abs(got-45e-6) > 1e-9 {
		t.Fatalf("single-rank allreduce time = %v", got)
	}
}

func TestHaloExchangeRing(t *testing.T) {
	const p = 8
	w := newWorld(t, p)
	w.Run(func(r *Rank) {
		right := (r.ID() + 1) % p
		left := (r.ID() + p - 1) % p
		for step := 0; step < 10; step++ {
			r.Compute(0.001)
			if got := r.SendRecv(right, 4096, left); got != 4096 {
				t.Errorf("halo recv = %d bytes", got)
			}
		}
	})
	for _, r := range w.Ranks() {
		if r.BytesSent() != 10*4096 {
			t.Fatalf("rank %d sent %d bytes", r.ID(), r.BytesSent())
		}
		if r.MessagesSent() != 10 {
			t.Fatalf("rank %d sent %d messages", r.ID(), r.MessagesSent())
		}
	}
}

func TestWaitFractionReflectsImbalance(t *testing.T) {
	// A slow rank makes the fast ranks wait at the barrier — the job-level
	// rate dilution mechanism.
	w := newWorld(t, 4)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(1.0) // straggler
		} else {
			r.Compute(0.1)
		}
		r.Barrier()
	})
	for _, r := range w.Ranks() {
		if r.ID() == 0 {
			if r.WaitSeconds() > 0.001 {
				t.Fatalf("straggler waited %v", r.WaitSeconds())
			}
		} else if r.WaitSeconds() < 0.89 {
			t.Fatalf("fast rank %d waited only %v", r.ID(), r.WaitSeconds())
		}
	}
}

func TestDeadlockPanicsInsteadOfHanging(t *testing.T) {
	w := newWorld(t, 2)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("deadlock did not panic")
		}
		if !strings.Contains(p.(string), "deadlock") {
			t.Fatalf("unexpected panic %v", p)
		}
	}()
	w.Run(func(r *Rank) {
		r.Recv(1 - r.ID()) // both receive, nobody sends
	})
}

func TestRecvFromFinishedRankPanics(t *testing.T) {
	w := newWorld(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w.Run(func(r *Rank) {
		if r.ID() == 1 {
			r.Recv(0) // rank 0 exits immediately: deadlock
		}
	})
}

func TestSendValidation(t *testing.T) {
	w := newWorld(t, 2)
	for _, dst := range []int{-1, 2} {
		dst := dst
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Send(%d) did not panic", dst)
				}
			}()
			w.Run(func(r *Rank) {
				if r.ID() == 0 {
					r.Send(dst, 1)
				}
			})
		}()
	}
}

func TestSendToSelfPanics(t *testing.T) {
	w := newWorld(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(0, 1)
		}
	})
}

func TestNegativeComputePanics(t *testing.T) {
	w := newWorld(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w.Run(func(r *Rank) { r.Compute(-1) })
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		w := newWorld(t, 6)
		w.Run(func(r *Rank) {
			right := (r.ID() + 1) % 6
			left := (r.ID() + 5) % 6
			for i := 0; i < 20; i++ {
				r.Compute(0.0001 * float64(r.ID()+1))
				r.SendRecv(right, 1024, left)
			}
			r.Barrier()
		})
		var times []float64
		for _, r := range w.Ranks() {
			times = append(times, r.Now(), r.WaitSeconds())
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run results diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

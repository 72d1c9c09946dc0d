package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCyclesSeconds(t *testing.T) {
	c := Cycles(66.7e6)
	if got := c.Seconds(); !almostEqual(got, 1.0, 1e-9) {
		t.Fatalf("66.7M cycles = %v s, want 1.0", got)
	}
	if got := Cycles(0).Seconds(); got != 0 {
		t.Fatalf("0 cycles = %v s, want 0", got)
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1.0); got != Cycles(66.7e6) {
		t.Fatalf("FromSeconds(1) = %v, want 66.7e6", got)
	}
	if got := FromSeconds(-1.0); got != 0 {
		t.Fatalf("FromSeconds(-1) = %v, want 0", got)
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	f := func(ms uint32) bool {
		s := float64(ms) / 1000.0
		back := FromSeconds(s).Seconds()
		return almostEqual(back, s, 1e-6*s+1e-7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPeakDerivation(t *testing.T) {
	// 2 FPUs x 2 flops/fma/cycle at 66.7 MHz = 266.8 Mflops ~ 267.
	derived := 4 * ClockHz / 1e6
	if !almostEqual(derived, PeakMflopsPerNode, 0.5) {
		t.Fatalf("derived peak %v disagrees with constant %v", derived, PeakMflopsPerNode)
	}
}

func TestCacheGeometry(t *testing.T) {
	if DCacheLines != 1024 {
		t.Fatalf("DCacheLines = %d, want 1024 (paper: 1024 lines of 256 bytes)", DCacheLines)
	}
	if DCacheBytes/DCacheWays/DCacheLineBytes != 256 {
		t.Fatalf("sets per way = %d, want 256", DCacheBytes/DCacheWays/DCacheLineBytes)
	}
}

func TestSequentialAccessMissRatios(t *testing.T) {
	// The paper's sequential-access thought experiment: a miss every 32
	// elements means a ~3% cache-miss ratio per element touched, and a TLB
	// miss every 512 elements means ~0.2%.
	cacheRatio := 1.0 / 32.0 * 100
	tlbRatio := 1.0 / 512.0 * 100
	if !almostEqual(cacheRatio, 3.125, 1e-9) {
		t.Fatalf("sequential cache ratio = %v", cacheRatio)
	}
	if !almostEqual(tlbRatio, 0.1953125, 1e-9) {
		t.Fatalf("sequential TLB ratio = %v", tlbRatio)
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{512, "512 B"},
		{2048, "2.00 KiB"},
		{3 << 20, "3.00 MiB"},
		{5 << 30, "5.00 GiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", uint64(c.in), got, c.want)
		}
	}
}

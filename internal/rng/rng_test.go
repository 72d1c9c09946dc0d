package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

// TestKnownAnswer pins the start of New(42)'s stream, as both Uint64 and
// Fill yield it: every campaign hash depends on these exact values.
func TestKnownAnswer(t *testing.T) {
	want := []uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1}
	single := New(42)
	bulk := make([]uint64, len(want))
	New(42).Fill(bulk)
	for i, w := range want {
		if got := single.Uint64(); got != w {
			t.Fatalf("Uint64 draw %d = %#x, want %#x", i, got, w)
		}
		if bulk[i] != w {
			t.Fatalf("Fill[%d] = %#x, want %#x", i, bulk[i], w)
		}
	}
}

// TestFillMatchesUint64: a bulk fill is the Uint64 sequence, value for
// value, and leaves the source where the calls would.
func TestFillMatchesUint64(t *testing.T) {
	for _, n := range []int{0, 1, 44, 1000} {
		for _, seed := range []uint64{0, 7, 1 << 63} {
			bulk, single := New(seed), New(seed)
			bulk.Uint64() // start mid-stream, not just after seeding
			single.Uint64()
			dst := make([]uint64, n)
			bulk.Fill(dst)
			for i, got := range dst {
				if want := single.Uint64(); got != want {
					t.Fatalf("len %d, seed %d: Fill[%d] = %#x, Uint64 gives %#x", n, seed, i, got, want)
				}
			}
			if got, want := bulk.Uint64(), single.Uint64(); got != want {
				t.Fatalf("len %d, seed %d: next output after Fill %#x, after %d Uint64 calls %#x", n, seed, got, n, want)
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded stream produced only %d distinct values", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("Intn(10) never produced %d", i)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(36, 54)
		if v < 36 || v > 54 {
			t.Fatalf("IntRange(36,54) = %d", v)
		}
	}
	// Degenerate range.
	if v := r.IntRange(7, 7); v != 7 {
		t.Fatalf("IntRange(7,7) = %d", v)
	}
}

func TestIntRangePanicsInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntRange(5,4) did not panic")
		}
	}()
	New(1).IntRange(5, 4)
}

func TestRangeProperty(t *testing.T) {
	f := func(seed uint64, a, b uint16) bool {
		lo, hi := float64(a), float64(a)+float64(b)+1
		v := New(seed).Range(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestNormalClamped(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		v := r.NormalClamped(0, 100, -5, 5)
		if v < -5 || v > 5 {
			t.Fatalf("NormalClamped escaped bounds: %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(19)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exponential(4.0)
		if v < 0 {
			t.Fatalf("Exponential returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-4.0) > 0.1 {
		t.Fatalf("exponential mean = %v, want ~4", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal returned %v", v)
		}
	}
}

func TestWeightedDistribution(t *testing.T) {
	w := NewWeighted([]float64{1, 0, 3})
	r := New(29)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[w.Sample(r)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight outcome drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3.0) > 0.2 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d", w.Len())
	}
}

func TestWeightedPanics(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
	}{
		{"empty", nil},
		{"zero-total", []float64{0, 0}},
		{"negative", []float64{1, -1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewWeighted(%v) did not panic", c.weights)
				}
			}()
			NewWeighted(c.weights)
		})
	}
}

func TestWeightedSingleOutcome(t *testing.T) {
	w := NewWeighted([]float64{5})
	r := New(31)
	for i := 0; i < 100; i++ {
		if w.Sample(r) != 0 {
			t.Fatal("single-outcome sampler returned nonzero index")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(37)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate = %v", p)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Normal(0, 1)
	}
	_ = sink
}

func TestStreamDeterministicAndOrderFree(t *testing.T) {
	// Same (seed, id) -> same stream, regardless of what else was derived.
	a := Stream(7, 3)
	_ = Stream(7, 1).Uint64() // unrelated derivation in between
	b := Stream(7, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Stream(7,3) not reproducible at draw %d", i)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	// Different ids and different seeds give different streams; substream 0
	// also differs from the parent New(seed) stream.
	first := func(r *Source) uint64 { return r.Uint64() }
	vals := map[uint64]string{}
	cases := map[string]uint64{
		"New(9)":       first(New(9)),
		"Stream(9,0)":  first(Stream(9, 0)),
		"Stream(9,1)":  first(Stream(9, 1)),
		"Stream(10,0)": first(Stream(10, 0)),
	}
	for name, v := range cases {
		if prev, dup := vals[v]; dup {
			t.Fatalf("%s and %s start identically (%x)", name, prev, v)
		}
		vals[v] = name
	}
}

func TestStreamUniformity(t *testing.T) {
	// First draws across consecutive ids should look uniform: a crude
	// mean test over [0,1) catches catastrophic correlation with id.
	sum := 0.0
	const n = 20000
	for id := uint64(0); id < n; id++ {
		sum += Stream(1, id).Float64()
	}
	if m := sum / n; math.Abs(m-0.5) > 0.01 {
		t.Fatalf("mean of first draws across streams = %v, want ~0.5", m)
	}
}

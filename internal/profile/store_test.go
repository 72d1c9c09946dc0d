package profile

import (
	"sync"
	"testing"

	"repro/internal/power2"

	"repro/internal/kernels"
)

func mustKernelT(t *testing.T, name string) kernels.Kernel {
	t.Helper()
	k, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("missing kernel %q", name)
	}
	return k
}

// A cached measurement must be byte-identical to a fresh micro-simulation
// of the same key — that is the store's entire contract.
func TestStoreHitIsBitIdentical(t *testing.T) {
	s := NewStore()
	k := mustKernelT(t, "matmul")
	cfg := power2.Config{Seed: 11}

	fresh := MeasureRunKernel(k, cfg, 50_000)
	first := s.Measure(k, cfg, 50_000)  // miss: simulates
	second := s.Measure(k, cfg, 50_000) // hit: cached

	if first != fresh {
		t.Fatalf("store miss diverged from direct measurement:\n store %+v\n fresh %+v", first, fresh)
	}
	if second != fresh {
		t.Fatalf("store hit diverged from direct measurement:\n store %+v\n fresh %+v", second, fresh)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// Keys must separate everything that changes the simulation: kernel,
// budget, seed, and any config knob.
func TestStoreKeySeparation(t *testing.T) {
	s := NewStore()
	k := mustKernelT(t, "matmul")

	s.Measure(k, power2.Config{Seed: 1}, 10_000)
	variants := []struct {
		name string
		cfg  power2.Config
		n    uint64
	}{
		{"seed", power2.Config{Seed: 2}, 10_000},
		{"budget", power2.Config{Seed: 1}, 20_000},
		{"policy", power2.Config{Seed: 1, Policy: power2.RoundRobin}, 10_000},
		{"quad", power2.Config{Seed: 1, QuadCountsAsTwo: true}, 10_000},
		{"memory", power2.Config{Seed: 1, MemoryBytes: 32 << 20}, 10_000},
	}
	want := 1
	for _, v := range variants {
		s.Measure(k, v.cfg, v.n)
		want++
		if got := s.Len(); got != want {
			t.Fatalf("after %s variant: store has %d entries, want %d (key collision)", v.name, got, want)
		}
	}
	if st := s.Stats(); st.Hits != 0 {
		t.Fatalf("stats = %+v, want no hits across distinct keys", st)
	}
}

// Defaulted and explicit configurations that resolve identically must
// share an entry.
func TestStoreKeyCanonicalization(t *testing.T) {
	s := NewStore()
	k := mustKernelT(t, "sequential")

	implicit := power2.Config{Seed: 3}
	explicit := power2.Config{Seed: 3, PageFaultCycles: 10000, PageFaultInstrs: 3000,
		ZeroFillCycles: 800, ZeroFillInstrs: 300}
	a := s.Measure(k, implicit, 10_000)
	b := s.Measure(k, explicit, 10_000)
	if a != b {
		t.Fatal("identical resolved configs produced different measurements")
	}
	if s.Len() != 1 {
		t.Fatalf("store has %d entries, want 1 (defaults not canonicalized into the key)", s.Len())
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// Concurrent mixed hit/miss traffic must be race-free (run under -race in
// CI) and converge to one entry per key with every caller seeing the same
// value.
func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	k := mustKernelT(t, "comm")
	ref := MeasureRunKernel(k, power2.Config{Seed: 5}, 10_000)

	var wg sync.WaitGroup
	const goroutines = 8
	results := make([]Measurement, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				results[g] = s.Measure(k, power2.Config{Seed: 5}, 10_000)
			}
		}(g)
	}
	wg.Wait()
	for g, m := range results {
		if m != ref {
			t.Fatalf("goroutine %d saw a measurement diverging from the reference", g)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("store has %d entries, want 1", s.Len())
	}
}

// Entries must come out in a stable order regardless of insertion order —
// persisted caches are diffed byte-for-byte.
func TestStoreEntriesDeterministic(t *testing.T) {
	build := func(order []int) []Measurement {
		s := NewStore()
		keys := []struct {
			kernel string
			cfg    power2.Config
			n      uint64
		}{
			{"matmul", power2.Config{Seed: 1}, 10_000},
			{"comm", power2.Config{Seed: 2}, 10_000},
			{"matmul", power2.Config{Seed: 1}, 20_000},
			{"matmul", power2.Config{Seed: 9}, 10_000},
		}
		for _, i := range order {
			kk := keys[i]
			s.Measure(mustKernelT(t, kk.kernel), kk.cfg, kk.n)
		}
		return s.Entries()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 2, 1, 0})
	if len(a) != len(b) {
		t.Fatalf("entry counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs across insertion orders: %q/%d vs %q/%d",
				i, a[i].Kernel, a[i].Instrs, b[i].Kernel, b[i].Instrs)
		}
	}
}

// MeasureStandardStore with a warm store must reproduce the uncached
// standard profiles exactly, at any worker count (0 is GOMAXPROCS).
func TestMeasureStandardStoreEquivalence(t *testing.T) {
	reference := MeasureStandardStore(nil, 42, 1)
	if got := MeasureStandardStore(nil, 42, 0); got != reference {
		t.Fatal("uncached standard profiles at width 0 diverged from width 1")
	}
	s := NewStore()
	for _, workers := range []int{1, 4, 0} {
		got := MeasureStandardStore(s, 42, workers)
		if got != reference {
			t.Fatalf("store-backed standard profiles (workers=%d) diverged from uncached reference", workers)
		}
	}
	// Second pass: all hits, still identical.
	if got := MeasureStandardStore(s, 42, 2); got != reference {
		t.Fatal("warm-store standard profiles diverged from uncached reference")
	}
	if st := s.Stats(); st.Hits == 0 {
		t.Fatalf("stats = %+v, expected hits on the warm passes", st)
	}
}

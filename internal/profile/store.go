package profile

// The memoized profile store. Every consumer of the microsim — the
// standard campaign profiles, cmd/calibrate, cmd/experiments, the NPB
// table, the ablation benches — measures the same handful of kernels
// under the same handful of configurations, and the simulator is fully
// deterministic in (kernel, resolved config, instruction budget). So a
// measurement is a pure function of its key, and caching it is invisible:
// a hit returns byte-for-byte the Measurement a fresh micro-simulation
// would produce. That is the whole determinism argument, and the golden
// campaign hash pins it (store on and off produce the identical Result).
//
// What-if experiments that re-arm the monitor's event selection
// (analysis.MeasureIOWaitWhatIf) must NOT go through the store: the
// selection is armed on the live CPU mid-run and is not part of the key.

import (
	"sort"
	"sync"

	"repro/internal/kernels"
	"repro/internal/power2"
	"repro/internal/telemetry"
)

// hpmtel instrumentation: cache effectiveness plus the latency of the
// miss path (a full micro-simulation). Every Store in the process feeds
// the same handles — the store is a process-wide concern, and the
// per-instance split already exists in Stats().
var (
	telStore       = telemetry.Default.Scope("profile.store")
	telStoreHits   = telStore.Counter("hits")
	telStoreMisses = telStore.Counter("misses")
	telStoreLoadNs = telStore.Histogram("load_ns", telemetry.DurationBuckets)
)

// Key identifies one deterministic micro-simulation: the registry kernel
// (whose stream is instantiated from the config seed), the fully-resolved
// CPU configuration, and the instruction budget.
type Key struct {
	Kernel string
	Config power2.Resolved
	Instrs uint64
}

// StoreStats reports cache effectiveness.
type StoreStats struct {
	Hits   uint64
	Misses uint64
}

// Store is a concurrency-safe memo table of kernel measurements. The zero
// value is not usable; construct with NewStore.
type Store struct {
	mu           sync.Mutex
	measurements map[Key]Measurement // guarded by mu
	hits         uint64              // guarded by mu
	misses       uint64              // guarded by mu
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{measurements: make(map[Key]Measurement)}
}

// DefaultStore is the process-wide store the standard measurement paths
// consult. Sharing it across callers is safe and deterministic: every
// entry is a pure function of its key.
var DefaultStore = NewStore()

// Measure returns the measurement for (k, cfg, n), micro-simulating on a
// miss and memoizing the result. The simulation runs outside the lock; if
// two goroutines race on the same cold key both compute the identical
// value, so the duplicated work is the only cost.
func (s *Store) Measure(k kernels.Kernel, cfg power2.Config, n uint64) Measurement {
	key := Key{Kernel: k.Name, Config: cfg.Resolve(), Instrs: n}
	s.mu.Lock()
	if m, ok := s.measurements[key]; ok {
		s.hits++
		s.mu.Unlock()
		telStoreHits.Inc()
		return m
	}
	s.misses++
	s.mu.Unlock()
	telStoreMisses.Inc()

	w := telemetry.StartWatch()
	m := MeasureRunKernel(k, cfg, n)
	w.Record(telStoreLoadNs)
	s.mu.Lock()
	s.measurements[key] = m
	s.mu.Unlock()
	return m
}

// MeasureProfile is Measure with the rate derivation applied — the common
// call shape for campaign code.
func (s *Store) MeasureProfile(k kernels.Kernel, cfg power2.Config, n uint64) Profile {
	return s.Measure(k, cfg, n).Profile()
}

// Add inserts a measurement keyed by its identifying fields (used when
// loading a persisted cache). The caller vouches that the measurement was
// produced by the canonical simulation for that key.
func (s *Store) Add(m Measurement) {
	key := Key{Kernel: m.Kernel, Config: m.Config, Instrs: m.Instrs}
	s.mu.Lock()
	s.measurements[key] = m
	s.mu.Unlock()
}

// AddAll inserts a batch of measurements.
func (s *Store) AddAll(ms []Measurement) {
	for _, m := range ms {
		s.Add(m)
	}
}

// Len reports the number of cached measurements.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.measurements)
}

// Stats reports hit/miss counts since construction.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Hits: s.hits, Misses: s.misses}
}

// Entries returns every cached measurement in a deterministic order
// (kernel name, then instruction budget, then seed), so persisted caches
// are byte-stable across runs.
func (s *Store) Entries() []Measurement {
	s.mu.Lock()
	out := make([]Measurement, 0, len(s.measurements))
	for _, m := range s.measurements {
		out = append(out, m)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.Instrs != b.Instrs {
			return a.Instrs < b.Instrs
		}
		if a.Config.Seed != b.Config.Seed {
			return a.Config.Seed < b.Config.Seed
		}
		if a.Config.MemoryBytes != b.Config.MemoryBytes {
			return a.Config.MemoryBytes < b.Config.MemoryBytes
		}
		if a.Config.Policy != b.Config.Policy {
			return a.Config.Policy < b.Config.Policy
		}
		if a.Config.QuadCountsAsTwo != b.Config.QuadCountsAsTwo {
			return b.Config.QuadCountsAsTwo
		}
		if a.Config.DCache.Policy != b.Config.DCache.Policy {
			return a.Config.DCache.Policy < b.Config.DCache.Policy
		}
		return a.Config.PageFaultCycles < b.Config.PageFaultCycles
	})
	return out
}

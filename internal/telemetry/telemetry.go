// Package telemetry is hpmtel: the reproduction measuring itself. The
// paper's premise is that a production system should carry an always-on,
// near-zero-overhead monitor (RS2HPM's daemon plus cron sampling cost
// under 1% of a node); this package applies the same discipline to the
// simulator — atomic counters, gauges and fixed-bucket histograms that
// the campaign engine, the profile store, the fault layer and the rs2hpm
// collection path update from their hot paths.
//
// The contract, in order of importance:
//
//   - Observation must never perturb the simulation. No metric feeds back
//     into simulated state, so the golden campaign hash is bit-identical
//     with telemetry enabled or disabled at any worker count.
//   - The hot path allocates nothing: a counter increment or histogram
//     observation is a handful of atomic operations (guarded by alloc
//     tests, not by promise).
//   - Everything is race-clean: metric state is atomics, registry
//     bookkeeping is mutex-guarded.
//   - Wall-clock reads exist only here. Simulator packages are barred
//     from the clock by the nondeterminism lint; telemetry carries the
//     single sanctioned read (span.go) and feeds durations nowhere but
//     its own histograms.
//
// Metrics live in a Registry under dotted names ("rs2hpm.collector.gaps");
// Scope prepends a component prefix. Snapshot captures a deterministic,
// name-sorted view that encode.go serializes as Prometheus text,
// expvar-style JSON, or a human dump, and http.go serves on rs2hpmd.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// disabled is the global kill switch, default off (telemetry enabled).
// The inverted sense keeps the zero value the useful one.
var disabled atomic.Bool

// SetEnabled turns the whole subsystem on or off. Disabled metrics drop
// updates and skip clock reads; readers still work (they report whatever
// accumulated while enabled). The switch exists for the overhead bench
// pair and for callers that want a hard guarantee of zero observation
// cost, not for correctness — results are identical either way.
func SetEnabled(on bool) { disabled.Store(!on) }

// Counter is a monotonically increasing uint64. The zero value is ready
// to use, but counters normally come from a Registry so they appear in
// snapshots.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//hpmlint:hotpath counters fire inside the simulated CPU's cycle loop
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
//
//hpmlint:hotpath counters fire inside the simulated CPU's cycle loop
func (c *Counter) Add(n uint64) {
	if disabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 level (queue depth, node count).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
//
//hpmlint:hotpath gauges fire inside the engine's per-day loop
func (g *Gauge) Set(v int64) {
	if disabled.Load() {
		return
	}
	g.v.Store(v)
}

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed upper-bound buckets (plus an
// implicit +Inf bucket) and tracks count and sum. Bounds are fixed at
// construction; observing is lock-free and allocation-free. Non-finite
// observations are dropped so aggregates stay encodable.
type Histogram struct {
	bounds []float64 // immutable after construction; sorted, finite, deduped
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
}

// newHistogram sanitizes the bounds: non-finite entries are dropped,
// the rest sorted and deduped. A nil or empty bounds slice leaves only
// the implicit +Inf bucket.
func newHistogram(bounds []float64) *Histogram {
	clean := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if isFinite(b) {
			clean = append(clean, b)
		}
	}
	sort.Float64s(clean)
	n := 0
	for i, b := range clean {
		if i == 0 || b != clean[i-1] { //hpmlint:ignore floatcompare dedup of sorted bounds wants exact equality
			clean[n] = b
			n++
		}
	}
	clean = clean[:n]
	return &Histogram{bounds: clean, counts: make([]atomic.Uint64, len(clean)+1)}
}

// Observe records one value. NaN and ±Inf are ignored.
//
//hpmlint:hotpath observations fire per measured span; the AllocsPerRun == 0 benchmark guards the same path
func (h *Histogram) Observe(v float64) {
	if disabled.Load() || !isFinite(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count reads the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// atomicFloat is a float64 updated by CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := floatToBits(floatFromBits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return floatFromBits(f.bits.Load()) }

// DurationBuckets is the standard latency bucket ladder in nanoseconds:
// 1µs to 10s, a decade apart, with a 100ns floor for the memoized fast
// paths. Wide decades keep histograms tiny (the RS2HPM ethos: coarse but
// always on).
var DurationBuckets = []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// Registry owns a namespace of metrics. Registration is idempotent: the
// first caller creates the metric, later callers with the same name get
// the same instance, so package-level instrumentation can register
// eagerly without coordination.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter   // guarded by mu
	gauges     map[string]*Gauge     // guarded by mu
	histograms map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry all standard instrumentation
// registers into — the analogue of the daemon's one shared counter file.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds if new. An existing histogram keeps its
// original bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Scope returns a view of the registry that prefixes every metric name
// with prefix + ".".
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, prefix: prefix} }

// Scope is a named namespace within a registry.
type Scope struct {
	r      *Registry
	prefix string
}

// Counter registers prefix.name in the underlying registry.
func (s Scope) Counter(name string) *Counter { return s.r.Counter(s.prefix + "." + name) }

// Histogram registers prefix.name in the underlying registry.
func (s Scope) Histogram(name string, bounds []float64) *Histogram {
	return s.r.Histogram(s.prefix+"."+name, bounds)
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name  string
	Value uint64
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name  string
	Value int64
}

// HistogramPoint is one histogram in a snapshot. Counts[i] is the count
// for Bounds[i]; the final entry of Counts is the +Inf bucket.
type HistogramPoint struct {
	Name   string
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot is a point-in-time view of a registry, each kind sorted by
// name. Under concurrent updates it is not an atomic cut across metrics
// — fine for observability, and exact once writers quiesce. A quiesced
// registry snapshots (and therefore encodes) deterministically.
type Snapshot struct {
	Counters   []CounterPoint
	Gauges     []GaugePoint
	Histograms []HistogramPoint
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
		p := HistogramPoint{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Count:  h.Count(),
			Sum:    sanitizeFloat(h.Sum()),
		}
		for i := range h.counts {
			p.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, p)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

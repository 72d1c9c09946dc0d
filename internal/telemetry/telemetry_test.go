package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a.b") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("lvl")
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, math.NaN(), math.Inf(1)} {
		h.Observe(v)
	}
	// NaN and Inf dropped: 5 observations.
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+5+50+500; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	p := r.Snapshot().Histograms[0]
	wantCounts := []uint64{2, 1, 1, 1} // ≤1: {0.5, 1}; ≤10: {5}; ≤100: {50}; +Inf: {500}
	for i, w := range wantCounts {
		if p.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, p.Counts[i], w, p.Counts)
		}
	}
}

func TestHistogramBoundsSanitized(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", []float64{10, math.NaN(), 1, 10, math.Inf(1), 1})
	if len(h.bounds) != 2 || h.bounds[0] != 1 || h.bounds[1] != 10 {
		t.Fatalf("bounds = %v, want [1 10]", h.bounds)
	}
}

func TestScopeNesting(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("rs2hpm.collector")
	s.Counter("gaps").Add(2)
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "rs2hpm.collector.gaps" || snap.Counters[0].Value != 2 {
		t.Fatalf("snapshot = %+v", snap.Counters)
	}
}

func TestSetEnabledDropsUpdates(t *testing.T) {
	defer SetEnabled(true)
	r := NewRegistry()
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h", DurationBuckets)
	SetEnabled(false)
	c.Inc()
	g.Set(9)
	h.Observe(1)
	w := StartWatch()
	if w.start != 0 {
		t.Fatal("disabled StartWatch returned a live stopwatch")
	}
	w.Record(h)
	w.AddTo(c)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled updates recorded: c=%d g=%d h=%d", c.Value(), g.Value(), h.Count())
	}
	SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("re-enabled counter did not record")
	}
}

func TestStopwatch(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ns", DurationBuckets)
	c := r.Counter("busy")
	w := StartWatch()
	w.Record(h)
	w.AddTo(c)
	if h.Count() != 1 {
		t.Fatalf("histogram count = %d, want 1", h.Count())
	}
}

// The allocation contract: the hot path (counter inc, gauge set,
// histogram observe, full stopwatch cycle) allocates nothing, enabled or
// not. This is the "<1% of a node" discipline made mechanical.
func TestHotPathAllocations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DurationBuckets)
	cases := []struct {
		name string
		fn   func()
	}{
		{"counter-inc", func() { c.Inc() }},
		{"counter-add", func() { c.Add(3) }},
		{"gauge-set", func() { g.Set(1) }},
		{"histogram-observe", func() { h.Observe(12345) }},
		{"stopwatch-record", func() { StartWatch().Record(h) }},
		{"stopwatch-addto", func() { StartWatch().AddTo(c) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
				t.Fatalf("%s allocates %.1f per op, want 0", tc.name, n)
			}
		})
	}
	t.Run("disabled", func(t *testing.T) {
		defer SetEnabled(true)
		SetEnabled(false)
		for _, tc := range cases {
			if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
				t.Fatalf("disabled %s allocates %.1f per op, want 0", tc.name, n)
			}
		}
	})
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z", "a", "m"} {
		r.Counter(n).Inc()
		r.Gauge("g." + n).Set(1)
		r.Histogram("h."+n, nil).Observe(1)
	}
	s := r.Snapshot()
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Fatalf("counters unsorted: %+v", s.Counters)
		}
	}
	var a, b bytes.Buffer
	if err := s.WriteMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("quiesced registry encoded differently twice")
	}
}

func TestWriteMetricsFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("rs2hpm.collector.gaps").Add(3)
	r.Gauge("rs2hpmd.nodes").Set(4)
	r.Histogram("profile.store.load_ns", []float64{100, 1000}).Observe(250)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE rs2hpm_collector_gaps counter",
		"rs2hpm_collector_gaps 3",
		"# TYPE rs2hpmd_nodes gauge",
		"rs2hpmd_nodes 4",
		"# TYPE profile_store_load_ns histogram",
		`profile_store_load_ns_bucket{le="100"} 0`,
		`profile_store_load_ns_bucket{le="1000"} 1`,
		`profile_store_load_ns_bucket{le="+Inf"} 1`,
		"profile_store_load_ns_sum 250",
		"profile_store_load_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteJSONValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	r.Gauge("g").Set(-2)
	h := r.Histogram("h", []float64{1})
	h.Observe(0.5)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]uint64 `json:"counters"`
		Gauges     map[string]int64  `json:"gauges"`
		Histograms map[string]struct {
			Count   uint64 `json:"count"`
			Buckets []struct {
				Le    *float64 `json:"le"`
				Count uint64   `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Counters["c"] != 1 || doc.Gauges["g"] != -2 {
		t.Fatalf("values wrong: %+v", doc)
	}
	hh := doc.Histograms["h"]
	if hh.Count != 1 || len(hh.Buckets) != 2 || hh.Buckets[1].Le != nil {
		t.Fatalf("histogram wrong: %+v", hh)
	}
}

func TestWriteTextDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("days").Add(2)
	h := r.Histogram("tick_ns", nil)
	h.Observe(10)
	h.Observe(30)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "days") || !strings.Contains(out, "count=2 mean=20") {
		t.Fatalf("text dump broken:\n%s", out)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"rs2hpm.collector.gaps": "rs2hpm_collector_gaps",
		"already_ok:name":       "already_ok:name",
		"9leading":              "_9leading",
		"":                      "_",
		"sp\xffce y":            "sp_ce_y",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSanitizeFloat(t *testing.T) {
	if sanitizeFloat(math.NaN()) != 0 {
		t.Error("NaN not clamped to 0")
	}
	if sanitizeFloat(math.Inf(1)) != math.MaxFloat64 {
		t.Error("+Inf not clamped")
	}
	if sanitizeFloat(math.Inf(-1)) != -math.MaxFloat64 {
		t.Error("-Inf not clamped")
	}
	if sanitizeFloat(1.5) != 1.5 {
		t.Error("finite value changed")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("rs2hpm.daemon.conns").Add(6)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}
	body, ct := get("/metrics")
	if !strings.Contains(body, "rs2hpm_daemon_conns 6") || !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics broken (ct=%q):\n%s", ct, body)
	}
	body, ct = get("/debug/hpmvars")
	if !json.Valid([]byte(body)) || !strings.Contains(ct, "application/json") {
		t.Fatalf("/debug/hpmvars broken (ct=%q):\n%s", ct, body)
	}
	if resp, err := http.Get(srv.URL + "/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown path: %s", resp.Status)
		}
	}
}

// Concurrent updates and snapshots must be race-clean (run with -race)
// and lose nothing when writers quiesce first.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("v", []float64{10})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i % 20))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
}

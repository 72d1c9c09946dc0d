package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/rs2hpm"
	"repro/internal/rs2hpm/loadtest"
)

// tinyShape runs every workload in a fraction of a second per operation.
// Campaigns keep 144 nodes: the job-size mixes ask for up to 128.
var tinyShape = shape{
	Days: 2, Nodes: 144,
	FleetDays: 2,
	Clusters:  2, Shards: 2,
	Daemons: 2, NodesPerDaemon: 4, Sweeps: 20,
	SetupReps: 1, MinOps: 2,
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, trace bool, mutate func(any)) report {
	t.Helper()
	rep, _ := run(config{
		workload: workload,
		seed:     3,
		seconds:  0.001,
		trace:    trace,
		shape:    tinyShape,
		dir:      t.TempDir(),
		mutate:   mutate,
	})
	return rep
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json at a tiny
// shape, untraced and traced, and requires each metric BENCHMARK.json
// names to be present with its unit and the outputs to check out.
func TestEveryMetricEmitted(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			rep := tinyRun(t, w.Name, trace, nil)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptOutputFails corrupts each workload's output between the
// operation and its check: the run must report failures and an incorrect
// result, never a clean number.
func TestCorruptOutputFails(t *testing.T) {
	corrupt := map[string]func(any){
		"paper-campaign": func(out any) {
			o := out.(*paperOut)
			o.res.Days = o.res.Days[:len(o.res.Days)-1]
		},
		"durable-fleet": func(out any) {
			out.(*fleetOut).replayed.Days[0].BusyNodeSeconds++
		},
		"archive": func(out any) {
			out.(*archiveOut).decoded.Days[1].Delta.Counts[0][0]++
		},
		"collect": func(out any) {
			h := out.(*loadtest.Harness)
			if err := h.Log.Add(rs2hpm.Sample{Node: 0, AtSeconds: 1e12}); err != nil {
				panic(err)
			}
		},
	}
	for _, w := range workloads {
		rep := tinyRun(t, w.name, false, corrupt[w.name])
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: corrupted output reported correct=%v failed=%d", w.name, rep.Correct, rep.Failed)
		}
		if ok := rep.Metrics["ok_frac"].Value; ok >= 1 {
			t.Errorf("%s: corrupted output left ok_frac = %v", w.name, ok)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

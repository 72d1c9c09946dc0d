package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fleet"
	"repro/internal/spec"
	"repro/internal/workload"
)

var (
	sysOnce sync.Once
	sys     *System
)

func system(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() { sys = New(Config{Days: 20, Seed: 3}) })
	return sys
}

// fleetOfOne returns the system's single-cluster definition.
func fleetOfOne(t *testing.T, s *System) fleet.Member {
	t.Helper()
	members, err := s.FleetMembers(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 {
		t.Fatalf("got %d members, want a fleet of one", len(members))
	}
	return members[0]
}

// runCampaign runs the system's fleet of one through fleet.Run.
func runCampaign(t *testing.T, s *System) workload.Result {
	t.Helper()
	res, err := fleet.Run([]fleet.Member{fleetOfOne(t, s)}, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDefaultsFillIn(t *testing.T) {
	want := workload.DefaultConfig(3)
	want.Days = 20
	if got := fleetOfOne(t, system(t)).Config; got != want {
		t.Fatalf("config:\n got %+v\nwant %+v (the paper's 144 nodes, 20 explicit days)", got, want)
	}
}

// TestNewWithSpec drives the declarative path through the facade: a
// committed preset, config overrides on top of the spec's campaign
// block, and a short end-to-end run.
func TestNewWithSpec(t *testing.T) {
	sp, err := spec.Preset("bursty")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithSpec(Config{Days: 2, Seed: 3}, sp)
	if err != nil {
		t.Fatal(err)
	}
	wc := fleetOfOne(t, s).Config
	if wc.Days != 2 {
		t.Fatalf("days = %d, want the override 2", wc.Days)
	}
	if wc.Nodes != 144 {
		t.Fatalf("nodes = %d, want the spec's 144", wc.Nodes)
	}
	if wc.Scenario != "bursty" {
		t.Fatalf("scenario = %q, want bursty", wc.Scenario)
	}
	if wc.Faults == nil {
		t.Fatal("bursty preset declares a faults block; it must survive resolution")
	}
	if testing.Short() {
		return
	}
	res := runCampaign(t, s)
	if len(res.Days) != 2 {
		t.Fatalf("days = %d", len(res.Days))
	}
	if res.Coverage == nil {
		t.Fatal("faulted campaign must report coverage")
	}
}

func TestProfilesOrdered(t *testing.T) {
	p := system(t).Profiles()
	if !(p.CFD.Mflops < p.BT.Mflops && p.BT.Mflops < p.MatMul.Mflops) {
		t.Fatalf("profile ordering: %v %v %v", p.CFD.Mflops, p.BT.Mflops, p.MatMul.Mflops)
	}
}

func TestEndToEndReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in -short mode")
	}
	s := system(t)
	res := runCampaign(t, s)
	if len(res.Days) != 20 {
		t.Fatalf("days = %d", len(res.Days))
	}
	// The report as cmd/experiments assembles it with every artifact on.
	seq := analysis.MeasureSequentialRow(s.cfg.Seed, 200_000)
	bt := analysis.MeasureBT49Row(analysis.DefaultBT49())
	rep := strings.Join([]string{
		analysis.RenderTable1(),
		analysis.ComputeTable2(res).Render(),
		analysis.ComputeTable3(res).Render(),
		analysis.ComputeTable4(res, seq, bt).Render(),
		analysis.ComputeFigure1(res).Render(),
		analysis.ComputeFigure2(res).Render(),
		analysis.ComputeFigure3(res).Render(),
		analysis.ComputeFigure4(res).Render(),
		analysis.ComputeFigure5(res).Render(),
	}, "\n")
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4",
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %s", want)
		}
	}
}

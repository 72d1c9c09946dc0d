package spec

// The fleet block: validation field paths and the expansion into
// per-cluster campaign configs.

import (
	"testing"
)

func TestValidateFleetBlock(t *testing.T) {
	bad := 1.5
	s := minimalSpec()
	s.Fleet = &FleetBlock{
		Clusters: 0,
		Overrides: []ClusterOverride{
			{Cluster: 0, Days: -1},
			{Cluster: -2},
			{Cluster: 0, PagingDayProb: &bad},
		},
	}
	ve := mustInvalid(t, s)
	for _, want := range []struct{ path, msg string }{
		{"fleet.clusters", "must be >= 1"},
		{"fleet.overrides[0].days", "must be >= 0"},
		{"fleet.overrides[1].cluster", "must be in [0, 0)"},
		{"fleet.overrides[2].cluster", "duplicate override"},
		{"fleet.overrides[2].paging_day_prob", "must be in [0, 1]"},
	} {
		if !hasPathError(ve, want.path, want.msg) {
			t.Errorf("missing error %s: %s in:\n%v", want.path, want.msg, ve)
		}
	}
}

func TestValidateFleetBlockAccepts(t *testing.T) {
	off := 0.0
	s := minimalSpec()
	s.Fleet = &FleetBlock{
		Clusters: 3,
		Overrides: []ClusterOverride{
			{Cluster: 1, Days: 2, Nodes: 32, MeanUtil: 0.8},
			{Cluster: 2, PagingDayProb: &off},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid fleet block rejected: %v", err)
	}
}

func TestResolveFleetDefaultsToOneCluster(t *testing.T) {
	s := minimalSpec()
	cfgs, mix, err := ResolveFleet(s, syntheticStandard())
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 1 {
		t.Fatalf("fleet-less spec resolved to %d clusters, want 1", len(cfgs))
	}
	cfg, mix2, err := Resolve(s, syntheticStandard())
	if err != nil {
		t.Fatal(err)
	}
	if cfgs[0] != cfg {
		t.Fatalf("fleet-of-one config differs from Resolve:\n fleet %+v\nsingle %+v", cfgs[0], cfg)
	}
	if len(mix.Clients) != len(mix2.Clients) {
		t.Fatal("fleet mix differs from Resolve mix")
	}
}

func TestResolveFleetAppliesOverrides(t *testing.T) {
	off := 0.0
	s := minimalSpec()
	s.Fleet = &FleetBlock{
		Clusters: 3,
		Overrides: []ClusterOverride{
			{Cluster: 1, Days: 5, Nodes: 32, MeanUtil: 0.9, UtilSigma: 0.3},
			{Cluster: 2, PagingDayProb: &off},
		},
	}
	cfgs, _, err := ResolveFleet(s, syntheticStandard())
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 3 {
		t.Fatalf("got %d clusters, want 3", len(cfgs))
	}
	base := cfgs[0]
	if base.Days != 1 || base.Nodes != 16 {
		t.Fatalf("cluster 0 should inherit the campaign block, got %+v", base)
	}
	if c := cfgs[1]; c.Days != 5 || c.Nodes != 32 || c.MeanUtil != 0.9 || c.UtilSigma != 0.3 {
		t.Fatalf("cluster 1 overrides not applied: %+v", c)
	}
	if c := cfgs[2]; c.PagingDayProb != 0 {
		t.Fatalf("cluster 2 paging override not applied: %+v", c)
	}
	if cfgs[2].Days != base.Days || cfgs[2].Nodes != base.Nodes {
		t.Fatalf("cluster 2 should inherit unoverridden fields: %+v", cfgs[2])
	}
	for i, c := range cfgs {
		if c.Seed != 0 {
			t.Fatalf("cluster %d: Seed is the caller's, must resolve zero: %+v", i, c)
		}
	}
}

func TestResolveFleetRejectsBadBlock(t *testing.T) {
	s := minimalSpec()
	s.Fleet = &FleetBlock{Clusters: 2, Overrides: []ClusterOverride{{Cluster: 5}}}
	if _, _, err := ResolveFleet(s, syntheticStandard()); err == nil {
		t.Fatal("out-of-range override resolved")
	}
	s.Fleet = &FleetBlock{Clusters: 0}
	if _, _, err := ResolveFleet(s, syntheticStandard()); err == nil {
		t.Fatal("zero-cluster fleet resolved")
	}
}

package core

// The fleet definition: member construction (seeds, replication, spec
// fleet blocks, explicit-override precedence, clusters too small for
// their mix) and a short end-to-end fleet run.

import (
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/spec"
	"repro/internal/workload"
)

func TestFleetMembersReplicatesBaseCampaign(t *testing.T) {
	s := system(t)
	base := fleetOfOne(t, s).Config
	members, err := s.FleetMembers(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 {
		t.Fatalf("got %d members, want 3", len(members))
	}
	for i, m := range members {
		want := base
		want.Seed = workload.ClusterSeed(base.Seed, i)
		if m.Config != want {
			t.Errorf("member %d config:\n got %+v\nwant %+v", i, m.Config, want)
		}
	}
	if members[0].Config.Seed != 3 {
		t.Fatalf("cluster 0 seed = %d, want the campaign seed 3 (identity)", members[0].Config.Seed)
	}
}

func burstyFleetSpec(t *testing.T) *spec.Spec {
	t.Helper()
	sp, err := spec.Preset("bursty")
	if err != nil {
		t.Fatal(err)
	}
	sp.Fleet = &spec.FleetBlock{
		Clusters:  2,
		Overrides: []spec.ClusterOverride{{Cluster: 1, Days: 1, Nodes: 128}},
	}
	return sp
}

func TestFleetMembersFromSpecFleetBlock(t *testing.T) {
	s, err := NewWithSpec(Config{Seed: 4}, burstyFleetSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	members, err := s.FleetMembers(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 {
		t.Fatalf("got %d members, want 2", len(members))
	}
	if c := members[0].Config; c.Days != 90 || c.Nodes != 144 {
		t.Fatalf("cluster 0 must inherit the campaign block (90 days, 144 nodes): %+v", c)
	}
	if c := members[1].Config; c.Days != 1 || c.Nodes != 128 {
		t.Fatalf("cluster 1 override (1 day, 128 nodes) not applied: %+v", c)
	}
	for i, m := range members {
		if m.Config.Seed != workload.ClusterSeed(4, i) {
			t.Errorf("member %d seed = %d, want ClusterSeed(4, %d)", i, m.Config.Seed, i)
		}
	}
	// An explicit member count redefines the fleet: homogeneous copies.
	four, err := s.FleetMembers(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(four) != 4 {
		t.Fatalf("got %d members, want 4", len(four))
	}
	if c := four[1].Config; c.Days != 90 || c.Nodes != 144 {
		t.Fatalf("explicit cluster count must drop per-cluster overrides: %+v", c)
	}
}

// TestFleetMembersRejectsUnrunnableClusters covers every way a cluster
// can end up smaller than the largest job its mix draws (the paper mix
// draws up to 128 nodes) — an explicit node count, a spec's campaign
// block, a fleet override — and a campaign of no days. Each would
// otherwise panic mid-run.
func TestFleetMembersRejectsUnrunnableClusters(t *testing.T) {
	paper := func(cfg Config) *System {
		s := *system(t)
		s.cfg.Days, s.cfg.Nodes = cfg.Days, cfg.Nodes
		return &s
	}
	withSpec := func(cfg Config, edit func(sp *spec.Spec)) *System {
		sp := burstyFleetSpec(t)
		edit(sp)
		s, err := NewWithSpec(cfg, sp)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name     string
		sys      *System
		clusters int
		want     string // "" means the fleet is runnable
	}{
		{"explicit-nodes", paper(Config{Nodes: 127}), 0, "cluster 0 has 127 nodes, but its mix can draw a 128-node job"},
		{"explicit-nodes-every-cluster", paper(Config{Nodes: 64}), 3, "cluster 0 has 64 nodes"},
		{"largest-job-fits", paper(Config{Nodes: 128}), 0, ""},
		{"negative-days", paper(Config{Days: -3}), 0, "cluster 0 has -3 days"},
		{"spec-campaign-block", withSpec(Config{}, func(sp *spec.Spec) { sp.Fleet = nil; sp.Campaign.Nodes = 100 }), 0,
			"cluster 0 has 100 nodes, but its mix can draw a 128-node job"},
		{"fleet-override", withSpec(Config{}, func(sp *spec.Spec) { sp.Fleet.Overrides[0].Nodes = 96 }), 0,
			"cluster 1 has 96 nodes"},
		{"explicit-nodes-beat-override", withSpec(Config{Nodes: 144}, func(sp *spec.Spec) { sp.Fleet.Overrides[0].Nodes = 96 }), 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.sys.FleetMembers(tc.clusters)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("runnable fleet rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("got error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestFleetMembersWithSpecOverrides drives the whole stack: explicit
// Days override every cluster of the fleet, and the merged reduction
// streams out with summed capacity.
func TestFleetMembersWithSpecOverrides(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet run in -short mode")
	}
	s, err := NewWithSpec(Config{Seed: 4, Days: 2}, burstyFleetSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	members, err := s.FleetMembers(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if m.Config.Days != 2 {
			t.Fatalf("explicit -days must override cluster %d, got %d", i, m.Config.Days)
		}
	}
	res, err := fleet.Run(members, fleet.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Days) != 2 {
		t.Fatalf("merged days = %d, want 2", len(res.Days))
	}
	if res.Config.Nodes != 144+128 {
		t.Fatalf("merged nodes = %d, want the fleet's 272", res.Config.Nodes)
	}
	if res.Config.Scenario != "bursty" {
		t.Fatalf("scenario = %q, want bursty", res.Config.Scenario)
	}
}

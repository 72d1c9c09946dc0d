package cliperf

// The campaign definition members() builds: the defaults, member
// construction (seeds, replication, spec fleet blocks, explicit-override
// precedence, clusters too small for their mix) and short end-to-end
// runs of what it builds.

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fleet"
	"repro/internal/profile"
	"repro/internal/spec"
	"repro/internal/workload"
)

// paperCampaign is a 20-day run of the built-in paper mix at seed 3.
func paperCampaign() *Campaign { return &Campaign{Days: 20, Seed: 3} }

// mustMembers builds c's fleet members.
func mustMembers(t *testing.T, c *Campaign) []fleet.Member {
	t.Helper()
	members, err := c.members()
	if err != nil {
		t.Fatal(err)
	}
	return members
}

// fleetOfOne returns c's single-cluster definition.
func fleetOfOne(t *testing.T, c *Campaign) fleet.Member {
	t.Helper()
	members := mustMembers(t, c)
	if len(members) != 1 {
		t.Fatalf("got %d members, want a fleet of one", len(members))
	}
	return members[0]
}

// runCampaign runs c's fleet of one through fleet.Run.
func runCampaign(t *testing.T, c *Campaign) workload.Result {
	t.Helper()
	res, err := fleet.Run([]fleet.Member{fleetOfOne(t, c)}, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDefaultsFillIn(t *testing.T) {
	want := workload.DefaultConfig(3)
	want.Days = 20
	if got := fleetOfOne(t, paperCampaign()).Config; got != want {
		t.Fatalf("config:\n got %+v\nwant %+v (the paper's 144 nodes, 20 explicit days)", got, want)
	}
}

// TestMembersWithSpec drives the declarative path: a committed preset,
// flag overrides on top of the spec's campaign block, and a short
// end-to-end run.
func TestMembersWithSpec(t *testing.T) {
	sp, err := spec.Preset("bursty")
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{Days: 2, Seed: 3, sp: sp}
	wc := fleetOfOne(t, c).Config
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
	res := runCampaign(t, c)
	if len(res.Days) != 2 {
		t.Fatalf("days = %d", len(res.Days))
	}
	if res.Coverage == nil {
		t.Fatal("faulted campaign must report coverage")
	}
}

// TestProfilesOrdered checks the profiles the campaign measures, read
// back from the store members() filled, and that its mix carries them.
func TestProfilesOrdered(t *testing.T) {
	c := paperCampaign()
	mix := fleetOfOne(t, c).Mix
	p := profile.MeasureStandardWorkers(c.Seed, c.Workers)
	if !(p.CFD.Mflops < p.BT.Mflops && p.BT.Mflops < p.MatMul.Mflops) {
		t.Fatalf("profile ordering: %v %v %v", p.CFD.Mflops, p.BT.Mflops, p.MatMul.Mflops)
	}
	if mix.ClientNamed("production-cfd").Class.Crunch != p.CFD || mix.ClientNamed("tuned-cfd").Class.Crunch != p.BT {
		t.Fatal("the paper mix does not carry the measured CFD and BT profiles")
	}
}

func TestEndToEndReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in -short mode")
	}
	c := paperCampaign()
	res := runCampaign(t, c)
	if len(res.Days) != 20 {
		t.Fatalf("days = %d", len(res.Days))
	}
	// The report as cmd/experiments assembles it with every artifact on.
	seq := analysis.MeasureSequentialRow(c.Seed, 200_000)
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

func TestFleetMembersReplicatesBaseCampaign(t *testing.T) {
	base := fleetOfOne(t, paperCampaign()).Config
	c := paperCampaign()
	c.Clusters = 3
	members := mustMembers(t, c)
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
	c := &Campaign{Seed: 4, sp: burstyFleetSpec(t)}
	members := mustMembers(t, c)
	if len(members) != 2 {
		t.Fatalf("got %d members, want 2", len(members))
	}
	if cfg := members[0].Config; cfg.Days != 90 || cfg.Nodes != 144 {
		t.Fatalf("cluster 0 must inherit the campaign block (90 days, 144 nodes): %+v", cfg)
	}
	if cfg := members[1].Config; cfg.Days != 1 || cfg.Nodes != 128 {
		t.Fatalf("cluster 1 override (1 day, 128 nodes) not applied: %+v", cfg)
	}
	for i, m := range members {
		if m.Config.Seed != workload.ClusterSeed(4, i) {
			t.Errorf("member %d seed = %d, want ClusterSeed(4, %d)", i, m.Config.Seed, i)
		}
	}
	// An explicit member count redefines the fleet: homogeneous copies.
	c.Clusters = 4
	four := mustMembers(t, c)
	if len(four) != 4 {
		t.Fatalf("got %d members, want 4", len(four))
	}
	if cfg := four[1].Config; cfg.Days != 90 || cfg.Nodes != 144 {
		t.Fatalf("explicit cluster count must drop per-cluster overrides: %+v", cfg)
	}
	if c.sp.Fleet == nil {
		t.Fatal("an explicit cluster count must leave the loaded spec's fleet block in place")
	}
}

// TestFleetMembersRejectsUnrunnableClusters covers every way a cluster
// can end up smaller than the largest job its mix draws (the paper mix
// draws up to 128 nodes) — an explicit node count, a spec's campaign
// block, a fleet override — and a campaign of no days. Each would
// otherwise panic mid-run.
func TestFleetMembersRejectsUnrunnableClusters(t *testing.T) {
	withSpec := func(c Campaign, edit func(sp *spec.Spec)) *Campaign {
		c.sp = burstyFleetSpec(t)
		edit(c.sp)
		return &c
	}
	cases := []struct {
		name string
		c    *Campaign
		want string // "" means the fleet is runnable
	}{
		{"explicit-nodes", &Campaign{Seed: 3, Nodes: 127}, "cluster 0 has 127 nodes, but its mix can draw a 128-node job"},
		{"explicit-nodes-every-cluster", &Campaign{Seed: 3, Nodes: 64, Clusters: 3}, "cluster 0 has 64 nodes"},
		{"largest-job-fits", &Campaign{Seed: 3, Nodes: 128}, ""},
		{"negative-days", &Campaign{Seed: 3, Days: -3}, "cluster 0 has -3 days"},
		{"spec-campaign-block", withSpec(Campaign{}, func(sp *spec.Spec) { sp.Fleet = nil; sp.Campaign.Nodes = 100 }),
			"cluster 0 has 100 nodes, but its mix can draw a 128-node job"},
		{"fleet-override", withSpec(Campaign{}, func(sp *spec.Spec) { sp.Fleet.Overrides[0].Nodes = 96 }),
			"cluster 1 has 96 nodes"},
		{"explicit-nodes-beat-override", withSpec(Campaign{Nodes: 144}, func(sp *spec.Spec) { sp.Fleet.Overrides[0].Nodes = 96 }), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.c.members()
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
	members := mustMembers(t, &Campaign{Seed: 4, Days: 2, sp: burstyFleetSpec(t)})
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

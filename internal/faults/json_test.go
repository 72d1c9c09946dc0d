package faults

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestPlanJSONRoundTrip is the codec's property test: for randomized
// seeded plans — empty days, zero-node/zero-tick geometry, single fault
// modes, everything-on mixes with duplicated samples — the encode→decode
// round trip is exact under reflect.DeepEqual, nil-ness of every
// internal slice included.
func TestPlanJSONRoundTrip(t *testing.T) {
	configs := []Config{
		{}, // no faults: per-tick tables stay nil
		{DropProbPerSample: 0.2},
		{DupProbPerSample: 0.9}, // dense duplicated-sample entries
		{CrashProbPerNodeDay: 0.5, MeanOutageTicks: 4},
		{RestartProbPerNodeDay: 0.5},
		Default(),
		{ // everything on, hot
			CrashProbPerNodeDay:   0.3,
			MeanOutageTicks:       3,
			DropProbPerSample:     0.15,
			DupProbPerSample:      0.15,
			RestartProbPerNodeDay: 0.3,
		},
	}
	geoms := []struct{ nodes, ticks int }{
		{0, 0}, {0, 96}, {8, 0}, {-1, 96}, // degenerate: all-nil plans
		{1, 1}, {4, 96}, {16, 12},
	}
	rnd := rand.New(rand.NewSource(10))
	for ci, cfg := range configs {
		for _, g := range geoms {
			for rep := 0; rep < 3; rep++ {
				seed := rnd.Uint64()
				day := rnd.Intn(30)
				p := NewPlan(cfg, seed, day, g.nodes, g.ticks)
				data, err := json.Marshal(p)
				if err != nil {
					t.Fatalf("config %d %dx%d: marshal: %v", ci, g.nodes, g.ticks, err)
				}
				var got Plan
				if err := json.Unmarshal(data, &got); err != nil {
					t.Fatalf("config %d %dx%d: unmarshal: %v", ci, g.nodes, g.ticks, err)
				}
				if !reflect.DeepEqual(p, got) {
					t.Fatalf("config %d %dx%d seed %d day %d: round trip not exact\nwant %+v\ngot  %+v",
						ci, g.nodes, g.ticks, seed, day, p, got)
				}
			}
		}
	}
}

// TestPlanJSONRoundTripPreservesBehavior re-checks the round trip at the
// accessor level: every (node, tick) query answers identically on the
// decoded plan, which is the property replay actually depends on.
func TestPlanJSONRoundTripPreservesBehavior(t *testing.T) {
	cfg := Config{
		CrashProbPerNodeDay:   0.4,
		MeanOutageTicks:       5,
		DropProbPerSample:     0.1,
		DupProbPerSample:      0.1,
		RestartProbPerNodeDay: 0.4,
	}
	p := NewPlan(cfg, 99, 3, 12, 24)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var got Plan
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	for n := -1; n <= p.Nodes; n++ {
		for tick := -1; tick <= p.Ticks; tick++ {
			if p.Down(n, tick) != got.Down(n, tick) ||
				p.Dropped(n, tick) != got.Dropped(n, tick) ||
				p.Duplicated(n, tick) != got.Duplicated(n, tick) ||
				p.ResetAt(n, tick) != got.ResetAt(n, tick) {
				t.Fatalf("accessor disagreement at node %d tick %d", n, tick)
			}
		}
	}
	if p.Empty() != got.Empty() {
		t.Fatal("Empty() disagrees after round trip")
	}
}

// TestPlanUnmarshalRejectsUnsound pins the decoder's validation: wire
// forms whose geometry and tables disagree must fail to decode, because
// a plan with (say) a short downTo slice would panic in Down. Each case
// must fail for its own reason, named by msg.
func TestPlanUnmarshalRejectsUnsound(t *testing.T) {
	const noRows = `"down_from":null,"down_to":null,"reset_tick":null,"reset_kind":null`
	cases := []struct {
		name string
		json string
		msg  string
	}{
		{"negative nodes with rows", `{"day":0,"nodes":-2,"ticks":4,"drop":null,"dup":null,"down_from":[1],"down_to":[2],"reset_tick":[0],"reset_kind":[0]}`, "down_from has 1 entries"},
		{"non-empty table under zero-cell geometry", `{"day":0,"nodes":2,"ticks":-4,"drop":"AA==","dup":null,` + noRows + `}`, "drop table has 1 bytes, 0 cells need 0"},
		{"huge geometry", `{"day":0,"nodes":2000000,"ticks":2000000,"drop":null,"dup":null,` + noRows + `}`, "exceeds"},
		// 2x12 is 24 cells, 3 bytes; 2x5 is 10 cells, 2 bytes.
		{"drop table one byte short", `{"day":0,"nodes":2,"ticks":12,"drop":"AAA=","dup":null,` + noRows + `}`, "drop table has 2 bytes, 24 cells need 3"},
		{"dup table one byte long", `{"day":0,"nodes":2,"ticks":12,"drop":null,"dup":"AAAAAA==",` + noRows + `}`, "dup table has 4 bytes, 24 cells need 3"},
		{"bit set past the last cell", `{"day":0,"nodes":2,"ticks":5,"drop":"AAQ=","dup":null,` + noRows + `}`, "drop table sets a bit past its 10 cells"},
		{"boolean table", `{"day":0,"nodes":1,"ticks":2,"drop":[true,false],"dup":null,` + noRows + `}`, "cannot unmarshal bool"},
		{"partial per-node set", `{"day":0,"nodes":2,"ticks":4,"drop":null,"dup":null,"down_from":[1,-1],"down_to":null,"reset_tick":null,"reset_kind":null}`, "down_to present/absent"},
		{"short down_to", `{"day":0,"nodes":2,"ticks":4,"drop":null,"dup":null,"down_from":[1,-1],"down_to":[2],"reset_tick":[-1,-1],"reset_kind":[0,0]}`, "down_to has 1 entries"},
		{"reset kind out of range", `{"day":0,"nodes":1,"ticks":4,"drop":null,"dup":null,"down_from":[-1],"down_to":[-1],"reset_tick":[2],"reset_kind":[7]}`, "reset kind 7"},
		{"not an object", `[1,2,3]`, "cannot unmarshal array"},
	}
	for _, tc := range cases {
		var p Plan
		err := json.Unmarshal([]byte(tc.json), &p)
		if err == nil {
			t.Errorf("%s: decode unexpectedly succeeded: %+v", tc.name, p)
		} else if !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.msg)
		}
	}
	// The last cell's bit is the table's highest legal bit.
	var p Plan
	if err := json.Unmarshal([]byte(`{"day":0,"nodes":2,"ticks":5,"drop":"/wM=","dup":null,`+noRows+`}`), &p); err != nil {
		t.Fatalf("every cell of a 2x5 table set: %v", err)
	}
	if !p.Dropped(1, 4) || !p.Dropped(0, 0) {
		t.Fatal("a full 2x5 drop table decoded with cells clear")
	}
}

// TestPlanUnmarshalBoundsAllocation pins the decode bound: a plan that
// claims the largest geometry the decoder admits (2^40 cells) but
// carries a 3-byte table fails on the table's length, before anything
// is sized from the geometry.
func TestPlanUnmarshalBoundsAllocation(t *testing.T) {
	data := []byte(`{"day":0,"nodes":1048576,"ticks":1048576,"drop":"AQAA","dup":null,"down_from":null,"down_to":null,"reset_tick":null,"reset_kind":null}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var p Plan
	err := json.Unmarshal(data, &p)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "drop table has 3 bytes") {
		t.Fatalf("2^40-cell claim with a 3-byte table: got %v, want a table-length error", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("rejecting a 3-byte table allocated %d bytes", n)
	}
}

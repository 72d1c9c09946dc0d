package cliperf

// Record/replay through the fleet definitions members() builds: the
// golden campaign hash must come back through a live record and a
// replay at shards {1, 4}, and the committed trace fixtures — recorded
// by spsim, and recorded again at each trace format version with their
// hashes unchanged — must replay bit for bit at any worker and shard
// count, and refuse a different definition with the replay package's
// mismatch error.

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/fnv"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
	"repro/internal/replay"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenCampaignHash mirrors the constant pinned in
// internal/workload/golden_test.go.
const goldenCampaignHash uint64 = 0x88ee6c33b8c0bd5c

func campaignHash(t *testing.T, r workload.Result) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(r); err != nil {
		t.Fatalf("hash result: %v", err)
	}
	return h.Sum64()
}

func TestFleetMembersRecordReplayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden fleet campaign is a full 2-day simulation per case")
	}
	members := []fleet.Member{fleetOfOne(t, &Campaign{Days: 2, Seed: 7, Workers: 1})}
	path := filepath.Join(t.TempDir(), "fleet.trace.gz")
	live, err := fleet.Run(members, fleet.Options{RecordTo: path})
	if err != nil {
		t.Fatalf("fleet record: %v", err)
	}
	if h := campaignHash(t, live); h != goldenCampaignHash {
		t.Fatalf("recorded fleet hash %#x, want golden %#x", h, goldenCampaignHash)
	}
	for _, shards := range []int{1, 4} {
		res, err := fleet.Run(members, fleet.Options{Shards: shards, ReplayFrom: path})
		if err != nil {
			t.Fatalf("shards=%d: fleet replay: %v", shards, err)
		}
		if h := campaignHash(t, res); h != goldenCampaignHash {
			t.Fatalf("shards=%d: replayed fleet hash %#x, want golden %#x", shards, h, goldenCampaignHash)
		}
	}
}

// traceFixture is a committed trace under testdata, recorded by spsim
// with -shards 1 (so the record order is fixed), and its Result hash
// read back from the same run's -o database.
type traceFixture struct {
	file   string
	cmd    string // the recording command line, minus -record
	spec   string // preset name or spec file; "" is the built-in paper mix
	days   int    // -days; 0 inherits the spec's per-cluster days
	faults bool   // -faults
	fleet  int    // -clusters
	hash   uint64
}

var traceFixtures = []traceFixture{
	{"paper-1996.trace.gz", "spsim -seed 7 -days 2", "", 2, false, 0, goldenCampaignHash},
	{"paper-1996-faulted.trace.gz", "spsim -seed 7 -days 2 -faults", "", 2, true, 0, 0x776731b266941640},
	{"bursty-2cluster.trace.gz", "spsim -seed 7 -days 2 -spec bursty -clusters 2 -shards 1", "bursty", 2, false, 2, 0x906e3ce3917a40ef},
	// A heterogeneous fleet: the spec's fleet block gives its three
	// clusters 2, 1 and 3 days on 144, 128 and 160 nodes at different
	// demand levels.
	{"paper-1996-hetero.trace.gz", "spsim -seed 7 -spec internal/cliperf/testdata/paper-1996-hetero.json -shards 1",
		"testdata/paper-1996-hetero.json", 0, false, 0, 0x1475bed65e7774cf},
}

// fixtureMembers builds a fixture's definition as its recording command
// line did: the spec loaded as Start loads -spec, then members().
func fixtureMembers(t *testing.T, fx traceFixture, seed uint64, workers int) []fleet.Member {
	t.Helper()
	c := &Campaign{Days: fx.days, Seed: seed, Workers: workers, Faults: fx.faults, Clusters: fx.fleet}
	if fx.spec != "" {
		var err error
		if c.sp, err = spec.Load(fx.spec); err != nil {
			t.Fatal(err)
		}
	}
	return mustMembers(t, c)
}

// TestTraceFixturesReplay replays each committed trace at workers
// {1, 3} x shards {1, 2} and requires the hash of the run that recorded
// it; a different seed is a different definition and must be refused.
func TestTraceFixturesReplay(t *testing.T) {
	for _, fx := range traceFixtures {
		t.Run(fx.file, func(t *testing.T) {
			path := filepath.Join("testdata", fx.file)
			for _, workers := range []int{1, 3} {
				members := fixtureMembers(t, fx, 7, workers)
				for _, shards := range []int{1, 2} {
					res, err := fleet.Run(members, fleet.Options{Shards: shards, ReplayFrom: path})
					if err != nil {
						t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
					}
					if h := campaignHash(t, res); h != fx.hash {
						t.Fatalf("workers=%d shards=%d: replayed hash %#x, want %#x, the hash of `%s`",
							workers, shards, h, fx.hash, fx.cmd)
					}
				}
			}
			other := fixtureMembers(t, fx, 8, 1)
			if _, err := fleet.Run(other, fleet.Options{ReplayFrom: path}); !errors.Is(err, replay.ErrMismatch) {
				t.Fatalf("replay at seed 8: %v, want ErrMismatch", err)
			}
		})
	}
}

// TestTraceFixturesDatabaseBytes: the database trace.Write emits for each
// fixture's replayed Result, faulted, heterogeneous and 2-cluster
// included, is encoding/json's encoding of its envelope, byte for byte.
func TestTraceFixturesDatabaseBytes(t *testing.T) {
	for _, fx := range traceFixtures {
		t.Run(fx.file, func(t *testing.T) {
			res, err := fleet.Run(fixtureMembers(t, fx, 7, 1), fleet.Options{ReplayFrom: filepath.Join("testdata", fx.file)})
			if err != nil {
				t.Fatal(err)
			}
			var got, want bytes.Buffer
			if err := trace.Write(&got, res); err != nil {
				t.Fatal(err)
			}
			if err := json.NewEncoder(&want).Encode(trace.Envelope{Version: trace.FormatVersion, Result: res}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("trace.Write's %d bytes are not encoding/json's %d", got.Len(), want.Len())
			}
		})
	}
}

package fleet

// The fleet determinism contract, machine-checked: the merged Result is
// bit-identical for every shard count, bit-identical to the
// single-campaign path for a one-cluster fleet (the golden campaign
// hash, through serialization and back), and bit-identical across
// kill/resume cycles wherever a kill cuts the checkpoint journal. These
// tests run under -race in CI's GOMAXPROCS matrix, so scheduler-order
// nondeterminism in the shard fan-out is hunted, not assumed away.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenCampaignHash mirrors the unexported constant guarding
// internal/workload's TestGoldenCampaignHash: resultHash of the seed-7,
// 2-day default campaign, captured on the pre-optimization tree. The
// fleet path must reproduce it exactly — sharding is an execution knob,
// never a model change.
const goldenCampaignHash uint64 = 0x88ee6c33b8c0bd5c

func resultHash(t *testing.T, r workload.Result) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(r); err != nil {
		t.Fatalf("hash result: %v", err)
	}
	return h.Sum64()
}

var (
	stdOnce sync.Once
	stdSet  profile.Standard
)

func std(t *testing.T) profile.Standard {
	t.Helper()
	stdOnce.Do(func() { stdSet = profile.MeasureStandard(1) })
	return stdSet
}

// goldenMember is the golden recipe as a fleet of one: standard profiles
// at seed 7 measured at the given width, 2-day default campaign.
func goldenMember(workers int) Member {
	std := profile.MeasureStandardWorkers(7, workers)
	cfg := workload.DefaultConfig(7)
	cfg.Days = 2
	return Member{Config: cfg, Mix: workload.DefaultMix(std)}
}

// smallFleet builds a homogeneous fleet with per-cluster seeds derived
// from the fleet seed, short windows, default node count.
func smallFleet(t *testing.T, clusters, days int, seed uint64) []Member {
	t.Helper()
	members := make([]Member, clusters)
	for c := range members {
		cfg := workload.DefaultConfig(workload.ClusterSeed(seed, c))
		cfg.Days = days
		members[c] = Member{Config: cfg, Mix: workload.DefaultMix(std(t))}
	}
	return members
}

func TestGoldenFleetCampaignHash(t *testing.T) {
	if testing.Short() {
		t.Skip("golden fleet campaign is a full 2-day simulation per case")
	}
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 2, 8} {
			res, err := Run([]Member{goldenMember(workers)}, Options{Shards: shards})
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if h := resultHash(t, res); h != goldenCampaignHash {
				t.Fatalf("shards=%d workers=%d: fleet hash %#x, want golden %#x — the fleet path changed observable behaviour",
					shards, workers, h, goldenCampaignHash)
			}
		}
	}

	// Checkpoint/resume cycle: the first run persists the completed
	// cluster; the resumed run restores it from disk — the whole Result
	// round-trips through the gzip JSON envelope — and must still hash to
	// the same golden constant, at a different shard and worker count.
	path := filepath.Join(t.TempDir(), "golden.ckpt.gz")
	if _, err := Run([]Member{goldenMember(1)}, Options{Shards: 2, Checkpoint: path}); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	res, err := Run([]Member{goldenMember(8)}, Options{Shards: 8, Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if h := resultHash(t, res); h != goldenCampaignHash {
		t.Fatalf("resumed fleet hash %#x, want golden %#x — the checkpoint round-trip changed bits", h, goldenCampaignHash)
	}
}

func TestFleetShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster fleet simulation")
	}
	members := smallFleet(t, 4, 2, 42)
	base, err := Run(members, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := resultHash(t, base)

	// Cross-check the merge tree against clusters run directly through
	// the single-campaign path and folded offline.
	parts := make([]workload.Result, len(members))
	for c := range members {
		parts[c] = workload.NewCampaign(members[c].Config, members[c].Mix).Run()
	}
	if h := resultHash(t, workload.MergeResults(parts)); h != want {
		t.Fatalf("offline merge hash %#x differs from fleet run %#x", h, want)
	}

	for _, shards := range []int{2, 4, 7} {
		res, err := Run(members, Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if h := resultHash(t, res); h != want {
			t.Fatalf("shards=%d hash %#x differs from shards=1 %#x", shards, h, want)
		}
	}
}

// The kill/resume equivalence: a kill can cut the checkpoint journal
// anywhere past its header. Cut a complete journal at every record
// boundary and at seeded random offsets, resume each cut once with
// HaltAfter 1 (so segments land after the dropped tail), then to
// completion, and require the merged Result to hash identically to the
// uninterrupted run — for plain and gzip journals, at shard counts 1
// and 4.
func TestFleetKillResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster fleet simulation")
	}
	members := smallFleet(t, 4, 2, 1234)
	base, err := Run(members, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := resultHash(t, base)
	rnd := rand.New(rand.NewSource(1234))
	for _, name := range []string{"fleet.ckpt", "fleet.ckpt.gz"} {
		for _, shards := range []int{1, 4} {
			dir := t.TempDir()
			full := filepath.Join(dir, name)
			res, err := Run(members, Options{Shards: shards, Checkpoint: full})
			if err != nil {
				t.Fatalf("%s shards=%d: uninterrupted: %v", name, shards, err)
			}
			if h := resultHash(t, res); h != want {
				t.Fatalf("%s shards=%d: checkpointed run hash %#x, run without a checkpoint %#x", name, shards, h, want)
			}
			data, cuts := recordEnds(t, full)
			for i := 0; i < 2; i++ {
				cuts = append(cuts, cuts[0]+rnd.Intn(len(data)-cuts[0]))
			}
			path := filepath.Join(dir, "cut-"+name)
			for _, n := range cuts {
				if err := os.WriteFile(path, data[:n], 0o644); err != nil {
					t.Fatal(err)
				}
				before := doneIn(t, path)
				opts := Options{Shards: shards, Checkpoint: path, Resume: true, HaltAfter: 1}
				if _, err := Run(members, opts); err != nil && !errors.Is(err, ErrHalted) {
					t.Fatalf("%s shards=%d cut at %d: halted resume: %v", name, shards, n, err)
				}
				if after := doneIn(t, path); after <= before && before < len(members) {
					t.Fatalf("%s shards=%d cut at %d: %d clusters done before the halted resume, %d after", name, shards, n, before, after)
				}
				opts.HaltAfter = 0
				res, err := Run(members, opts)
				if err != nil {
					t.Fatalf("%s shards=%d cut at %d: final resume: %v", name, shards, n, err)
				}
				if h := resultHash(t, res); h != want {
					t.Fatalf("%s shards=%d cut at %d: resumed hash %#x, uninterrupted %#x — kill/resume changed bits", name, shards, n, h, want)
				}
			}
		}
	}
}

// doneIn is the number of completed clusters the journal at path holds.
func doneIn(t *testing.T, path string) int {
	t.Helper()
	cp, err := trace.ReadFleetCheckpointFile(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable: %v", err)
	}
	return len(cp.Done)
}

// recordEnds returns the complete journal at path and where each of its
// records ends: the header, then each segment. It writes the journal
// again through the trace API — the header, then one Append per segment
// in order, noting the file's size after each — and requires the same
// bytes back.
func recordEnds(t *testing.T, path string) ([]byte, []int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := trace.ReadFleetCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	mark := func() {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(fi.Size()))
	}
	j, err := trace.CreateJournal(path, cp.FleetID, cp.Clusters)
	if err != nil {
		t.Fatal(err)
	}
	mark()
	for _, d := range cp.Done {
		if err := j.Append(d.Cluster, d.Result); err != nil {
			t.Fatal(err)
		}
		mark()
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("journal written again through the trace API differs from the fleet's (err %v)", err)
	}
	return data, ends
}

// recorder captures the merged stream a sink receives.
type recorder struct {
	days   []workload.Day
	finals []workload.Final
}

func (r *recorder) ReduceDay(d workload.Day) { r.days = append(r.days, d) }
func (r *recorder) Finish(f workload.Final)  { r.finals = append(r.finals, f) }

func TestFleetStreamsMergedDaysToSinks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster fleet simulation")
	}
	// Ragged fleet: cluster windows of different lengths exercise the
	// frontier on days only some clusters cover.
	members := smallFleet(t, 2, 3, 77)
	members[1].Config.Days = 1

	var rec recorder
	res, err := Run(members, Options{Shards: 2}, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.finals) != 1 {
		t.Fatalf("sink saw %d Finish calls, want 1", len(rec.finals))
	}
	if len(rec.days) != 3 {
		t.Fatalf("sink saw %d merged days, want 3", len(rec.days))
	}
	for i, d := range rec.days {
		if d.Index != i {
			t.Fatalf("merged day %d has index %d — stream out of order", i, d.Index)
		}
	}
	wantNodes := members[0].Config.Nodes + members[1].Config.Nodes
	if rec.finals[0].Config.Nodes != wantNodes {
		t.Fatalf("fleet Final Nodes = %d, want %d", rec.finals[0].Config.Nodes, wantNodes)
	}
	// The returned Result is exactly the stream the sinks saw.
	for i := range rec.days {
		if rec.days[i] != res.Days[i] {
			t.Fatalf("day %d: sink stream and merged Result disagree", i)
		}
	}
}

func TestFleetRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	members := smallFleet(t, 1, 1, 5)
	if _, err := Run(members, Options{Resume: true}); err == nil {
		t.Fatal("Resume without Checkpoint accepted")
	}
	// HaltAfter reports a checkpointed, resumable campaign; without a
	// checkpoint there would be nothing to resume.
	if _, err := Run(members, Options{HaltAfter: 1}); err == nil || errors.Is(err, ErrHalted) {
		t.Fatalf("HaltAfter without Checkpoint: got %v, want an options error", err)
	}
	if _, err := Run(members, Options{Resume: true, Checkpoint: filepath.Join(t.TempDir(), "absent.ckpt")}); err == nil {
		t.Fatal("Resume from a missing checkpoint accepted")
	}
	// An unwritable checkpoint path must fail before any cluster runs.
	if _, err := Run(members, Options{Checkpoint: filepath.Join(t.TempDir(), "no-such-dir", "fleet.ckpt")}); err == nil {
		t.Fatal("unwritable checkpoint path accepted")
	}
}

func TestFleetResumeRejectsForeignCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a short campaign to produce a checkpoint")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.ckpt")
	members := smallFleet(t, 2, 1, 5)
	opts := Options{Checkpoint: path, HaltAfter: 1}
	if _, err := Run(members, opts); !errors.Is(err, ErrHalted) {
		t.Fatalf("got %v, want ErrHalted", err)
	}
	// A checkpoint is bound by the same fingerprint a trace of this
	// fleet carries.
	cp, err := trace.ReadFleetCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := replay.HeaderFor(members).Fingerprint; cp.FleetID != want {
		t.Fatalf("checkpoint FleetID %#x, trace fingerprint %#x", cp.FleetID, want)
	}
	// A different fleet definition (different seed) must refuse the file.
	other := smallFleet(t, 2, 1, 6)
	if _, err := Run(other, Options{Checkpoint: path, Resume: true}); err == nil {
		t.Fatal("checkpoint from a different fleet accepted")
	}
	// A segment filed under another cluster's index, its frame CRCs
	// intact, must be refused, not merged as that cluster.
	misfiled := filepath.Join(dir, "misfiled.ckpt")
	j, err := trace.CreateJournal(misfiled, cp.FleetID, cp.Clusters)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(1-cp.Done[0].Cluster, cp.Done[0].Result); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(members, Options{Checkpoint: misfiled, Resume: true}); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("misfiled segment: got %v, want trace.ErrCorrupt", err)
	}
	// Corrupt bytes must refuse cleanly too, and so must a checkpoint in
	// the version-1 format, which rewrote every completed cluster at once.
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(members, Options{Checkpoint: path, Resume: true}); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("corrupt checkpoint: got %v, want trace.ErrCorrupt", err)
	}
	v1 := fmt.Sprintf(`{"version":1,"fleet_id":%d,"clusters":2,"done":null,"cursors":null}`+"\n", cp.FleetID)
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(members, Options{Checkpoint: path, Resume: true}); !errors.Is(err, trace.ErrVersion) {
		t.Fatalf("version-1 checkpoint: got %v, want trace.ErrVersion", err)
	}
}

// TestFleetIDIgnoresExecutionKnobs checks the fingerprint that binds
// checkpoints (and traces) to a fleet definition.
func TestFleetIDIgnoresExecutionKnobs(t *testing.T) {
	a := smallFleet(t, 2, 1, 9)
	b := smallFleet(t, 2, 1, 9)
	b[1].Config.Scenario = "renamed"
	if replay.Fingerprint(a) != replay.Fingerprint(b) {
		t.Fatal("fleet fingerprint depends on Scenario — resume would break across a spec rename")
	}
	c := smallFleet(t, 2, 1, 10)
	if replay.Fingerprint(a) == replay.Fingerprint(c) {
		t.Fatal("different fleet definitions share a fingerprint")
	}
}

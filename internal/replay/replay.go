// Package replay records and replays campaign traces. The paper's
// methodology is record-then-reduce: the RS2HPM cron sweep wrote nine
// months of samples to disk, and Tables 2–4 and Figures 2–5 were
// *re-reductions* of that stored record, long after the workload itself
// was gone. Our staged engine re-derives a campaign from a seed instead
// — good for reproducibility, useless for forensics on a workload whose
// seed you no longer trust, and limiting for experiments that want one
// pinned workload under many configurations. This package restores the
// paper's property: a Recorder tees the generate stage's output (each
// day's workload.DayPlan, plus the resolved faults.Plan for faulted
// campaigns) into a versioned gzip-JSON trace, and a Replayer feeds the
// recorded plans back into the simulate→reduce stages, bypassing
// generation entirely.
//
// Replay is bit-identical to live generation: the campaign Result is a
// pure function of the plan stream, so simulating recorded plans at any
// shard count lands on the same bits as the live run that recorded them.
// That makes a committed trace a differential-testing oracle: any engine
// optimization can be checked against it, not just against the single
// golden seed.
//
// A trace is bound to the campaign definition that wrote it by a config
// fingerprint (the fnv-64a hash of every cluster's serialized
// (Config, Mix), which also binds fleet checkpoints). Replaying a trace
// against a different definition is a hard ErrMismatch, never a silently
// wrong answer. The Scenario label is excluded from Config's JSON form
// and the shard count is not part of a definition, so a replay may use
// any of them.
package replay

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/faults"
	"repro/internal/workload"
)

// Format identity. FormatVersion must change whenever the trace layout
// changes incompatibly — a reader seeing another version reports
// trace.ErrVersion rather than guessing. Version 2 bit-packs the fault
// plans' per-node-tick tables (faults.Plan's codec), which version 1
// spelled as JSON booleans; no version-1 reader is kept.
const (
	FormatName    = "hpm-campaign-trace"
	FormatVersion = 2
)

// Failures classify into three families, matchable with errors.Is.
// Decoding wraps the two sentinels every persisted format uses:
// trace.ErrVersion for a trace from an incompatible format version
// (usually a newer writer), and trace.ErrCorrupt for bytes that are not
// a structurally sound trace — truncated, trailing garbage, not
// gzip/JSON, or internally inconsistent (duplicate or out-of-range
// records). Nothing in this package panics on trace bytes. Validation
// fails with ErrMismatch: the trace is sound but was recorded from a
// different campaign definition than the one replaying it. A fleet
// checkpoint is bound by the same Fingerprint, and resuming one against
// another definition is ErrMismatch too.
var ErrMismatch = errors.New("replay: recorded from a different campaign definition")

// Header opens every trace: the identity of the campaign that wrote it.
type Header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Scenario is the workload-spec label the campaign was resolved from
	// (metadata only — the fingerprint pins the resolved numbers).
	Scenario string `json:"scenario,omitempty"`
	// Seed is cluster 0's campaign seed, recorded for display; the
	// fingerprint is the binding check.
	Seed uint64 `json:"seed"`
	// Fingerprint is Fingerprint() of the recording definition.
	Fingerprint uint64 `json:"fingerprint"`
	// Clusters is the fleet width (1 for a plain campaign); ClusterDays
	// gives each cluster's recorded day count and Days their maximum.
	Clusters    int   `json:"clusters"`
	Days        int   `json:"days"`
	ClusterDays []int `json:"cluster_days"`
	// Faulted marks a campaign whose records carry resolved fault plans.
	Faulted bool `json:"faulted"`
}

// Record is one (cluster, day) of generated workload: the day plan the
// generator produced and, for faulted campaigns, the day's resolved
// fault schedule.
type Record struct {
	Cluster int              `json:"cluster"`
	Day     int              `json:"day"`
	Plan    workload.DayPlan `json:"plan"`
	Faults  *faults.Plan     `json:"faults,omitempty"`
}

// Def is one cluster's campaign definition — what the trace is recorded
// from and validated against on replay (fleet.Member is this type). A
// single-cluster campaign's definition is a single Def.
type Def struct {
	Config workload.Config
	Mix    workload.Mix
}

// Fingerprint hashes a campaign definition: fnv-64a over each cluster's
// serialized (Config, Mix). It binds both traces and fleet checkpoints
// to the definition that wrote them. Scenario carries `json:"-"`, so
// renaming a spec never affects the fingerprint. It panics only if the
// definition is unserializable, which a constructible Config/Mix never
// is.
func Fingerprint(defs []Def) uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for i := range defs {
		if err := enc.Encode(defs[i]); err != nil {
			panic(fmt.Sprintf("replay: hashing cluster %d definition: %v", i, err))
		}
	}
	return h.Sum64()
}

// HeaderFor builds the trace header for a campaign definition.
func HeaderFor(defs []Def) Header {
	h := Header{
		Format:      FormatName,
		Version:     FormatVersion,
		Fingerprint: Fingerprint(defs),
		Clusters:    len(defs),
		ClusterDays: make([]int, len(defs)),
	}
	if len(defs) > 0 {
		h.Scenario = defs[0].Config.Scenario
		h.Seed = defs[0].Config.Seed
	}
	for i := range defs {
		h.ClusterDays[i] = defs[i].Config.Days
		if defs[i].Config.Days > h.Days {
			h.Days = defs[i].Config.Days
		}
		if defs[i].Config.Faults != nil {
			h.Faulted = true
		}
	}
	return h
}

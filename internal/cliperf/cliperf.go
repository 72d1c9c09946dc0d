// Package cliperf is the campaign front end cmd/spsim and cmd/experiments
// share: the campaign flag set and its exit-2 rules, the one way both
// build a campaign (measure the kernel profiles, resolve the spec or the
// built-in paper mix, and expand the fleet's members) and run it through
// fleet.Run, pprof capture (-cpuprofile/-memprofile), the persisted
// profile-measurement cache (-profile-cache) and the -telemetry
// snapshot. Each binary keeps only its own flags and output.
//
// Exit codes follow the hpmlint convention: 2 for an invocation or a
// campaign definition that cannot run, 1 for a runtime failure.
package cliperf

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Campaign holds the campaign flags of one command line.
type Campaign struct {
	prog string
	sp   *spec.Spec // loaded by Start; nil without -spec

	Days, Nodes, Workers        int
	Seed                        uint64
	Spec                        string
	ListPresets, Faults         bool
	Clusters, Shards, HaltAfter int
	Checkpoint                  string
	Resume                      bool
	Record, Replay              string
	ProfileCache, Telemetry     string
	CPUProfile, MemProfile      string
}

// CampaignFlags declares the campaign flags on fs. prog prefixes every
// message the campaign prints to stderr.
func CampaignFlags(fs *flag.FlagSet, prog string) *Campaign {
	c := &Campaign{prog: prog}
	fs.IntVar(&c.Days, "days", 0, "campaign length in days; 0 inherits the spec's campaign block (270 without a spec)")
	fs.IntVar(&c.Nodes, "nodes", 0, "cluster size; 0 inherits the spec's campaign block (144 without a spec)")
	fs.Uint64Var(&c.Seed, "seed", 1, "campaign random seed")
	fs.IntVar(&c.Workers, "workers", runtime.GOMAXPROCS(0), "profile-measurement width: kernel micro-simulations in flight (0 = GOMAXPROCS; results are seed-identical at any setting)")
	fs.StringVar(&c.Spec, "spec", "", "workload spec: a committed preset name (see -list-presets) or a JSON file path")
	fs.BoolVar(&c.ListPresets, "list-presets", false, "list the committed workload-spec presets and exit")
	fs.BoolVar(&c.Faults, "faults", false, "inject the default collection-fault mix (crashes, cron misses, daemon restarts) and report coverage; a spec's own faults block takes precedence")
	fs.IntVar(&c.Clusters, "clusters", 0, "fleet size: run this many copies of the campaign as a multi-cluster fleet; 0 defers to the spec's fleet block (or a single cluster)")
	fs.IntVar(&c.Shards, "shards", 1, "fleet shards: clusters simulated in parallel, the campaign's only parallel axis (results are identical at any setting)")
	fs.StringVar(&c.Checkpoint, "checkpoint", "", "fleet checkpoint file (.json or .json.gz), written as clusters complete")
	fs.BoolVar(&c.Resume, "resume", false, "resume the fleet campaign recorded in -checkpoint")
	fs.IntVar(&c.HaltAfter, "halt-after", 0, "stop the fleet after this many cluster completions (smoke/testing; requires -checkpoint)")
	fs.StringVar(&c.Record, "record", "", "record the campaign's generated plans (and resolved fault schedules) to a trace here (always gzip); replaying it reproduces this run bit for bit")
	fs.StringVar(&c.Replay, "replay", "", "re-simulate a recorded campaign trace instead of generating plans; the trace must match the campaign definition (exit 1 on corruption or mismatch)")
	fs.StringVar(&c.ProfileCache, "profile-cache", "", "persist kernel measurements here (.json or .json.gz) and reuse them on later runs")
	fs.StringVar(&c.Telemetry, "telemetry", "", `append the hpmtel self-measurement snapshot after the output ("text" or "json")`)
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile here")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile here on exit")
	return c
}

// Check returns the first violated exit-2 rule of the campaign flags.
func (c *Campaign) Check() error {
	for _, r := range []struct {
		bad bool
		msg string
	}{
		{c.Telemetry != "" && c.Telemetry != "text" && c.Telemetry != "json", fmt.Sprintf(`-telemetry must be "text" or "json", got %q`, c.Telemetry)},
		{c.Days < 0, fmt.Sprintf("-days must be >= 0, got %d", c.Days)},
		{c.Nodes < 0, fmt.Sprintf("-nodes must be >= 0, got %d", c.Nodes)},
		{c.Workers < 0, fmt.Sprintf("-workers must be >= 0, got %d", c.Workers)},
		{c.Shards < 1, fmt.Sprintf("-shards must be >= 1, got %d", c.Shards)},
		{c.Clusters < 0, fmt.Sprintf("-clusters must be >= 0, got %d", c.Clusters)},
		{c.HaltAfter < 0, fmt.Sprintf("-halt-after must be >= 0, got %d", c.HaltAfter)},
		{c.Resume && c.Checkpoint == "", "-resume requires -checkpoint"},
		{c.HaltAfter > 0 && c.Checkpoint == "", "-halt-after requires -checkpoint"},
		// A useful trace is a complete trace: recording rejects every mode
		// that would leave some day ungenerated (mirrors fleet.Options).
		{c.Record != "" && c.Replay != "", "-record cannot be combined with -replay (a replay would only copy the trace)"},
		{c.Record != "" && c.Resume, "-record cannot be combined with -resume (restored clusters never regenerate, so the trace would be incomplete)"},
		{c.Record != "" && c.HaltAfter > 0, "-record cannot be combined with -halt-after (a halted run records an incomplete trace)"},
	} {
		if r.bad {
			return errors.New(r.msg)
		}
	}
	return nil
}

// Fail prints err after the program name and exits with code.
func (c *Campaign) Fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.prog, err)
	os.Exit(code)
}

// PrintPresets lists the committed workload-spec presets.
func (c *Campaign) PrintPresets() {
	for _, name := range spec.PresetNames() {
		s, err := spec.Preset(name)
		if err != nil {
			c.Fail(1, err)
		}
		fmt.Printf("%-14s %s\n", name, s.Description)
	}
}

// Start readies the process before anything is measured, so a typo
// fails in milliseconds: it loads -spec (exit 2) and probes the -replay
// trace's header (exit 1; fleet.Run decodes the records once and checks
// them against the members), then starts the CPU profile and warms the
// measurement store from -profile-cache (exit 1). Defer the returned
// stop: it writes the heap profile and stops the CPU profile.
func (c *Campaign) Start() (stop func()) {
	if c.Spec != "" {
		var err error
		if c.sp, err = spec.Load(c.Spec); err != nil {
			c.Fail(2, err)
		}
	}
	if c.Replay != "" {
		if _, err := replay.ReadHeaderFile(c.Replay); err != nil {
			c.Fail(1, err)
		}
	}
	stopCPU, err := startCPUProfile(c.CPUProfile)
	if err != nil {
		c.Fail(1, err)
	}
	if c.ProfileCache != "" {
		if err := trace.LoadProfileCacheFile(c.ProfileCache, profile.DefaultStore); err != nil {
			c.Fail(1, err)
		}
	}
	return func() {
		if err := writeMemProfile(c.MemProfile); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", c.prog, err)
		}
		stopCPU()
	}
}

// startCPUProfile begins CPU profiling into path and returns the stop
// function. With an empty path it is a no-op returning a no-op stop.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile writes a heap profile to path (after a GC, so the
// profile reflects live objects rather than garbage). Empty path is a
// no-op.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	return nil
}

// SaveProfileCache persists the measurement store to -profile-cache so
// the next process starts warm; a no-op without the flag.
func (c *Campaign) SaveProfileCache() error {
	if c.ProfileCache == "" {
		return nil
	}
	return trace.WriteProfileCacheFile(c.ProfileCache, profile.DefaultStore)
}

// Members builds the fleet the flags describe; a definition that cannot
// run exits 2.
func (c *Campaign) Members() []fleet.Member {
	members, err := c.members()
	if err != nil {
		c.Fail(2, err)
	}
	return members
}

// members measures the kernel profiles and builds the fleet definition
// fleet.Run runs: per-cluster campaign configs with substream-derived
// seeds and the shared mix. -clusters > 0 runs that many copies of the
// campaign block; 0 defers to the spec's fleet block (a fleet of one
// without a spec, or when the spec has none). Non-zero -days and -nodes
// override every cluster; zero inherits the campaign block and the
// spec's per-cluster overrides. -faults adds the default fault mix to
// every cluster whose spec declares none. A cluster with fewer days than
// one, or fewer nodes than the largest job its mix can draw, is an
// error: its campaign could not run to the end.
func (c *Campaign) members() ([]fleet.Member, error) {
	std := profile.MeasureStandardWorkers(c.Seed, c.Workers)
	var (
		cfgs []workload.Config
		mix  workload.Mix
	)
	if c.sp == nil {
		cfgs, mix = []workload.Config{workload.DefaultConfig(c.Seed)}, workload.DefaultMix(std)
	} else {
		// An explicit cluster count replaces the spec's fleet block.
		sp := *c.sp
		if c.Clusters > 0 {
			sp.Fleet = nil
		}
		var err error
		if cfgs, mix, err = spec.ResolveFleet(&sp, std); err != nil {
			return nil, err
		}
	}
	for len(cfgs) < c.Clusters {
		cfgs = append(cfgs, cfgs[0])
	}
	maxJob := mix.MaxJobNodes()
	members := make([]fleet.Member, len(cfgs))
	for i, cfg := range cfgs {
		if c.Days != 0 {
			cfg.Days = c.Days
		}
		if c.Nodes != 0 {
			cfg.Nodes = c.Nodes
		}
		cfg.Seed = workload.ClusterSeed(c.Seed, i)
		switch {
		case cfg.Days < 1:
			return nil, fmt.Errorf("cluster %d has %d days, want at least 1", i, cfg.Days)
		case cfg.Nodes < maxJob:
			return nil, fmt.Errorf("cluster %d has %d nodes, but its mix can draw a %d-node job", i, cfg.Nodes, maxJob)
		}
		if c.Faults && cfg.Faults == nil {
			f := faults.Default()
			cfg.Faults = &f
		}
		members[i] = fleet.Member{Config: cfg, Mix: mix}
	}
	return members, nil
}

// Run prints the banner and runs the members through fleet.Run with the
// fleet, checkpoint and trace flags, streaming the merged reduction into
// sinks. A run halted by -halt-after says where its checkpoint is and
// returns false; any other failure exits 1.
func (c *Campaign) Run(members []fleet.Member, sinks ...workload.Reducer) (workload.Result, bool) {
	verb := "running"
	if c.Replay != "" {
		verb = "replaying"
	}
	days, nodes := 0, 0
	for _, m := range members {
		days = max(days, m.Config.Days)
		nodes += m.Config.Nodes
	}
	scenario := ""
	if s := members[0].Config.Scenario; s != "" {
		scenario = fmt.Sprintf(" [scenario %s]", s)
	}
	fmt.Printf("%s a %d-day campaign on %d nodes in %d cluster(s) (seed %d, %d shard(s))%s...\n",
		verb, days, nodes, len(members), c.Seed, c.Shards, scenario)
	res, err := fleet.Run(members, fleet.Options{
		Shards:     c.Shards,
		Checkpoint: c.Checkpoint,
		Resume:     c.Resume,
		HaltAfter:  c.HaltAfter,
		RecordTo:   c.Record,
		ReplayFrom: c.Replay,
	}, sinks...)
	switch {
	case errors.Is(err, fleet.ErrHalted):
		fmt.Printf("fleet halted after %d cluster completion(s); %s holds the partial campaign — rerun with -resume to continue\n",
			c.HaltAfter, c.Checkpoint)
		return res, false
	case err != nil:
		c.Fail(1, err)
	}
	return res, true
}

// PrintTelemetry appends the process-wide hpmtel snapshot, taken now, in
// the -telemetry format; a no-op without the flag.
func (c *Campaign) PrintTelemetry() {
	if c.Telemetry == "" {
		return
	}
	snap := telemetry.Default.Snapshot()
	fmt.Printf("\n=== telemetry (hpmtel) ===\n")
	var err error
	if c.Telemetry == "json" {
		err = snap.WriteJSON(os.Stdout)
	} else {
		err = snap.WriteText(os.Stdout)
	}
	if err != nil {
		c.Fail(1, err)
	}
}

// Command spsim runs the nine-month NAS SP2 measurement campaign on the
// simulated cluster and prints the headline numbers the paper reports:
// daily system Gflops, utilisation, the >2 Gflops day sample, and the
// batch-job population.
//
// The workload defaults to the paper's 1996 NAS mix; -spec swaps in any
// declarative workload spec (a committed preset name or a JSON file path,
// see internal/spec), -list-presets shows the catalogue, and -validate
// checks specs without running anything (exit 0 clean, 2 malformed — the
// hpmlint exit-code convention, so CI can gate on it).
//
// Every campaign runs on the sharded fleet engine (internal/fleet), a
// single campaign as a fleet of one. The fleet flags (-clusters,
// -shards, -checkpoint, -resume, -halt-after) and a spec's fleet block
// shape the fleet, not the engine: clusters are partitioned across
// shards and merged in canonical cluster order, so results are
// bit-identical at every shard count and across a kill/resume cycle.
// -days and -nodes default to 0, which inherits the spec's campaign
// block (270 days on 144 nodes without a spec); a cluster smaller than
// the largest job its mix can draw exits 2.
//
// -record tees the generate stage into a campaign trace (internal/replay)
// while the run proceeds normally; -replay re-simulates a recorded trace
// instead of generating plans, reproducing the recorded run bit for bit
// (exit 1 on a corrupt or mismatched trace).
//
// The campaign flags are shared with cmd/experiments (internal/cliperf).
//
// Usage:
//
//	spsim [-days N] [-nodes N] [-seed 1] [-workers N] [-v] [-faults] [-o db.json.gz]
//	      [-spec preset-or-file] [-list-presets] [-validate [spec files...]]
//	      [-clusters N] [-shards N] [-checkpoint fleet.json.gz] [-resume] [-halt-after N]
//	      [-record trace.gz | -replay trace.gz]
//	      [-csv jobs.csv] [-telemetry text|json] [-profile-cache profiles.json.gz]
//	      [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cliperf"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// dayPrinter is a streaming reducer that prints each day as the campaign
// closes it, instead of waiting for the full Result.
type dayPrinter struct{ nodes int }

func (p dayPrinter) ReduceDay(d workload.Day) {
	r := d.PerNodeRates(p.nodes)
	fmt.Printf("day %3d  %5.2f Gflops  util %4.1f%%  mflops/node %5.2f  sys/user-fxu %4.2f\n",
		d.Index, d.Gflops(), 100*d.Utilization(p.nodes), r.MflopsAll, d.SystemUserFXURatio())
}

func (dayPrinter) Finish(workload.Final) {}

// validateSpecs checks the referenced specs without running anything and
// returns the process exit code: 0 when every spec is clean, 2 when any
// fails to load, decode or validate. With no explicit reference it
// sweeps every committed preset — the CI spec-validate gate.
func validateSpecs(ref string, args []string) int {
	var refs []string
	switch {
	case len(args) > 0:
		refs = args
	case ref != "":
		refs = []string{ref}
	default:
		refs = spec.PresetNames()
	}
	code := 0
	for _, r := range refs {
		if _, err := spec.Load(r); err != nil {
			fmt.Fprintf(os.Stderr, "spsim: %v\n", err)
			code = 2
			continue
		}
		fmt.Printf("%s: ok\n", r)
	}
	return code
}

func main() {
	cf := cliperf.CampaignFlags(flag.CommandLine, "spsim")
	verbose := flag.Bool("v", false, "print per-day detail")
	validate := flag.Bool("validate", false, "validate workload specs and exit 0 (clean) or 2 (malformed): the -spec reference, file arguments, or — with neither — every committed preset")
	out := flag.String("o", "", "write the campaign database here (.json or .json.gz) for cmd/experiments")
	csvOut := flag.String("csv", "", "also export the batch-job database as CSV")
	flag.Parse()
	if err := cf.Check(); err != nil {
		cf.Fail(2, err)
	}
	if cf.ListPresets {
		cf.PrintPresets()
		return
	}
	if *validate {
		os.Exit(validateSpecs(cf.Spec, flag.Args()))
	}
	stop := cf.Start()
	defer stop()

	fmt.Printf("measuring kernel profiles...\n")
	members := cf.Members()
	if err := cf.SaveProfileCache(); err != nil {
		cf.Fail(1, err)
	}
	var sinks workload.TeeReducer
	if *verbose {
		nodes := 0
		for _, m := range members {
			nodes += m.Config.Nodes
		}
		sinks = append(sinks, dayPrinter{nodes})
	}
	var telRed workload.TelemetryReducer
	if cf.Telemetry != "" {
		sinks = append(sinks, &telRed)
	}
	res, ok := cf.Run(members, sinks...)
	if !ok {
		return
	}
	if cf.Record != "" {
		fmt.Printf("campaign trace recorded to %s\n", cf.Record)
	}

	if *out != "" {
		if err := trace.WriteFile(*out, res); err != nil {
			cf.Fail(1, err)
		}
		fmt.Printf("campaign database written to %s\n", *out)
	}
	if *csvOut != "" {
		if err := trace.WriteRecordsCSVFile(*csvOut, res.Records); err != nil {
			cf.Fail(1, err)
		}
		fmt.Printf("job database (CSV) written to %s\n", *csvOut)
	}

	var gflops, utils []float64
	for i, d := range res.Days {
		gflops = append(gflops, res.DayGflops(i))
		utils = append(utils, d.Utilization(res.Config.Nodes))
	}

	fmt.Printf("\n=== campaign summary (paper values in brackets) ===\n")
	fmt.Printf("daily system rate   : mean %.2f Gflops [1.3], max %.2f [3.4]\n",
		stats.Mean(gflops), stats.Max(gflops))
	fmt.Printf("max 15-minute rate  : %.2f Gflops [5.7]\n", res.MaxGflops15min)
	fmt.Printf("utilization         : mean %.0f%% [64%%], max %.0f%% [95%%]\n",
		100*stats.Mean(utils), 100*stats.Max(utils))

	good := 0
	var goodR []float64
	for i := range res.Days {
		if res.DayGflops(i) > 2.0 {
			good++
			goodR = append(goodR, res.DayPerNodeRates(i).MflopsAll)
		}
	}
	fmt.Printf("days > 2.0 Gflops   : %d of %d [30 of 270], avg %.1f Mflops/node [17.4]\n",
		good, len(res.Days), stats.Mean(goodR))

	// Batch population.
	fmt.Printf("\nbatch records       : %d (dropped %d under 600 s)\n", len(res.Records), res.DroppedRecords)
	byNodes := map[int]float64{}
	var jobMf []float64
	var jobWall []float64
	for _, r := range res.Records {
		byNodes[r.NodesUsed] += r.WallSeconds
		jobMf = append(jobMf, r.PerNodeRates().MflopsAll)
		jobWall = append(jobWall, r.WallSeconds)
	}
	fmt.Printf("time-weighted job rate: %.1f Mflops/node [19]\n",
		stats.WeightedMean(jobMf, jobWall))
	var keys []int
	for k := range byNodes {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	fmt.Printf("walltime by node count:\n")
	for _, k := range keys {
		fmt.Printf("  %3d nodes: %10.0f s\n", k, byNodes[k])
	}

	if res.Coverage != nil {
		fmt.Printf("\n%s", res.Coverage.Render())
	}

	// The hpmtel snapshot captured at campaign Finish: the run measuring
	// its own execution, appended after the simulated results.
	cf.PrintTelemetry(telRed.Snapshot)
}

// Command experiments regenerates every table and figure of the paper.
// It either loads a campaign database written by spsim -o, or runs the
// campaign itself with the campaign flags it shares with spsim
// (internal/cliperf): the same defaults, checks and fleet engine.
//
// Usage:
//
//	experiments -all                       # run the 270-day campaign, print everything
//	experiments -days 90 -table2 -fig3     # shorter campaign, selected outputs
//	experiments -trace run.json.gz -all    # analyse a saved campaign
//	experiments -spec bursty -fig1         # run a named workload-spec preset
//	experiments -clusters 4 -shards 2 -all # tables over a merged fleet campaign
//	experiments -record t.gz -all          # record the campaign trace while running
//	experiments -replay t.gz -all          # re-simulate a recorded trace bit-identically
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/cliperf"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	cf := cliperf.CampaignFlags(flag.CommandLine, "experiments")
	tracePath := flag.String("trace", "", "load a saved campaign database instead of running one")
	all := flag.Bool("all", false, "emit every table and figure")
	t1 := flag.Bool("table1", false, "Table 1: the 22-counter selection")
	t2 := flag.Bool("table2", false, "Table 2: major rates over >2 Gflops days")
	t3 := flag.Bool("table3", false, "Table 3: full rate breakdown")
	t4 := flag.Bool("table4", false, "Table 4: hierarchical memory performance")
	f1 := flag.Bool("fig1", false, "Figure 1: system performance history")
	f2 := flag.Bool("fig2", false, "Figure 2: walltime by nodes requested")
	f3 := flag.Bool("fig3", false, "Figure 3: per-node performance by nodes requested")
	f4 := flag.Bool("fig4", false, "Figure 4: 16-node job history")
	f5 := flag.Bool("fig5", false, "Figure 5: performance vs system intervention")
	whatif := flag.Bool("whatif", false, "what-if: the I/O-wait counter selection the paper recommends")
	npb := flag.Bool("npb", false, "NPB suite signatures (extends Table 4's BT reference)")
	flag.Parse()
	if err := cf.Check(); err != nil {
		cf.Fail(2, err)
	}
	// Record/replay and the fleet flags drive a campaign run, so none
	// combines with -trace.
	if *tracePath != "" {
		switch {
		case cf.Record != "" || cf.Replay != "":
			cf.Fail(2, errors.New("-record/-replay drive a campaign run and cannot be combined with -trace"))
		case cf.Clusters > 0 || cf.Shards != 1 || cf.Checkpoint != "" || cf.Resume || cf.HaltAfter > 0:
			cf.Fail(2, errors.New("fleet flags run a fresh campaign and cannot be combined with -trace"))
		}
	}
	if cf.ListPresets {
		cf.PrintPresets()
		return
	}
	stop := cf.Start()
	defer stop()
	defer func() {
		if err := cf.SaveProfileCache(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		}
	}()

	if !(*all || *t1 || *t2 || *t3 || *t4 || *f1 || *f2 || *f3 || *f4 || *f5 || *whatif || *npb) {
		*all = true
	}

	var res workload.Result
	if *tracePath != "" {
		var err error
		if res, err = trace.ReadFile(*tracePath); err != nil {
			cf.Fail(1, err)
		}
		fmt.Printf("loaded %d-day campaign from %s\n\n", len(res.Days), *tracePath)
	} else {
		var ok bool
		if res, ok = cf.Run(cf.Members()); !ok {
			return
		}
		fmt.Println()
		if cf.Record != "" {
			fmt.Printf("campaign trace recorded to %s\n\n", cf.Record)
		}
	}

	// Label every table and figure below with the scenario that produced
	// them, so output from different specs cannot be confused.
	if line := analysis.RenderScenario(res); line != "" {
		fmt.Println(line)
	}

	// A faulted campaign — fresh or loaded from a trace — leads with its
	// coverage report, so every table below is read against what the
	// collection actually observed.
	if cov := analysis.RenderCoverage(res); cov != "" {
		fmt.Println(cov)
	}

	emit := func(want bool, text string) {
		if *all || want {
			fmt.Println(text)
		}
	}
	emit(*t1, analysis.RenderTable1())
	emit(*t2, analysis.ComputeTable2(res).Render())
	emit(*t3, analysis.ComputeTable3(res).Render())
	if *all || *t4 {
		seq := analysis.MeasureSequentialRow(cf.Seed, 200_000)
		bt := analysis.MeasureBT49Row(analysis.DefaultBT49())
		fmt.Println(analysis.ComputeTable4(res, seq, bt).Render())
	}
	emit(*f1, analysis.ComputeFigure1(res).Render())
	emit(*f2, analysis.ComputeFigure2(res).Render())
	emit(*f3, analysis.ComputeFigure3(res).Render())
	emit(*f4, analysis.ComputeFigure4(res).Render())
	emit(*f5, analysis.ComputeFigure5(res).Render())
	if *all || *whatif {
		fmt.Println(analysis.MeasureIOWaitWhatIf(cf.Seed).Render())
	}
	if *all || *npb {
		fmt.Println(analysis.MeasureNPBSuite(cf.Seed, 400_000).Render())
	}

	// The hpmtel snapshot: whatever this process measured of itself —
	// campaign stages, profile-store traffic — appended after the paper
	// artifacts. Taken at exit so the table/figure recomputation above is
	// included.
	cf.PrintTelemetry(telemetry.Default.Snapshot())
}

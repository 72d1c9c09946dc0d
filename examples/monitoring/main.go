// The monitoring stack, end to end: simulated nodes running kernels, the
// rs2hpmd daemon serving their counters over real TCP, and a one-address
// collection Service sweeping the daemon into a time-series log — the
// paper's cron sweep, once per 900 s sample period, and the in-memory
// form of the files it wrote.
//
//	go run ./examples/monitoring
package main

import (
	"fmt"
	"log"

	"repro/internal/hpm"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/node"
	"repro/internal/rs2hpm"
)

func main() {
	// Four nodes running different codes: two production CFD, one tuned
	// BT-class code, one blocked matmul benchmark.
	specs := []string{"cfd", "cfd", "bt", "matmul"}
	nodes := make([]*node.Node, len(specs))
	streams := make([]isa.Stream, len(specs))
	daemon := rs2hpm.NewDaemon()
	for i, name := range specs {
		k, ok := kernels.ByName(name)
		if !ok {
			log.Fatalf("unknown kernel %q", name)
		}
		nodes[i] = node.New(node.Config{ID: i})
		streams[i] = k.New(uint64(i) + 1)
		daemon.AddSource(nodes[i])
	}

	addr, err := daemon.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer daemon.Close()
	fmt.Printf("rs2hpmd serving %d nodes on %s\n\n", len(nodes), addr)

	logbook := rs2hpm.NewSampleLog()
	svc, err := rs2hpm.NewService(rs2hpm.ServiceConfig{Addrs: []string{addr}}, logbook)
	if err != nil {
		log.Fatal(err)
	}

	// Two sweeps with simulated work in between — the cron cycle,
	// compressed: each 900 s sample period is a burst of simulated
	// instructions.
	if err := svc.SweepOnce(0); err != nil {
		log.Fatal(err)
	}
	elapsed := make([]float64, len(nodes))
	for i := range nodes {
		st := nodes[i].RunLimited(streams[i], 800_000)
		elapsed[i] = float64(st.Cycles) / 66.7e6
	}
	if err := svc.SweepOnce(900); err != nil {
		log.Fatal(err)
	}
	svc.Close() // drains the ingest queue into the log

	fmt.Printf("%4s %-8s %10s %10s %10s %12s\n", "node", "code", "Mflops", "Mips", "fma-frac", "flops/memref")
	for i, name := range specs {
		d, _, ok := logbook.DeltaOver(i, 0, 900)
		if !ok {
			log.Fatalf("node %d: no sample window", i)
		}
		// Rates over the node's simulated busy time.
		r := hpm.UserRates(d, elapsed[i])
		fmt.Printf("%4d %-8s %10.1f %10.1f %10.2f %12.2f\n",
			i, name, r.MflopsAll, r.Mips, r.FMAFraction(), r.FlopsPerMemRef())
	}
	fmt.Printf("\nthe collector spoke the daemon's line protocol over TCP %s;\n", addr)
	fmt.Printf("the daemon's 64-bit totals extend the 22 wrapping 32-bit SCU registers\n")
	fmt.Printf("(Maki's multipass sampling), so deltas over any window are exact.\n")
}

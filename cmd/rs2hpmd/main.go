// Command rs2hpmd is the RS2HPM data-collection daemon: it fronts a set of
// simulated SP2 nodes, keeps their POWER2 hardware counters advancing by
// running a workload kernel on each, and serves counter snapshots over TCP
// using the line protocol the rs2hpm client and collector speak.
//
// Usage:
//
//	rs2hpmd [-addr 127.0.0.1:7117] [-nodes 4] [-kernel cfd] [-chunk 200000]
//	        [-http 127.0.0.1:0]
//
// The daemon prints its bound address on startup (useful with :0) and runs
// until interrupted. With -http it also serves its own telemetry — the
// paper's self-measurement ethos applied to the daemon itself — at
// /metrics (Prometheus text) and /debug/hpmvars (JSON).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/node"
	"repro/internal/rs2hpm"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7117", "TCP listen address")
	nNodes := flag.Int("nodes", 4, "number of simulated nodes to front")
	kernel := flag.String("kernel", "cfd", "kernel each node runs (see internal/kernels)")
	chunk := flag.Uint64("chunk", 200_000, "instructions simulated per node per tick")
	tick := flag.Duration("tick", 250*time.Millisecond, "wall-clock interval between simulation bursts")
	flaky := flag.Float64("flaky", 0, "probability a counter read fails transiently (0 disables; exercises client retry paths)")
	flakySeed := flag.Uint64("flaky-seed", 1, "seed for the deterministic read-failure stream")
	httpAddr := flag.String("http", "", "serve telemetry over HTTP here (/metrics and /debug/hpmvars; empty disables)")
	protocol := flag.Int("protocol", rs2hpm.LatestProtocol,
		"wire protocol version to speak (1 = single-GET only, 2 = adds VERSION/MGET; lets a fleet stage mixed-version rollouts)")
	flag.Parse()

	k, ok := kernels.ByName(*kernel)
	if !ok {
		fmt.Fprintf(os.Stderr, "rs2hpmd: unknown kernel %q\n", *kernel)
		os.Exit(2)
	}
	if *protocol < rs2hpm.ProtocolV1 || *protocol > rs2hpm.LatestProtocol {
		fmt.Fprintf(os.Stderr, "rs2hpmd: -protocol must be between %d and %d\n",
			rs2hpm.ProtocolV1, rs2hpm.LatestProtocol)
		os.Exit(2)
	}
	if *nNodes < 0 {
		fmt.Fprintf(os.Stderr, "rs2hpmd: -nodes must be >= 0, got %d\n", *nNodes)
		os.Exit(2)
	}
	if *tick <= 0 {
		fmt.Fprintf(os.Stderr, "rs2hpmd: -tick must be positive, got %v\n", *tick)
		os.Exit(2)
	}

	nodes := make([]*node.Node, *nNodes)
	streams := make([]isa.Stream, *nNodes)
	daemon := rs2hpm.NewDaemonProtocol(*protocol)
	for i := range nodes {
		nodes[i] = node.New(node.Config{ID: i})
		streams[i] = k.New(uint64(i) + 1)
		if *flaky > 0 {
			daemon.AddSource(faults.NewUnreliableSource(nodes[i], *flakySeed, *flaky))
		} else {
			daemon.AddSource(nodes[i])
		}
	}

	bound, err := daemon.Start(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rs2hpmd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("rs2hpmd: serving %d nodes running %q on %s (protocol v%d)\n", *nNodes, k.Name, bound, *protocol)

	telemetry.Default.Gauge("rs2hpmd.nodes").Set(int64(*nNodes))
	telTicks := telemetry.Default.Counter("rs2hpmd.ticks")
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rs2hpmd: telemetry listen: %v\n", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: telemetry.Handler(telemetry.Default)}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("rs2hpmd: telemetry on http://%s/metrics and /debug/hpmvars\n", ln.Addr())
	}

	// Keep the counters moving: each tick simulates a burst on every node.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	ticker := time.NewTicker(*tick)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			telTicks.Inc()
			for i, nd := range nodes {
				nd.RunLimited(streams[i], *chunk)
			}
		case <-stop:
			fmt.Println("rs2hpmd: shutting down")
			daemon.Close()
			return
		}
	}
}

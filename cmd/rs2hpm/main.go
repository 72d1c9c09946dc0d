// Command rs2hpm is the counter-sampling client: it dials an rs2hpmd
// daemon, lists the nodes it serves, and prints either raw counter totals
// or — with -watch — the rates over a sampling interval, reduced exactly
// as the paper's tables reduce them. With -collect it instead runs the
// collection service: one connection kept per daemon, batched sweeps
// (MGET on v2 daemons, single-GET on v1) and a bounded ingestion queue,
// against one daemon or a whole fleet.
//
// Usage:
//
//	rs2hpm -addr 127.0.0.1:7117            # raw totals per node
//	rs2hpm -addr 127.0.0.1:7117 -watch 5s  # rates over a 5-second window
//	rs2hpm -addrs host1:7117,host2:7117 -collect 1m -every 2s
//	       [-queue-depth 256] [-queue-policy block]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/hpm"
	"repro/internal/rs2hpm"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7117", "daemon address")
	watch := flag.Duration("watch", 0, "sample twice this far apart and print rates")
	collect := flag.Duration("collect", 0, "run the sustained collection service this long (0 disables)")
	every := flag.Duration("every", time.Second, "sweep interval in collect mode")
	addrs := flag.String("addrs", "", "comma-separated daemon addresses for collect mode (default: -addr)")
	queueDepth := flag.Int("queue-depth", 256, "bounded ingestion queue depth in collect mode")
	queuePolicy := flag.String("queue-policy", "block", "full-queue policy in collect mode: block (lossless) or drop (gap-marked)")
	collectors := flag.Int("collectors", 0, "concurrent collector goroutines in collect mode (0 = one per daemon, capped at 4)")
	retries := flag.Int("retries", 2, "per-read retry budget in collect mode")
	flag.Parse()

	if *collect > 0 {
		if *every <= 0 {
			fmt.Fprintf(os.Stderr, "rs2hpm: -every must be positive, got %v\n", *every)
			os.Exit(2)
		}
		policy, ok := queuePolicies[*queuePolicy]
		if !ok {
			fmt.Fprintf(os.Stderr, "rs2hpm: -queue-policy must be block or drop, got %q\n", *queuePolicy)
			os.Exit(2)
		}
		if *queueDepth < 1 {
			fmt.Fprintf(os.Stderr, "rs2hpm: -queue-depth must be at least 1, got %d\n", *queueDepth)
			os.Exit(2)
		}
		if *collectors < 0 {
			fmt.Fprintf(os.Stderr, "rs2hpm: -collectors must not be negative, got %d\n", *collectors)
			os.Exit(2)
		}
		if *retries < 0 {
			fmt.Fprintf(os.Stderr, "rs2hpm: -retries must not be negative, got %d\n", *retries)
			os.Exit(2)
		}
		runCollect(collectSettings{
			addrs:      *addrs,
			fallback:   *addr,
			duration:   *collect,
			every:      *every,
			queueDepth: *queueDepth,
			policy:     policy,
			collectors: *collectors,
			retries:    *retries,
		})
		return
	}

	client, err := rs2hpm.Dial(*addr)
	if err != nil {
		fail(err)
	}
	defer client.Close()

	ids, err := client.Nodes()
	if err != nil {
		fail(err)
	}
	fmt.Printf("rs2hpm: daemon at %s serves %d nodes\n", *addr, len(ids))

	if *watch <= 0 {
		for _, id := range ids {
			c, err := client.Counters(id)
			if err != nil {
				fail(err)
			}
			printTotals(id, c)
		}
		return
	}

	before := map[int]hpm.Counts64{}
	for _, id := range ids {
		c, err := client.Counters(id)
		if err != nil {
			fail(err)
		}
		before[id] = c
	}
	time.Sleep(*watch)
	secs := watch.Seconds()
	for _, id := range ids {
		c, err := client.Counters(id)
		if err != nil {
			fail(err)
		}
		d := hpm.Sub64(before[id], c)
		r := hpm.UserRates(d, secs)
		fmt.Printf("node %3d: %7.2f Mflops  %7.2f Mips  fma-frac %.2f  fpu0/fpu1 %.2f  "+
			"cache %.3f M/s  tlb %.4f M/s  sys/user-fxu %.2f\n",
			id, r.MflopsAll, r.Mips, r.FMAFraction(), r.FPUAsymmetry(),
			r.DCacheMissM, r.TLBMissM, hpm.SystemUserFXURatio(d))
	}
}

// queuePolicies are -queue-policy's values.
var queuePolicies = map[string]rs2hpm.BackpressurePolicy{
	"block": rs2hpm.BlockOnFull,
	"drop":  rs2hpm.DropWithGap,
}

// collectSettings carries the -collect mode flags.
type collectSettings struct {
	addrs      string
	fallback   string
	duration   time.Duration
	every      time.Duration
	queueDepth int
	policy     rs2hpm.BackpressurePolicy
	collectors int
	retries    int
}

// runCollect is the sustained-collection entry point: the paper's cron
// sweep (once per sample period, the simulator's 900 s) run every -every
// instead, with kept connections and batched reads, then accounted for
// exactly.
func runCollect(s collectSettings) {
	if s.addrs == "" {
		s.addrs = s.fallback
	}
	var list []string
	for _, a := range strings.Split(s.addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			list = append(list, a)
		}
	}
	log := rs2hpm.NewSampleLog()
	svc, err := rs2hpm.NewService(rs2hpm.ServiceConfig{
		Addrs:      list,
		Collectors: s.collectors,
		Retries:    s.retries,
		Queue:      rs2hpm.IngestConfig{Depth: s.queueDepth, Policy: s.policy},
	}, log)
	if err != nil {
		fail(err)
	}
	fmt.Printf("rs2hpm: collecting from %d daemon(s) every %v for %v (queue=%d/%s)\n",
		len(list), s.every, s.duration, s.queueDepth, s.policy)

	start := time.Now()
	ticker := time.NewTicker(s.every)
	defer ticker.Stop()
	deadline := time.NewTimer(s.duration)
	defer deadline.Stop()
sweeps:
	for {
		if err := svc.SweepOnce(time.Since(start).Seconds()); err != nil {
			// Daemon-level failures are accounted, not fatal: the service
			// keeps sweeping the rest of the fleet.
			report(err)
		}
		select {
		case <-ticker.C:
		case <-deadline.C:
			break sweeps
		}
	}
	svc.Close()

	l := svc.Ledger()
	fmt.Printf("rs2hpm: %d sweeps, %d daemon-sweeps, %d sweep failures\n",
		l.Sweeps, l.DaemonSweeps, l.SweepFailures)
	fmt.Printf("rs2hpm: offered %d reads: captured %d, gapped %d, dropped %d, rejected %d (gap rate %.4f)\n",
		l.Offered, l.Captured, l.Gapped, l.Dropped, l.Rejected, l.GapRate())
	if err := l.CrossFoot(); err != nil {
		fail(err)
	}
	for _, id := range log.Nodes() {
		if d, secs, ok := log.DeltaOver(id, 0, time.Since(start).Seconds()); ok && secs > 0 {
			r := hpm.UserRates(d, secs)
			fmt.Printf("node %3d: %3d samples over %6.1fs  %7.2f Mflops  %7.2f Mips\n",
				id, log.Len(id), secs, r.MflopsAll, r.Mips)
		}
	}
}

func printTotals(id int, c hpm.Counts64) {
	fmt.Printf("node %d:\n", id)
	for ev := hpm.Event(0); ev < hpm.NumEvents; ev++ {
		info := hpm.Info(ev)
		fmt.Printf("  %-20s %-8s %14d %14d\n",
			info.Label, fmt.Sprintf("%s[%d]", info.Group, info.Index),
			c.Get(hpm.User, ev), c.Get(hpm.System, ev))
	}
}

// fail reports err and exits 1.
func fail(err error) {
	report(err)
	os.Exit(1)
}

// report prints err on stderr under the command's name, which the
// rs2hpm package's errors already carry.
func report(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "rs2hpm: ") {
		msg = "rs2hpm: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
}

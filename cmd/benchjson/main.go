// Command benchjson turns `go test -bench` output into a machine-readable
// JSON table. It reads the benchmark run from stdin, passes every line
// through to stdout unchanged (so the human-readable run is still visible),
// and writes the parsed table to the -o file:
//
//	go test -run '^$' -bench . -benchtime 1x . | benchjson -o BENCH_campaign.json
//
// Each benchmark entry records the name (procs suffix stripped), iteration
// count, ns/op, and every custom metric the benchmark reported via
// b.ReportMetric — the paper-anchored quantities the top-level bench
// harness emits next to each table and figure.
//
// With -diff old.json the freshly parsed run is also compared against an
// earlier report and a per-benchmark delta table is printed to stderr.
// The diff is informational: single-iteration timings are noisy, so it
// never changes the exit status. Pass an empty -o to diff without
// writing a new report (the committed baseline stays untouched).
//
// -gate gates.json turns selected comparisons into a pass/fail contract:
// per-benchmark ns/op tolerances against the -diff baseline (a generous
// multiple, because single-iteration timings jitter) and within-run
// ratio limits (e.g. the telemetry-overhead contract). Any violation —
// including a gated benchmark missing from the run, so a deleted bench
// cannot silently pass — exits 1, which is what lets `make ci` fail on a
// hot-path regression instead of merely recording it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the whole run.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkCampaignDay/workers=4-8  1  123456 ns/op  1.30 mean-Gflops
//
// Fields after the iteration count come in value/unit pairs; ns/op is
// pulled out, everything else lands in Metrics keyed by unit.
func parseLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	procs := 1
	if i := strings.LastIndex(name, "-"); i >= 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			procs = p
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Procs: procs, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

// parseHeader records the run environment lines go test prints before the
// first benchmark ("goos: linux" and friends).
func parseHeader(r *Report, line string) {
	for _, h := range []struct {
		prefix string
		dst    *string
	}{
		{"goos: ", &r.Goos},
		{"goarch: ", &r.Goarch},
		{"pkg: ", &r.Pkg},
		{"cpu: ", &r.CPU},
	} {
		if strings.HasPrefix(line, h.prefix) {
			*h.dst = strings.TrimPrefix(line, h.prefix)
		}
	}
}

// parseRun consumes a `go test -bench` stream, echoing every line to echo
// (nil to discard) and returning the parsed report.
func parseRun(in io.Reader, echo io.Writer) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		if b, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		} else {
			parseHeader(&rep, line)
		}
	}
	if err := sc.Err(); err != nil {
		return rep, fmt.Errorf("read input: %w", err)
	}
	return rep, nil
}

// diffLine is one row of the delta table.
type diffLine struct {
	name        string
	oldNs       float64
	newNs       float64
	inOld       bool
	inNew       bool
	metricNotes []string // shared custom metrics that moved, rendered "unit old->new"
}

// diffReports pairs benchmarks by name (repeated names pair in order, so
// the `#01` duplicates go test emits keep lining up) and returns rows for
// every benchmark seen in either report: the new run's benchmarks in run
// order, then baseline entries the new run no longer produces.
func diffReports(oldRep, newRep Report) []diffLine {
	oldByName := map[string][]Benchmark{}
	for _, b := range oldRep.Benchmarks {
		oldByName[b.Name] = append(oldByName[b.Name], b)
	}
	var rows []diffLine
	for _, nb := range newRep.Benchmarks {
		row := diffLine{name: nb.Name, newNs: nb.NsPerOp, inNew: true}
		if q := oldByName[nb.Name]; len(q) > 0 {
			ob := q[0]
			oldByName[nb.Name] = q[1:]
			row.inOld = true
			row.oldNs = ob.NsPerOp
			var units []string
			for unit := range nb.Metrics {
				if _, ok := ob.Metrics[unit]; ok {
					units = append(units, unit)
				}
			}
			sort.Strings(units)
			for _, unit := range units {
				if ov, nv := ob.Metrics[unit], nb.Metrics[unit]; ov != nv {
					row.metricNotes = append(row.metricNotes, fmt.Sprintf("%s %g->%g", unit, ov, nv))
				}
			}
		}
		rows = append(rows, row)
	}
	// Baseline benchmarks the new run didn't produce, in old-report order.
	for _, ob := range oldRep.Benchmarks {
		if q := oldByName[ob.Name]; len(q) > 0 {
			oldByName[ob.Name] = q[1:]
			rows = append(rows, diffLine{name: ob.Name, oldNs: ob.NsPerOp, inOld: true})
		}
	}
	return rows
}

// renderDiff formats the delta table. Timings are compared as a speedup
// factor (old/new, so >1 is faster) alongside the percent change.
func renderDiff(rows []diffLine) string {
	var sb strings.Builder
	width := len("benchmark")
	for _, r := range rows {
		if len(r.name) > width {
			width = len(r.name)
		}
	}
	fmt.Fprintf(&sb, "%-*s  %14s  %14s  %8s  %8s\n", width, "benchmark", "old ns/op", "new ns/op", "delta", "speedup")
	for _, r := range rows {
		switch {
		case r.inOld && r.inNew:
			delta, speedup := "n/a", "n/a"
			if r.oldNs > 0 && r.newNs > 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(r.newNs-r.oldNs)/r.oldNs)
				speedup = fmt.Sprintf("%.2fx", r.oldNs/r.newNs)
			}
			fmt.Fprintf(&sb, "%-*s  %14.0f  %14.0f  %8s  %8s\n", width, r.name, r.oldNs, r.newNs, delta, speedup)
			for _, m := range r.metricNotes {
				fmt.Fprintf(&sb, "%-*s    %s\n", width, "", m)
			}
		case r.inNew:
			fmt.Fprintf(&sb, "%-*s  %14s  %14.0f  %8s  %8s\n", width, r.name, "(new)", r.newNs, "", "")
		default:
			fmt.Fprintf(&sb, "%-*s  %14.0f  %14s  %8s  %8s\n", width, r.name, r.oldNs, "(gone)", "", "")
		}
	}
	return sb.String()
}

// Gates is the committed regression contract -gate enforces.
type Gates struct {
	// Tolerances bound each benchmark's ns/op against the -diff baseline:
	// new must stay under old * MaxRatio.
	Tolerances []Tolerance `json:"tolerances,omitempty"`
	// Ratios bound the quotient of two benchmarks within the same run —
	// baseline-free contracts like telemetry overhead.
	Ratios []RatioGate `json:"ratios,omitempty"`
}

// Tolerance is one per-benchmark timing bound.
type Tolerance struct {
	// Benchmark is the parsed name (procs suffix stripped), e.g.
	// "CampaignDay/workers=1".
	Benchmark string `json:"benchmark"`
	// MaxRatio is the allowed new/old ns_per_op multiple; must be > 0.
	MaxRatio float64 `json:"max_ratio"`
}

// RatioGate is one within-run quotient bound.
type RatioGate struct {
	Name        string `json:"name"`
	Numerator   string `json:"numerator"`
	Denominator string `json:"denominator"`
	// Max is the allowed numerator/denominator ns_per_op quotient.
	Max float64 `json:"max"`
}

// findBench returns the first benchmark with the given parsed name.
func findBench(rep Report, name string) (Benchmark, bool) {
	for _, b := range rep.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// applyGates evaluates the contract and returns one message per
// violation. A gated benchmark missing from either report is itself a
// violation: a gate that cannot measure must not pass.
func applyGates(g Gates, oldRep, newRep Report) []string {
	var viol []string
	for _, tol := range g.Tolerances {
		if tol.MaxRatio <= 0 {
			viol = append(viol, fmt.Sprintf("gate %s: max_ratio must be > 0, got %g", tol.Benchmark, tol.MaxRatio))
			continue
		}
		ob, okOld := findBench(oldRep, tol.Benchmark)
		nb, okNew := findBench(newRep, tol.Benchmark)
		switch {
		case !okOld:
			viol = append(viol, fmt.Sprintf("gate %s: benchmark missing from the baseline", tol.Benchmark))
		case !okNew:
			viol = append(viol, fmt.Sprintf("gate %s: benchmark missing from this run", tol.Benchmark))
		case ob.NsPerOp <= 0:
			viol = append(viol, fmt.Sprintf("gate %s: baseline ns/op is %g", tol.Benchmark, ob.NsPerOp))
		case nb.NsPerOp > ob.NsPerOp*tol.MaxRatio:
			viol = append(viol, fmt.Sprintf("gate %s: %.0f ns/op exceeds %.2fx the baseline %.0f (limit %.0f)",
				tol.Benchmark, nb.NsPerOp, tol.MaxRatio, ob.NsPerOp, ob.NsPerOp*tol.MaxRatio))
		}
	}
	for _, r := range g.Ratios {
		num, okN := findBench(newRep, r.Numerator)
		den, okD := findBench(newRep, r.Denominator)
		switch {
		case r.Max <= 0:
			viol = append(viol, fmt.Sprintf("gate %s: max must be > 0, got %g", r.Name, r.Max))
		case !okN:
			viol = append(viol, fmt.Sprintf("gate %s: benchmark %s missing from this run", r.Name, r.Numerator))
		case !okD:
			viol = append(viol, fmt.Sprintf("gate %s: benchmark %s missing from this run", r.Name, r.Denominator))
		case den.NsPerOp <= 0:
			viol = append(viol, fmt.Sprintf("gate %s: denominator ns/op is %g", r.Name, den.NsPerOp))
		case num.NsPerOp/den.NsPerOp > r.Max:
			viol = append(viol, fmt.Sprintf("gate %s: %s/%s = %.3f exceeds %.3f",
				r.Name, r.Numerator, r.Denominator, num.NsPerOp/den.NsPerOp, r.Max))
		}
	}
	return viol
}

func main() {
	out := flag.String("o", "BENCH_campaign.json", "write the parsed benchmark table here ('' to skip writing)")
	diff := flag.String("diff", "", "print per-benchmark deltas against this earlier report (informational only)")
	gate := flag.String("gate", "", "enforce this gates file (per-benchmark tolerance vs the -diff baseline, within-run ratios); violations exit 1")
	flag.Parse()
	var gates Gates
	if *gate != "" {
		buf, err := os.ReadFile(*gate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(buf, &gates); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *gate, err)
			os.Exit(1)
		}
		if len(gates.Tolerances) > 0 && *diff == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -gate tolerances need a baseline; pass -diff")
			os.Exit(1)
		}
	}

	rep, err := parseRun(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks -> %s\n", len(rep.Benchmarks), *out)
	}
	var oldRep Report
	if *diff != "" {
		buf, err := os.ReadFile(*diff)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(buf, &oldRep); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *diff, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: diff vs %s (timing deltas are informational, not pass/fail)\n", *diff)
		fmt.Fprint(os.Stderr, renderDiff(diffReports(oldRep, rep)))
	}
	if *gate != "" {
		if viol := applyGates(gates, oldRep, rep); len(viol) > 0 {
			for _, v := range viol {
				fmt.Fprintf(os.Stderr, "benchjson: %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: gate %s passed (%d tolerance(s), %d ratio(s))\n",
			*gate, len(gates.Tolerances), len(gates.Ratios))
	}
}

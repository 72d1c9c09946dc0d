package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
)

// simulatorPackages are the packages that model the SP2 and its campaign.
// They must be exactly reproducible from a seed: nine months of simulated
// sampling cannot be validated against the paper's tables if a run depends
// on wall-clock time or on math/rand's unspecified, version-dependent
// stream. Matched by package name so the testdata fixtures exercise the
// rule without living under internal/.
var simulatorPackages = map[string]bool{
	"power2":   true,
	"hpm":      true,
	"workload": true,
	"mpi":      true,
	"hps":      true,
	"vm":       true,
	"tlb":      true,
	"cache":    true,
	"profile":  true,
	// faults schedules every injected failure from seeded substreams; a
	// wall-clock or math/rand draw there would make outages unreproducible.
	"faults": true,
	// telemetry observes the simulator from inside the same process; its
	// one sanctioned wall-clock read (span.go's monotonic origin) carries a
	// suppression, and everything else must stay off the clock so that
	// enabling observation cannot perturb a seeded campaign.
	"telemetry": true,
	// spec resolves declarative workload scenarios into campaign inputs;
	// resolution must be a pure function of (spec, profiles) so a named
	// scenario means the same campaign on every machine and every run.
	"spec": true,
	// fleet shards a multi-cluster campaign across goroutines and merges
	// in canonical cluster order; a clock or unseeded draw there would
	// break the bit-identical-at-any-shard-count contract the same way it
	// would inside the engine itself.
	"fleet": true,
	// replay records and re-feeds campaign plans; a trace must replay to
	// the recorded run's exact Result, so nothing in the record/decode
	// path may depend on the clock or an unseeded stream.
	"replay": true,
}

// wallClockFuncs are the time-package functions that read or depend on the
// wall clock (or a runtime timer). Simulator code must use
// internal/simclock instead.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Sleep":     true,
}

// NondeterminismAnalyzer flags wall-clock time and global math/rand use in
// simulator packages.
func NondeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "nondeterminism",
		Doc:  "simulator packages must use internal/simclock and internal/rng, never wall time or math/rand",
		Run:  runNondeterminism,
	}
}

func runNondeterminism(p *Package) []Diagnostic {
	if !simulatorPackages[p.Name] {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				diags = append(diags, Diagnostic{
					Pos:  p.Fset.Position(imp.Pos()),
					Rule: "nondeterminism",
					Message: fmt.Sprintf("simulator package %s imports %s; its stream is unspecified across Go releases — use internal/rng (seeded xoshiro256**)",
						p.Name, path),
				})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.Info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			if wallClockFuncs[sel.Sel.Name] {
				diags = append(diags, Diagnostic{
					Pos:  p.Fset.Position(sel.Pos()),
					Rule: "nondeterminism",
					Message: fmt.Sprintf("simulator package %s calls time.%s; wall time makes campaign runs irreproducible — use internal/simclock",
						p.Name, sel.Sel.Name),
				})
			}
			return true
		})
	}
	return diags
}

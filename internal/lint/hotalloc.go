package lint

// hotalloc makes the zero-alloc contracts of PRs 3 and 5 compile-time
// properties. The POWER2 hot path, the campaign tick and the hpmtel
// counters are guarded at runtime by AllocsPerRun == 0 tests
// (power2's TestRunLimitedAllocFree, workload's TestSerialTickAllocFree,
// telemetry's TestHotPathAllocations); those fire after the regression
// runs. hotalloc walks the call graph from every //hpmlint:hotpath
// declaration and reports each statically-detectable heap operation on the
// way — escaping composite literals, make/new, growing append, interface
// boxing, string building, closures — plus two conservative boundaries:
// calls into allocation-happy stdlib packages (fmt and friends), and calls
// through function values or interface methods, which cannot be certified
// at all. A legitimate amortized allocation (a lazily grown pool) carries
// an //hpmlint:ignore hotalloc comment with its justification, so every
// exception to the zero-alloc claim is written down next to the code.

import (
	"fmt"
	"go/token"
)

// HotAllocAnalyzer returns the hotalloc interprocedural analyzer.
func HotAllocAnalyzer() *Analyzer {
	return &Analyzer{
		Name:       "hotalloc",
		Doc:        "//hpmlint:hotpath functions and everything they call must be statically free of heap allocation",
		RunProgram: runHotAlloc,
	}
}

func runHotAlloc(prog *Program) []Diagnostic {
	g := prog.CallGraph()
	var roots []*funcNode
	for _, n := range g.nodes {
		if n.hot {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	var diags []Diagnostic
	for _, r := range sortedReaches(g.reachable(roots)) {
		n := r.node
		report := func(pos token.Pos, what string) {
			msg := fmt.Sprintf("%s: %s", n.name(), what)
			if r.from != nil {
				msg = fmt.Sprintf("%s; on the //hpmlint:hotpath of %s (via %s)", msg, r.root.name(), r.via())
			} else {
				msg += "; declared //hpmlint:hotpath"
			}
			diags = append(diags, Diagnostic{
				Pos:     n.pkg.Fset.Position(pos),
				Rule:    "hotalloc",
				Message: msg,
			})
		}

		exempt := panicSpans(n)
		for _, site := range allocSites(n) {
			report(site.pos, site.what)
		}
		for _, e := range n.externs {
			if allocPkgs[e.path] && !inSpans(e.pos, exempt) {
				report(e.pos, fmt.Sprintf("calls %s.%s, which allocates", e.path, e.name))
			}
		}
		for _, pos := range n.dynamics {
			if !inSpans(pos, exempt) {
				report(pos, "calls through a function value or interface method, which cannot be proven allocation-free")
			}
		}
	}
	return dedupDiags(diags)
}

// Package lint implements hpmlint, a domain-aware static-analysis suite
// for this repository. The paper's results are counter-rate ratios
// collected over a nine-month campaign, so the reproduction lives or dies
// on two invariants the Go compiler cannot check: simulations must be
// deterministic (seeded RNG and simulated clock, never wall time) and
// counter arithmetic must be overflow-aware (the RS2HPM registers are
// 32-bit and wrap). hpmlint turns those invariants, plus the repo's
// locking and unit-discipline conventions, into machine-checked rules.
//
// The suite is stdlib-only (go/ast, go/parser, go/types) and offline-safe:
// module packages are type-checked from source with a chained importer, so
// no golang.org/x/tools dependency is needed.
//
// Findings can be suppressed with a comment on the offending line or on
// the line directly above it:
//
//	//hpmlint:ignore <rule> <reason>
//
// The reason is mandatory; a suppression without one is itself reported.
package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the familiar file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one hpmlint rule. Exactly one of Run and RunProgram is set:
// Run is a per-package AST walk; RunProgram sees the whole program (matched
// packages plus dependency closure) and is how the interprocedural
// analyzers follow call chains across package boundaries.
type Analyzer struct {
	// Name is the rule identifier used in reports and suppressions.
	Name string
	// Doc is a one-line description for -help output.
	Doc string
	// Run inspects one package and returns its findings.
	Run func(p *Package) []Diagnostic
	// RunProgram inspects the whole program and returns its findings.
	RunProgram func(prog *Program) []Diagnostic
}

// Analyzers returns the full hpmlint suite in report order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer(),
		CounterWidthAnalyzer(),
		GuardedStateAnalyzer(),
		FloatCompareAnalyzer(),
		UnitsMixingAnalyzer(),
		PureTaintAnalyzer(),
		LockOrderAnalyzer(),
		HotAllocAnalyzer(),
	}
}

// ignoreRe matches the suppression syntax. Rule may be a comma-separated
// list; everything after it is the mandatory reason.
var ignoreRe = regexp.MustCompile(`^//hpmlint:ignore\s+([A-Za-z0-9_,-]+)(?:\s+(.*))?$`)

// suppression is one parsed //hpmlint:ignore comment.
type suppression struct {
	file  string
	line  int // line the comment sits on
	rules map[string]bool
}

// collectSuppressions parses every //hpmlint:ignore comment in the
// package. Malformed suppressions (no rule, or no reason) are reported as
// badignore diagnostics so they cannot silently mask real findings.
func collectSuppressions(p *Package) (sups []suppression, diags []Diagnostic) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//hpmlint:ignore") {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					diags = append(diags, Diagnostic{
						Pos:     pos,
						Rule:    "badignore",
						Message: "malformed suppression: want //hpmlint:ignore <rule> <reason>",
					})
					continue
				}
				rules := make(map[string]bool)
				for _, r := range strings.Split(m[1], ",") {
					rules[r] = true
				}
				sups = append(sups, suppression{file: pos.Filename, line: pos.Line, rules: rules})
			}
		}
	}
	return sups, diags
}

// suppressed reports whether d is covered by a suppression on its own line
// or on the line directly above it.
func suppressed(d Diagnostic, sups []suppression) bool {
	for _, s := range sups {
		if s.file != d.Pos.Filename {
			continue
		}
		if (s.line == d.Pos.Line || s.line == d.Pos.Line-1) && (s.rules[d.Rule] || s.rules["all"]) {
			return true
		}
	}
	return false
}

// RunProgramAnalyzers applies the given analyzers to the program, filters
// suppressed findings, and returns the rest sorted by position.
//
// Per-package analyzers run on (and suppressions for badignore are
// reported from) the matched packages only. Interprocedural analyzers run
// once over the whole program, and their findings are kept wherever they
// land — a zero-alloc contract broken inside a dependency is still broken.
// Suppressions are honoured program-wide for the same reason.
func RunProgramAnalyzers(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	allSups := make(map[*Package][]suppression, len(prog.All))
	var sups []suppression
	for _, p := range prog.All {
		ps, bad := collectSuppressions(p)
		allSups[p] = ps
		sups = append(sups, ps...)
		if prog.Matched(p) {
			out = append(out, bad...)
		}
	}
	for _, p := range prog.Pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			for _, d := range a.Run(p) {
				if !suppressed(d, allSups[p]) {
					out = append(out, d)
				}
			}
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		for _, d := range a.RunProgram(prog) {
			if !suppressed(d, sups) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Column != out[j].Pos.Column {
			return out[i].Pos.Column < out[j].Pos.Column
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// Run loads the packages matched by patterns (relative to dir) and applies
// the full suite. It is the library form of the hpmlint command.
func Run(dir string, patterns ...string) ([]Diagnostic, error) {
	prog, err := LoadProgram(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return RunProgramAnalyzers(prog, Analyzers()), nil
}

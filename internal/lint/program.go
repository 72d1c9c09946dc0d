package lint

// Whole-program analysis support. The original five analyzers are
// per-package AST walks; the v2 analyzers (puretaint, lockorder, hotalloc)
// prove properties of *call chains* — a generator is only deterministic if
// everything it transitively calls is — so they need every module-local
// package the matched packages depend on, loaded and type-checked, in one
// place. Program is that place: the matched packages plus their dependency
// closure, sharing one FileSet, with the call graph built lazily and cached
// so the three interprocedural analyzers pay for it once.

import (
	"go/ast"
	"sort"
	"strings"
)

// Program is a set of matched packages plus the module-local dependency
// closure they were type-checked against.
type Program struct {
	// Pkgs are the packages matched by the load patterns — the ones
	// analyzers report findings for.
	Pkgs []*Package
	// All is Pkgs plus every module-local package imported (transitively)
	// by them, in deterministic import-path order. Interprocedural
	// analyzers traverse All so a hot path annotated in one package is
	// followed into the packages it calls.
	All []*Package

	matched map[*Package]bool
	cg      *callGraph
}

// Matched reports whether p was named by the load patterns (as opposed to
// being pulled in as a dependency).
func (prog *Program) Matched(p *Package) bool { return prog.matched[p] }

// LoadProgram resolves patterns relative to dir and returns the matched
// packages, parsed and type-checked, as Pkgs, with All additionally
// carrying every module-local package the loader type-checked on the way.
// Supported patterns are Go-style: a directory path ("./internal/hpm"),
// or a "..." wildcard ("./...", "./internal/lint/testdata/src/...") that
// walks subdirectories. As with the go tool, wildcard walks skip testdata
// and hidden directories — but a pattern rooted *inside* a testdata tree
// matches normally, which is how the violation fixtures are linted on
// purpose.
func LoadProgram(dir string, patterns ...string) (*Program, error) {
	pkgs, l, err := load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	prog := &Program{Pkgs: pkgs, matched: make(map[*Package]bool, len(pkgs))}
	for _, p := range pkgs {
		prog.matched[p] = true
	}
	var paths []string
	for path := range l.cache {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		prog.All = append(prog.All, l.cache[path])
	}
	return prog, nil
}

// Function annotations. A directive comment in the doc group of a function
// declaration opts it into an interprocedural contract:
//
//	//hpmlint:pure     — the function and everything it transitively calls
//	                     must be free of nondeterminism (puretaint)
//	//hpmlint:hotpath  — the function and everything it transitively calls
//	                     must be free of heap allocation (hotalloc)
//
// Anything after the directive word is a free-form note.
const (
	pureDirective    = "//hpmlint:pure"
	hotpathDirective = "//hpmlint:hotpath"
)

// hasDirective reports whether the declaration's doc comment group carries
// the given hpmlint directive. Directives are matched on the raw comment
// list because go/ast strips them from CommentGroup.Text.
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

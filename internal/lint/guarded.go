package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// GuardedStateAnalyzer enforces the repository's locking convention: a
// struct field whose comment says "guarded by <mu>" may only be read or
// written in a function that locks <mu> on the same receiver/base
// expression, or in a function whose name ends in "Locked" (the convention
// for helpers whose callers hold the lock).
//
// The collector daemons serve TCP snapshots concurrently with the
// simulation goroutine; an unguarded read of a shared counter is exactly
// the class of bug that turns a nine-month campaign into garbage without
// ever crashing.
func GuardedStateAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "guarded",
		Doc:  `fields documented "guarded by <mu>" must only be touched under that mutex`,
		Run:  runGuarded,
	}
}

var guardedByRe = regexp.MustCompile(`(?i)guarded\s+by\s+(\w+)`)

// guardedField records one annotated field.
type guardedField struct {
	structName string
	fieldName  string
	guard      string // sibling mutex field name
}

// isMutexType reports whether t is sync.Mutex, sync.RWMutex, or a pointer
// to one.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// fieldComment joins a field's doc and trailing comment text.
func fieldComment(f *ast.Field) string {
	var s string
	if f.Doc != nil {
		s += f.Doc.Text()
	}
	if f.Comment != nil {
		s += " " + f.Comment.Text()
	}
	return s
}

// collectGuarded finds every "guarded by" annotation in the package,
// returning a map from the field's types.Object to its annotation, plus
// diagnostics for annotations that name a missing or non-mutex guard.
func collectGuarded(p *Package) (map[types.Object]guardedField, []Diagnostic) {
	guarded := make(map[types.Object]guardedField)
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			// First pass: the struct's mutex fields.
			mutexes := make(map[string]bool)
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if obj := p.Info.Defs[name]; obj != nil && isMutexType(obj.Type()) {
						mutexes[name.Name] = true
					}
				}
			}
			// Second pass: annotated fields.
			for _, fld := range st.Fields.List {
				m := guardedByRe.FindStringSubmatch(fieldComment(fld))
				if m == nil {
					continue
				}
				guard := m[1]
				if !mutexes[guard] {
					diags = append(diags, Diagnostic{
						Pos:  p.Fset.Position(fld.Pos()),
						Rule: "guarded",
						Message: fmt.Sprintf("%s: \"guarded by %s\" names no sync.Mutex/RWMutex field of %s",
							fieldNames(fld), guard, ts.Name.Name),
					})
					continue
				}
				for _, name := range fld.Names {
					if obj := p.Info.Defs[name]; obj != nil {
						guarded[obj] = guardedField{
							structName: ts.Name.Name,
							fieldName:  name.Name,
							guard:      guard,
						}
					}
				}
			}
			return true
		})
	}
	return guarded, diags
}

func fieldNames(f *ast.Field) string {
	var names []string
	for _, n := range f.Names {
		names = append(names, n.Name)
	}
	return strings.Join(names, ", ")
}

func runGuarded(p *Package) []Diagnostic {
	guarded, diags := collectGuarded(p)
	if len(guarded) == 0 {
		return diags
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				diags = append(diags, checkScope(p, guarded, fd.Body, fd.Name.Name)...)
			}
		}
	}
	return diags
}

// checkScope inspects one function body. A nested FuncLit is its own
// scope: it may run on another goroutine, so locks taken by the enclosing
// function do not count for it.
func checkScope(p *Package, guarded map[types.Object]guardedField, body *ast.BlockStmt, name string) []Diagnostic {
	var diags []Diagnostic

	// Pass 1: which (base, mutex) pairs does this scope lock?
	locked := make(map[string]bool) // "base.mu" for base.mu.Lock()/RLock()
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if recv, ok := sel.X.(*ast.SelectorExpr); ok {
			locked[types.ExprString(recv.X)+"."+recv.Sel.Name] = true
		} else if id, ok := sel.X.(*ast.Ident); ok {
			// A bare mutex variable (or an embedded mutex in a method
			// whose receiver is implicit) — record under its own name.
			locked[id.Name] = true
		}
		return true
	})

	callerHolds := strings.HasSuffix(name, "Locked")

	// Pass 2: guarded field accesses.
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			diags = append(diags, checkScope(p, guarded, fl.Body, name+" (func literal)")...)
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := p.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		g, ok := guarded[s.Obj()]
		if !ok {
			return true
		}
		if callerHolds {
			return true
		}
		base := types.ExprString(sel.X)
		if locked[base+"."+g.guard] {
			return true
		}
		diags = append(diags, Diagnostic{
			Pos:  p.Fset.Position(sel.Pos()),
			Rule: "guarded",
			Message: fmt.Sprintf("%s.%s is guarded by %s.%s, but %s neither locks it nor is named *Locked",
				base, g.fieldName, base, g.guard, name),
		})
		return true
	})
	return diags
}

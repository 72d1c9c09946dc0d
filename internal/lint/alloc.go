package lint

// A conservative, syntax-plus-types classifier for heap allocation. It
// does not re-implement the compiler's escape analysis; it identifies the
// operations that *may* allocate and errs toward reporting, because the
// contract it backs (hotalloc) is "the AllocsPerRun == 0 tests' guard
// can never regress" — a false positive costs one reviewed
// suppression, a false negative costs a silent hot-path regression.
//
// One deliberate exemption: allocations inside the arguments of a panic
// call are skipped. A panic on a simulator hot path is a cannot-happen
// assertion; the fmt.Sprintf feeding it never runs in a valid campaign,
// and flagging it would train people to write worse assertions.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// allocSite is one potentially-allocating operation.
type allocSite struct {
	pos  token.Pos
	what string
}

// allocPkgs are standard-library packages whose exported call surface
// allocates freely (formatting, string building, reflection). A hot path
// reaching any of them has left zero-alloc territory.
var allocPkgs = map[string]bool{
	"fmt": true, "errors": true, "log": true,
	"strings": true, "bytes": true, "strconv": true,
	"sort": true, "regexp": true, "reflect": true,
	"os": true, "io": true, "bufio": true, "net": true,
	"encoding/json": true, "encoding/binary": true,
}

// pointerShaped reports whether boxing a value of type t into an
// interface stores only a word and therefore does not allocate.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}

// panicSpans returns the argument spans of the panic calls in one body.
// Allocations and allocating calls inside them are exempt: a panic on a
// simulator hot path is a cannot-happen assertion, and the formatting that
// feeds it never runs in a valid campaign.
func panicSpans(n *funcNode) [][2]token.Pos {
	var spans [][2]token.Pos
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := n.pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				spans = append(spans, [2]token.Pos{call.Lparen, call.Rparen})
			}
		}
		return true
	})
	return spans
}

// inSpans reports whether pos falls inside any of the spans.
func inSpans(pos token.Pos, spans [][2]token.Pos) bool {
	for _, span := range spans {
		if span[0] <= pos && pos <= span[1] {
			return true
		}
	}
	return false
}

// allocSites scans one function body (literals included) for operations
// that may hit the heap.
func allocSites(n *funcNode) []allocSite {
	p := n.pkg
	var sites []allocSite
	add := func(pos token.Pos, format string, args ...any) {
		sites = append(sites, allocSite{pos: pos, what: fmt.Sprintf(format, args...)})
	}

	// Pre-pass: the argument spans of panic calls are exempt.
	exempt := panicSpans(n)
	exempted := func(pos token.Pos) bool { return inSpans(pos, exempt) }

	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.CallExpr:
			if exempted(e.Lparen) {
				return true
			}
			classifyCall(p, e, add)
		case *ast.UnaryExpr:
			if e.Op == token.AND && !exempted(e.OpPos) {
				if _, ok := unparen(e.X).(*ast.CompositeLit); ok {
					add(e.OpPos, "address of composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if exempted(e.Lbrace) {
				return true
			}
			if t, ok := p.Info.Types[e]; ok {
				switch t.Type.Underlying().(type) {
				case *types.Map:
					add(e.Lbrace, "map literal allocates")
				case *types.Slice:
					add(e.Lbrace, "slice literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && !exempted(e.OpPos) {
				if t, ok := p.Info.Types[e]; ok {
					if b, ok := t.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						add(e.OpPos, "string concatenation allocates")
					}
				}
			}
		case *ast.FuncLit:
			if !exempted(e.Pos()) {
				add(e.Pos(), "function literal (closure) allocates")
			}
			return true // still walk the body for its own sites
		case *ast.GoStmt:
			add(e.Go, "go statement allocates a goroutine")
		}
		return true
	})
	return sites
}

// classifyCall reports the allocating behaviours of one call expression:
// allocating builtins, allocating conversions, and interface boxing of
// arguments against the callee's signature.
func classifyCall(p *Package, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	fun := unparen(call.Fun)

	// Conversions: T(x).
	if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
		dst := tv.Type
		if len(call.Args) != 1 {
			return
		}
		src := p.Info.Types[call.Args[0]].Type
		if src == nil {
			return
		}
		switch {
		case types.IsInterface(dst) && !types.IsInterface(src) && !pointerShaped(src):
			add(call.Lparen, "conversion to interface %s boxes its operand on the heap", types.TypeString(dst, types.RelativeTo(p.Types)))
		case isStringByteConversion(dst, src):
			add(call.Lparen, "string/byte-slice conversion copies and allocates")
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Lparen, "make allocates")
			case "new":
				add(call.Lparen, "new allocates")
			case "append":
				add(call.Lparen, "append may grow its backing array")
			}
			return
		}
	}

	// Interface boxing of arguments. The signature covers methods, funcs
	// and function values alike.
	sigT, ok := p.Info.Types[call.Fun]
	if !ok || sigT.Type == nil {
		return
	}
	sig, ok := sigT.Type.Underlying().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return // f(xs...) passes the slice through unboxed
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		at := p.Info.Types[arg].Type
		if at == nil {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if types.IsInterface(pt) && !types.IsInterface(at) && !pointerShaped(at) {
			add(arg.Pos(), "argument boxes into interface parameter (%s)", types.TypeString(pt, types.RelativeTo(p.Types)))
		}
	}
}

// isStringByteConversion reports a string <-> []byte/[]rune conversion.
func isStringByteConversion(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStr(src))
}

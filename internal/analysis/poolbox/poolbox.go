// Package poolbox flags sync.Pool.Put calls whose argument is
// allocated at the call site — the exact bug class PR 8's two-pool
// slicePool fixed. A pool stores interface values, so
//
//	pool.Put(&buf)      // &local: a fresh box escapes on every Put
//	pool.Put(&T{...})   // fresh composite: allocates, defeats the pool
//	pool.Put(make(...)) // ditto
//
// each heap-allocate a new pointer "box" per round trip, which is
// precisely the allocation the pool was supposed to amortize. The
// sanctioned pattern parks the box itself in a second pool (or keeps
// the pointer across get/put) so steady-state Put is allocation-free —
// see slicePool in internal/mapreduce/sort.go.
package poolbox

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags sync.Pool.Put arguments that allocate at the call
// site.
var Analyzer = &analysis.Analyzer{
	Name: "poolbox",
	Doc:  "sync.Pool.Put must recycle its box: no address-of-local or fresh allocation at the Put site",
	Run:  run,
}

const hint = "; recycle the pointer box instead (two-pool pattern, internal/mapreduce/sort.go)"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Put" {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
				return true
			}
			checkArg(pass, ast.Unparen(call.Args[0]))
			return true
		})
	}
	return nil
}

func checkArg(pass *analysis.Pass, arg ast.Expr) {
	switch arg := arg.(type) {
	case *ast.UnaryExpr:
		if arg.Op.String() != "&" {
			return
		}
		switch inner := ast.Unparen(arg.X).(type) {
		case *ast.CompositeLit:
			pass.Reportf(arg.Pos(), "sync.Pool.Put(&T{...}) allocates a fresh value and box on every Put"+hint)
		case *ast.Ident:
			v, ok := pass.TypesInfo.Uses[inner].(*types.Var)
			if ok && !v.IsField() && v.Parent() != nil && v.Parent() != pass.Pkg.Scope() {
				pass.Reportf(arg.Pos(), "sync.Pool.Put(&%s) of a local heap-allocates a pointer box on every Put"+hint, inner.Name)
			}
		}
	case *ast.CompositeLit:
		pass.Reportf(arg.Pos(), "sync.Pool.Put(T{...}) boxes a fresh composite into the pool's interface on every Put"+hint)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(arg.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && (b.Name() == "new" || b.Name() == "make") {
				pass.Reportf(arg.Pos(), "sync.Pool.Put(%s(...)) allocates its argument at the call site on every Put"+hint, b.Name())
			}
		}
	}
}

// Package ctxflow forbids minting fresh contexts below the entry
// points: engine and dist internals must thread the caller's
// context.Context so cancellation, deadlines, and fault injection
// reach every task attempt. A context.Background() (or TODO()) in
// library code silently detaches everything downstream of it from the
// run's cancellation tree — the distributed runtime then cannot stop
// straggler attempts, and ermatch's SIGINT handling stops working for
// that subtree.
//
// Entry points are exempt structurally (package main is skipped) or
// explicitly: lifecycle roots such as server shutdown timeouts carry an
// //erlint:ignore ctxflow with the reason.
package ctxflow

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer flags context.Background/context.TODO calls in non-main,
// non-test library code.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "no context.Background()/TODO() below entry points: thread the caller's context",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
				return true
			}
			pass.Reportf(call.Pos(),
				"context.%s() detaches this call tree from the run's cancellation; thread the incoming context.Context instead",
				sel.Sel.Name)
			return true
		})
	}
	return nil
}

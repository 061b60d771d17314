// Source rules that neither the compiler nor a runtime test holds,
// checked on the parsed syntax of every non-test, non-main Go file of
// the module (testdata and dot-directories skipped). No type-checking:
// the rules are syntactic, and the walk costs a few tens of
// milliseconds.
package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// contextRoots are the only call sites below package main that mint a
// context with context.Background() or context.TODO(), keyed "file
// enclosingFunc". Any other root detaches its call tree from the run's
// cancellation: the distributed runtime could not stop straggler
// attempts, and ermatch's SIGINT would not reach that subtree. Thread
// the caller's context.Context instead.
var contextRoots = []string{
	// The per-worker lease root: it must outlive any single dispatch
	// request, and is cancelled on worker death.
	"internal/dist/master.go (*Master).handleRegister",
	// A best-effort release broadcast during job teardown: it runs
	// after the job context is done.
	"internal/dist/master.go (*Session).release",
	// The worker lifecycle root: this context is the serve loop's
	// lifetime, cancelled by Close.
	"internal/dist/worker.go StartWorker",
	// The graceful-shutdown timeout deliberately outlives the
	// cancelled worker lifecycle context.
	"internal/dist/worker.go (*Worker).shutdown",
}

// minRulePackages is the number of non-main packages in the module. A
// walk that parses fewer has lost part of the tree and would pass
// vacuously.
const minRulePackages = 16

// TestSourceRules holds two rules:
//
//   - context roots: the context.Background()/TODO() call sites equal
//     contextRoots, wherever they stand — in a function body or in a
//     package-level func literal;
//   - pool boxes: no .Put(x) whose argument allocates at the call site
//     (&…, a composite literal, new(…) or make(…)). A pool stores
//     interface values, so such a Put heap-allocates a fresh box on
//     every round trip — the allocation the pool was meant to save.
//     slicePool (internal/mapreduce/sort.go) parks the box in a second
//     pool instead. The allocation pins do not catch this: with
//     slicePool.put boxing, the typed engine stays under its ceiling.
func TestSourceRules(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := map[string]bool{}
	roots := map[string]bool{}
	puts := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		path = filepath.ToSlash(path)
		pkgs[filepath.Dir(path)] = true
		ctxName := contextName(f)
		for _, decl := range f.Decls {
			fn := "(package level)"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
				if fd.Recv != nil {
					fn = "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fn
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch x, _ := sel.X.(*ast.Ident); {
				case x != nil && ctxName != "" && x.Name == ctxName && (sel.Sel.Name == "Background" || sel.Sel.Name == "TODO"):
					root := path + " " + fn
					roots[root] = true
					if !slices.Contains(contextRoots, root) {
						t.Errorf("%s: context.%s() in %s detaches its call tree from the run's cancellation; thread the caller's context",
							fset.Position(call.Pos()), sel.Sel.Name, fn)
					}
				case sel.Sel.Name == "Put" && len(call.Args) == 1:
					puts++
					if allocates(call.Args[0]) {
						t.Errorf("%s: %s(%s) boxes a fresh value on every Put; recycle the pointer box (two-pool pattern, internal/mapreduce/sort.go)",
							fset.Position(call.Pos()), types.ExprString(call.Fun), types.ExprString(call.Args[0]))
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < minRulePackages || puts == 0 || len(roots) == 0 {
		t.Fatalf("the walk saw %d non-main packages (want ≥ %d), %d .Put( call sites and %d context roots: it lost part of the tree",
			len(pkgs), minRulePackages, puts, len(roots))
	}
	for _, root := range contextRoots {
		if !roots[root] {
			t.Errorf("%s mints no context any more; drop it from contextRoots", root)
		}
	}
}

// contextName is the name f refers to package context by, or "" when f
// does not import it by name.
func contextName(f *ast.File) string {
	for _, imp := range f.Imports {
		if imp.Path.Value != `"context"` {
			continue
		}
		if imp.Name == nil {
			return "context"
		}
		if imp.Name.Name != "_" && imp.Name.Name != "." {
			return imp.Name.Name
		}
	}
	return ""
}

// allocates reports whether the expression allocates where it stands:
// an address-of, a composite literal, or a new or make call.
func allocates(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		return e.Op == token.AND
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		return ok && (id.Name == "new" || id.Name == "make")
	}
	return false
}

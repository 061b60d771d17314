// Package codecreg ties the typed engine's run files to the runio
// codec registry at build time. A run whose intermediate records leave
// memory (Engine.SpillBudget > 0, Engine.Remote) serializes every key
// and value through a codec looked up by reflect.Type at job start; a
// missing registration is only discovered when a job first runs that
// way — often in a long out-of-core benchmark. The repo's convention is that each
// package registers codecs for its own key/value types in init (see
// internal/core/codec.go), so the check is package-local: any concrete
// type this package owns that appears as the K or V argument of a
// mapreduce.Job instantiation must have a runio.Register call for it
// inside one of this package's init functions.
//
// Types owned by other packages are that package's responsibility
// (they register in their own init), and basic types ride on runio's
// built-in codecs, so both are skipped.
package codecreg

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer checks that package-owned Job key/value types are
// runio-registered in this package's init.
var Analyzer = &analysis.Analyzer{
	Name: "codecreg",
	Doc:  "package-owned Job key/value types must have a runio codec registered in the package's init",
	Run:  run,
}

type jobUse struct {
	pos  token.Pos
	role string // "key" or "value"
	typ  types.Type
}

func run(pass *analysis.Pass) error {
	var registered []types.Type
	var uses []jobUse

	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		inits := initRanges(f)
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			inst, ok := pass.TypesInfo.Instances[id]
			if !ok || inst.TypeArgs == nil {
				return true
			}
			switch obj := pass.TypesInfo.Uses[id].(type) {
			case *types.Func:
				if obj.Name() == "Register" && obj.Pkg() != nil && obj.Pkg().Name() == "runio" &&
					inst.TypeArgs.Len() == 1 && within(inits, id.Pos()) {
					registered = append(registered, inst.TypeArgs.At(0))
				}
			case *types.TypeName:
				if obj.Name() == "Job" && obj.Pkg() != nil && obj.Pkg().Name() == "mapreduce" &&
					inst.TypeArgs.Len() == 4 {
					uses = append(uses,
						jobUse{id.Pos(), "key", inst.TypeArgs.At(1)},
						jobUse{id.Pos(), "value", inst.TypeArgs.At(2)})
				}
			}
			return true
		})
	}

	reported := make(map[string]bool)
	for _, u := range uses {
		named, ok := u.typ.(*types.Named)
		if !ok || hasTypeParam(u.typ) {
			continue // basic/composite types use built-ins; generic uses are checked at their concrete instantiation
		}
		if named.Obj().Pkg() != pass.Pkg {
			continue // the owning package registers it in its own init
		}
		if isRegistered(registered, u.typ) || reported[named.Obj().Name()] {
			continue
		}
		reported[named.Obj().Name()] = true
		pass.Reportf(u.pos,
			"Job %s type %s has no runio codec: add runio.Register[%s](...) to an init in this package (a run that spills or is distributed resolves codecs by type at job start)",
			u.role, named.Obj().Name(), named.Obj().Name())
	}
	return nil
}

// initRanges collects the source extents of the file's init functions.
func initRanges(f *ast.File) [][2]token.Pos {
	var rs [][2]token.Pos
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if ok && fd.Recv == nil && fd.Name.Name == "init" && fd.Body != nil {
			rs = append(rs, [2]token.Pos{fd.Body.Pos(), fd.Body.End()})
		}
	}
	return rs
}

func within(rs [][2]token.Pos, pos token.Pos) bool {
	for _, r := range rs {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

func isRegistered(registered []types.Type, t types.Type) bool {
	for _, r := range registered {
		if types.Identical(r, t) {
			return true
		}
	}
	return false
}

// hasTypeParam reports whether t mentions an unresolved type
// parameter (the instantiation site is itself generic).
func hasTypeParam(t types.Type) bool {
	switch t := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Named:
		if args := t.TypeArgs(); args != nil {
			for i := 0; i < args.Len(); i++ {
				if hasTypeParam(args.At(i)) {
					return true
				}
			}
		}
	case *types.Pointer:
		return hasTypeParam(t.Elem())
	case *types.Slice:
		return hasTypeParam(t.Elem())
	case *types.Array:
		return hasTypeParam(t.Elem())
	case *types.Map:
		return hasTypeParam(t.Key()) || hasTypeParam(t.Elem())
	case *types.Chan:
		return hasTypeParam(t.Elem())
	}
	return false
}

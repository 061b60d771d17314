// Package arenaretain enforces the arena copy-what-you-retain rule of
// the external dataflow: strings handed out by the run read path alias
// an immutable ~32 KB block, so retaining one pins the whole block.
// Retaining one — storing it into a struct field reachable beyond the
// frame, a map, a package-level variable, or sending it on a channel —
// must go through strings.Clone (or concatenation, which also copies).
//
// The analyzer runs a per-function taint pass. Taint sources are the
// values the arena hands out:
//
//   - results of (*runio.SegmentReader).Next
//   - results of runio.String (an aliasing view by definition)
//   - results of calling a func-typed variable or field with the
//     decoder shape func(string) (T, int, error) — how the external
//     dataflow threads decoders (recDecoder.kdec/vdec)
//   - the src parameter of the closures a codec's NewDecoder returns,
//     which receive block bytes by contract
//
// Taint follows assignments, slicing, field reads, and append;
// strings.Clone, string<->[]byte conversion, and concatenation clear
// it (each copies). Building up a function-local, non-pointer struct
// from tainted strings is allowed — that is exactly how decoders
// return records — because the aliasing value stays in the frame
// until the caller decides what to retain.
package arenaretain

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags arena-backed strings that escape the frame without a
// copy.
var Analyzer = &analysis.Analyzer{
	Name: "arenaretain",
	Doc:  "arena-backed strings must be strings.Clone'd before being retained (copy-what-you-retain)",
	Run:  run,
}

const hint = "; the bytes alias an immutable read block — strings.Clone what you retain"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				analyzeFunc(pass, fd)
			}
		}
	}
	return nil
}

type taintState struct {
	pass      *analysis.Pass
	tainted   map[types.Object]bool
	changed   bool
	reporting bool
}

func analyzeFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	s := &taintState{pass: pass, tainted: make(map[types.Object]bool)}
	s.seedParams(fd)
	for range 32 { // fixpoint: taint flows through assignment chains and loops
		s.changed = false
		s.walk(fd.Body)
		if !s.changed {
			break
		}
	}
	s.reporting = true
	s.walk(fd.Body)
}

// seedParams taints the src argument of the decoder closures a codec's
// NewDecoder builds, which receive arena-backed bytes by contract.
func (s *taintState) seedParams(fd *ast.FuncDecl) {
	if fd.Recv == nil || fd.Name.Name != "NewDecoder" {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			if tv, ok := s.pass.TypesInfo.Types[fl]; ok && isDecodeSig(tv.Type) && len(fl.Type.Params.List) > 0 {
				for _, name := range fl.Type.Params.List[0].Names {
					if obj := s.pass.TypesInfo.Defs[name]; obj != nil {
						s.taint(obj)
					}
				}
			}
		}
		return true
	})
}

func (s *taintState) taint(obj types.Object) {
	if !s.tainted[obj] {
		s.tainted[obj] = true
		s.changed = true
	}
}

func (s *taintState) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			s.assign(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			var lhs []ast.Expr
			for _, name := range n.Names {
				lhs = append(lhs, name)
			}
			s.assign(lhs, n.Values)
		case *ast.IncDecStmt:
			s.mapKeySink(n.X) // m[k]++ stores k like m[k] = v does
		case *ast.RangeStmt:
			if s.exprTainted(n.X) {
				s.taintTarget(n.Key)
				s.taintTarget(n.Value)
			}
		case *ast.SendStmt:
			if s.reporting && s.exprTainted(n.Value) {
				s.pass.Reportf(n.Arrow, "arena-backed string sent on a channel outlives the read frame"+hint)
			}
		}
		return true
	})
}

func (s *taintState) assign(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		// tuple: only the first result of a decoder-shaped call (or an
		// element of a tainted container) carries arena bytes.
		if s.exprTainted(rhs[0]) {
			s.taintTarget(lhs[0])
			s.sink(lhs[0])
		}
		for _, l := range lhs {
			s.mapKeySink(l)
		}
		return
	}
	for i, l := range lhs {
		if i < len(rhs) && s.exprTainted(rhs[i]) {
			s.taintTarget(l)
			s.sink(l)
		}
		s.mapKeySink(l)
	}
}

// taintTarget marks an assignment destination tainted when it is a
// plain local variable.
func (s *taintState) taintTarget(e ast.Expr) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	if obj := s.objOf(id); obj != nil && isLocalVar(obj, s.pass) {
		s.taint(obj)
	}
}

// sink reports destinations that retain the value beyond the frame.
func (s *taintState) sink(e ast.Expr) {
	if !s.reporting {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := s.objOf(e).(*types.Var); ok && !v.IsField() && v.Parent() == s.pass.Pkg.Scope() {
			s.pass.Reportf(e.Pos(), "arena-backed string stored in package-level variable %s"+hint, e.Name)
		}
	case *ast.SelectorExpr:
		if !localValueFieldChain(s.pass, e) {
			s.pass.Reportf(e.Pos(), "arena-backed string stored in field %s escapes the read frame"+hint, e.Sel.Name)
		}
	case *ast.IndexExpr:
		if isMap(s.pass, e.X) {
			s.pass.Reportf(e.Pos(), "arena-backed string stored as a map value is retained by the map"+hint)
		}
	case *ast.StarExpr:
		s.pass.Reportf(e.Pos(), "arena-backed string stored through a pointer escapes the read frame"+hint)
	}
}

// mapKeySink reports tainted map keys on store: the map retains its
// keys regardless of what is assigned.
func (s *taintState) mapKeySink(e ast.Expr) {
	if !s.reporting {
		return
	}
	ie, ok := ast.Unparen(e).(*ast.IndexExpr)
	if ok && isMap(s.pass, ie.X) && s.exprTainted(ie.Index) {
		s.pass.Reportf(ie.Index.Pos(), "arena-backed string used as a map key is retained by the map"+hint)
	}
}

func (s *taintState) exprTainted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := s.objOf(e)
		return obj != nil && s.tainted[obj]
	case *ast.ParenExpr:
		return s.exprTainted(e.X)
	case *ast.SliceExpr:
		return s.exprTainted(e.X)
	case *ast.IndexExpr:
		return s.exprTainted(e.X)
	case *ast.SelectorExpr:
		return s.exprTainted(e.X) // field read of a tainted record
	case *ast.StarExpr:
		return s.exprTainted(e.X)
	case *ast.UnaryExpr:
		return s.exprTainted(e.X)
	case *ast.TypeAssertExpr:
		return s.exprTainted(e.X)
	case *ast.CallExpr:
		return s.callTainted(e)
	}
	return false
}

func (s *taintState) callTainted(call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	// Conversions: string<->[]byte copies (clean); a conversion between
	// string types aliases (taint follows).
	if tv, ok := s.pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isStringish(tv.Type) && isStringish(s.pass.TypesInfo.Types[call.Args[0]].Type) {
			return s.exprTainted(call.Args[0])
		}
		return false
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := s.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" {
				for _, a := range call.Args {
					if s.exprTainted(a) {
						return true
					}
				}
			}
			return false
		}
	}
	if isStringsClone(s.pass, fun) {
		return false // the sanctioned copy
	}
	return s.isSourceCall(call)
}

// isSourceCall recognizes the calls whose first result aliases a read
// block.
func (s *taintState) isSourceCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel := s.pass.TypesInfo.Selections[fun]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal:
				return fun.Sel.Name == "Next" && isSegmentReader(sel.Recv())
			case types.FieldVal:
				return isDecodeSig(sel.Type())
			}
			return false
		}
		switch obj := s.pass.TypesInfo.Uses[fun.Sel].(type) {
		case *types.Var: // package-level func value
			return isDecodeSig(obj.Type())
		case *types.Func: // runio.String returns an aliasing view
			return obj.Name() == "String" && obj.Pkg() != nil && obj.Pkg().Name() == "runio"
		}
	case *ast.Ident:
		if v, ok := s.objOf(fun).(*types.Var); ok {
			return isDecodeSig(v.Type())
		}
	}
	return false
}

func (s *taintState) objOf(id *ast.Ident) types.Object {
	if obj := s.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return s.pass.TypesInfo.Defs[id]
}

// localValueFieldChain reports whether the selector stores into a
// field chain rooted at a function-local, non-pointer variable — the
// allowed builder pattern (var rec Record; rec.Key = k; return rec).
func localValueFieldChain(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	e := sel.X
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			obj, ok := pass.TypesInfo.Uses[x].(*types.Var)
			if !ok || !isLocalVar(obj, pass) {
				return false
			}
			_, isPtr := obj.Type().Underlying().(*types.Pointer)
			return !isPtr
		default:
			return false
		}
	}
}

func isLocalVar(obj types.Object, pass *analysis.Pass) bool {
	v, ok := obj.(*types.Var)
	return ok && !v.IsField() && v.Parent() != nil && v.Parent() != pass.Pkg.Scope()
}

func isMap(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func isStringsClone(pass *analysis.Pass, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Clone" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "strings"
}

// isSegmentReader matches *runio.SegmentReader (or the value form) by
// name, so fixtures with a mini runio package also match.
func isSegmentReader(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "SegmentReader" && obj.Pkg() != nil && obj.Pkg().Name() == "runio"
}

// isDecodeSig matches the decoder shape func(string) (T, int, error).
func isDecodeSig(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Params().Len() != 1 || sig.Results().Len() != 3 {
		return false
	}
	if !isBasicKind(sig.Params().At(0).Type(), types.IsString) {
		return false
	}
	if !isBasicKind(sig.Results().At(1).Type(), types.IsInteger) {
		return false
	}
	named, ok := sig.Results().At(2).Type().(*types.Named)
	return ok && named.Obj() == types.Universe.Lookup("error")
}

func isBasicKind(t types.Type, info types.BasicInfo) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&info != 0
}

func isStringish(t types.Type) bool {
	return t != nil && isBasicKind(t, types.IsString)
}

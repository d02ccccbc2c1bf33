package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEqAnalyzer forbids == and != on floating-point operands outside
// the helper allowlist (stats.ExactZero and stats.ExactEqual, named by
// `floateq allowfunc` directives in lint.conf). Exact
// float comparison is how accuracy metrics silently lie: an HMRE term
// that happens to land on 0.0, or a convergence check that compares
// recomputed losses bit-for-bit, behaves differently across
// optimization levels and reduction orders. Intentional exact
// comparisons route through the shared helpers so the semantics are
// documented and tested in one place.
var FloatEqAnalyzer = &Analyzer{
	Name: "floateq",
	Doc:  "forbid ==/!= on floats outside the helper allowlist",
	Run:  runFloatEq,
}

func runFloatEq(p *Pass) {
	if !p.Policy.Applies("floateq", p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !p.isFloatType(be.X) && !p.isFloatType(be.Y) {
				return true
			}
			if fd := funcFor(f, be.Pos()); fd != nil && p.Policy.FuncAllowed("floateq", p.Pkg.Path, funcDeclName(fd)) {
				return true
			}
			p.Reportf("floateq", be.Pos(),
				"%s on floating-point operands; compare within a tolerance or use stats.ExactZero/stats.ExactEqual (or waive with a justification)", be.Op)
			return true
		})
	}
}

func (p *Pass) isFloatType(expr ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// funcDeclName names a function the way `floateq allowfunc` directives
// do: "FuncName" for functions, "Recv.Method" for methods (pointer
// receivers drop the star).
func funcDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

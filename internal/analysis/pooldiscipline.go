package analysis

import (
	"go/ast"
	"go/types"

	"nnwc/internal/analysis/cfg"
)

// PoolDisciplineAnalyzer enforces Get/Put pairing for sync.Pool, typed
// wrappers built on it, and the scheduler's free list (sched.Pool[T]),
// protecting the zero-alloc PredictWorkspace and batch-kernel workspaces:
//
//   - every CFG path from a pool Get to function exit must pass a Put of
//     the same value (a `defer pool.Put(v)` covers every path), unless
//     the value escapes by being returned or stored — the
//     acquire-helper pattern hands the Put obligation to the caller;
//   - the pooled value must not be used after Put: the pool may already
//     have handed it to another goroutine, so a late read or write is a
//     data race, and a late slice alias resurrects freed memory;
//   - a second Put of the same value is a double-free.
//
// Like hotpath, the rule is usage-driven and has no package allowlist:
// it fires wherever pools are used.
var PoolDisciplineAnalyzer = &Analyzer{
	Name: "pooldiscipline",
	Doc:  "require Get/Put pairing on all CFG paths and no use of pooled values after Put",
	Run:  runPoolDiscipline,
}

func runPoolDiscipline(p *Pass) {
	if !p.Policy.Applies("pooldiscipline", p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkPoolFunc(fd)
		}
	}
}

// poolVar tracks one variable bound to a pool Get result.
type poolVar struct {
	obj      types.Object
	name     string
	getPos   ast.Node
	escapes  bool // returned or stored: the Put obligation moved elsewhere
	deferred bool // a defer pool.Put(v) covers every exit path
}

// poolMethod matches x.Get()/x.Put(v) where x is pool-like, returning
// the method name ("" otherwise).
func (p *Pass) poolMethod(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if sel.Sel.Name != "Get" && sel.Sel.Name != "Put" {
		return ""
	}
	tv, ok := p.Pkg.Info.Types[sel.X]
	if !ok || tv.Type == nil || !isPoolLikeType(tv.Type) {
		return ""
	}
	return sel.Sel.Name
}

// getAssignTarget matches `v := pool.Get()` (possibly through a type
// assertion) and returns v's object.
func (p *Pass) getAssignTarget(assign *ast.AssignStmt) (types.Object, *ast.Ident) {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil, nil
	}
	ident, ok := assign.Lhs[0].(*ast.Ident)
	if !ok || ident.Name == "_" {
		return nil, nil
	}
	rhs := ast.Unparen(assign.Rhs[0])
	if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
		rhs = ast.Unparen(ta.X)
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || p.poolMethod(call) != "Get" {
		return nil, nil
	}
	obj := p.Pkg.Info.Defs[ident]
	if obj == nil {
		obj = p.Pkg.Info.Uses[ident]
	}
	return obj, ident
}

// putArgObj returns the object Put is called with when it is a plain
// identifier (nil otherwise).
func (p *Pass) putArgObj(call *ast.CallExpr) types.Object {
	if p.poolMethod(call) != "Put" || len(call.Args) != 1 {
		return nil
	}
	ident, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return p.Pkg.Info.Uses[ident]
}

const (
	stLive = 1 << iota // Get result not yet Put on some path here
	stPut              // Put already executed on some path here
)

func (p *Pass) checkPoolFunc(fd *ast.FuncDecl) {
	// Discover the pooled vars and their static properties first.
	vars := map[types.Object]*poolVar{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures have their own frames; skip
		case *ast.AssignStmt:
			if obj, ident := p.getAssignTarget(n); obj != nil {
				vars[obj] = &poolVar{obj: obj, name: ident.Name, getPos: n}
			}
		}
		return true
	})
	if len(vars) == 0 {
		return
	}
	// Second pass for defers and escapes now that every var is known.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if obj := p.putArgObj(n.Call); obj != nil {
				if v := vars[obj]; v != nil {
					v.deferred = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				p.markEscapes(vars, res)
			}
		case *ast.AssignStmt:
			// v stored into a field, map, slice, or package variable:
			// the Put obligation moves with it.
			if _, ident := p.getAssignTarget(n); ident != nil {
				return true // the Get assignment itself
			}
			for i, rhs := range n.Rhs {
				// A store through a field, index, or dereference moves the
				// value out of the function; a plain local rebinding does not.
				if i < len(n.Lhs) && p.lhsLocalObj(n.Lhs[i]) != nil {
					continue
				}
				p.markEscapes(vars, rhs)
			}
		case *ast.SendStmt:
			p.markEscapes(vars, n.Value)
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				p.markEscapes(vars, elt)
			}
		}
		return true
	})

	g := cfg.New(fd.Body)
	blocks := g.Reachable()
	type state = map[types.Object]int
	in := map[int]state{g.Entry.Index: {}}

	reported := map[string]bool{}
	report := func(pos ast.Node, format string, args ...any) {
		key := p.Pkg.Fset.Position(pos.Pos()).String() + format
		if reported[key] {
			return
		}
		reported[key] = true
		p.Reportf("pooldiscipline", pos.Pos(), format, args...)
	}

	transfer := func(st state, node ast.Node, reporting bool) {
		walkSync(node, func(n ast.Node) bool {
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				return false
			}
			if assign, ok := n.(*ast.AssignStmt); ok {
				if obj, _ := p.getAssignTarget(assign); obj != nil {
					st[obj] = stLive
					return false
				}
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if obj := p.putArgObj(call); obj != nil && vars[obj] != nil {
					if reporting && st[obj]&stPut != 0 {
						report(call, "%s may already be Put on this path; a second Put hands the pool a duplicate", vars[obj].name)
					}
					st[obj] = stPut
					return false
				}
			}
			if ident, ok := n.(*ast.Ident); ok {
				obj := p.Pkg.Info.Uses[ident]
				if obj != nil && vars[obj] != nil && st[obj]&stPut != 0 && reporting {
					report(ident, "%s is used after Put; the pool may have handed it to another goroutine", vars[obj].name)
				}
			}
			return true
		})
	}

	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			st, ok := in[b.Index]
			if !ok {
				continue
			}
			out := cloneState(st)
			for _, node := range b.Nodes {
				transfer(out, node, false)
			}
			for _, succ := range b.Succs {
				prev, seen := in[succ.Index]
				if !seen {
					in[succ.Index] = cloneState(out)
					changed = true
					continue
				}
				merged := cloneState(prev)
				for k, v := range out {
					merged[k] |= v
				}
				if !stateEqual(merged, prev) {
					in[succ.Index] = merged
					changed = true
				}
			}
		}
	}
	for _, b := range blocks {
		st, ok := in[b.Index]
		if !ok {
			continue
		}
		s := cloneState(st)
		for _, node := range b.Nodes {
			transfer(s, node, true)
		}
	}
	// Exit check: a path can reach function exit with the value live.
	if exitSt, ok := in[g.Exit.Index]; ok {
		for obj, bits := range exitSt {
			v := vars[obj]
			if v == nil || v.escapes || v.deferred {
				continue
			}
			if bits&stLive != 0 {
				report(v.getPos, "%s from pool Get can reach function exit without Put on some path; Put on every path or defer it", v.name)
			}
		}
	}
}

func cloneState(st map[types.Object]int) map[types.Object]int {
	c := make(map[types.Object]int, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

func stateEqual(a, b map[types.Object]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// markEscapes flags any pooled var mentioned in e as escaping: once the
// value is returned or stored, pairing is the new owner's obligation.
func (p *Pass) markEscapes(vars map[types.Object]*poolVar, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if ident, ok := n.(*ast.Ident); ok {
			if obj := p.Pkg.Info.Uses[ident]; obj != nil {
				if v := vars[obj]; v != nil {
					v.escapes = true
				}
			}
		}
		return true
	})
}

// lhsLocalObj returns the object of a plain local identifier LHS, nil
// for anything else (field, index, dereference).
func (p *Pass) lhsLocalObj(lhs ast.Expr) types.Object {
	ident, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := p.Pkg.Info.Defs[ident]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Uses[ident]
}

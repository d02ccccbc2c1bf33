package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// callinfo.go holds the type-query helpers shared by the concurrency and
// resource-lifecycle analyzers (ctxflow, lockhold, goroutine-lifecycle,
// pooldiscipline, errcheck-results): callee resolution, receiver typing,
// and the table of calls known to block.

// calleeFunc resolves the *types.Func a call invokes, or nil for builtin
// calls, conversions, and calls through function values.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := p.Pkg.Info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call: pkg.Func.
		fn, _ := p.Pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcKey renders a *types.Func as "pkgpath.Name" for package functions
// and "pkgpath.Type.Name" for methods (pointer receivers stripped), the
// form the blocking-call table and policy files use.
func funcKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if fn.Pkg() == nil {
			return fn.Name()
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return fn.Name()
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

// blockingCalls maps funcKey values to a short description of why the
// call can block indefinitely (or for an unbounded I/O round trip). The
// lockhold analyzer treats these — plus channel operations and
// package-local functions that transitively reach them — as operations
// that must not run while a mutex is held.
var blockingCalls = map[string]string{
	"time.Sleep":                     "time.Sleep",
	"sync.WaitGroup.Wait":            "WaitGroup.Wait",
	"sync.Cond.Wait":                 "Cond.Wait",
	"net/http.Get":                   "HTTP round trip",
	"net/http.Head":                  "HTTP round trip",
	"net/http.Post":                  "HTTP round trip",
	"net/http.PostForm":              "HTTP round trip",
	"net/http.Client.Do":             "HTTP round trip",
	"net/http.Client.Get":            "HTTP round trip",
	"net/http.Client.Head":           "HTTP round trip",
	"net/http.Client.Post":           "HTTP round trip",
	"net/http.Client.PostForm":       "HTTP round trip",
	"net/http.Server.Serve":          "Server.Serve",
	"net/http.Server.ListenAndServe": "Server.ListenAndServe",
	"net/http.Server.Shutdown":       "Server.Shutdown (drains connections)",
	"net/http.ServeFile":             "file-serving I/O",
	"os.Open":                        "file I/O",
	"os.OpenFile":                    "file I/O",
	"os.Create":                      "file I/O",
	"os.CreateTemp":                  "file I/O",
	"os.ReadFile":                    "file I/O",
	"os.WriteFile":                   "file I/O",
	"os.Rename":                      "file I/O",
	"os.Remove":                      "file I/O",
	"os.RemoveAll":                   "file I/O",
	"os.MkdirAll":                    "file I/O",
	"os.ReadDir":                     "file I/O",
	"os.File.Read":                   "file I/O",
	"os.File.ReadAt":                 "file I/O",
	"os.File.Write":                  "file I/O",
	"os.File.WriteAt":                "file I/O",
	"os.File.WriteString":            "file I/O",
	"os.File.Sync":                   "file I/O",
	"os.File.Close":                  "file I/O (close flushes)",
	"bufio.Writer.Flush":             "buffered-writer flush (underlying I/O)",
	"io.Copy":                        "stream copy I/O",
	"io.ReadAll":                     "stream read I/O",
}

// exprString renders an expression compactly ("c.mu", "s.pool"). It is
// the key the dataflow passes use to identify a lock or pool receiver
// within one function; distinct expressions that alias the same object
// are treated as distinct locks, which errs on the side of reporting.
func (p *Pass) exprString(e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}

// mutexMethod matches x.Lock()/x.Unlock()/x.RLock()/x.RUnlock() where x
// is (or embeds) a sync.Mutex or sync.RWMutex, returning the method name
// and the receiver key ("" when the call is no mutex operation).
func (p *Pass) mutexMethod(call *ast.CallExpr) (method, recv string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", ""
	}
	fn := p.calleeFunc(call)
	key := funcKey(fn)
	if !strings.HasPrefix(key, "sync.Mutex.") && !strings.HasPrefix(key, "sync.RWMutex.") {
		return "", ""
	}
	return name, p.exprString(sel.X)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// ctxParam returns the name of fn's context.Context parameter, or "".
func (p *Pass) ctxParam(fd *ast.FuncDecl) string {
	if fd.Type.Params == nil {
		return ""
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := p.Pkg.Info.Types[field.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		if len(field.Names) > 0 {
			return field.Names[0].Name
		}
		return "_"
	}
	return ""
}

// isChanType reports whether e has channel type.
func (p *Pass) isChanType(e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// namedOrPtr unwraps a pointer and returns the named type beneath, if any.
func namedOrPtr(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isSyncPoolType reports whether t is sync.Pool (possibly behind a
// pointer).
func isSyncPoolType(t types.Type) bool {
	named := namedOrPtr(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// isPoolLikeType reports whether t is sync.Pool, a struct wrapping one,
// or the scheduler's free list sched.Pool[T], so typed pools get the same
// Get/Put discipline as the raw type.
func isPoolLikeType(t types.Type) bool {
	if isSyncPoolType(t) {
		return true
	}
	named := namedOrPtr(t)
	if named == nil {
		return false
	}
	if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "nnwc/internal/sched" && obj.Name() == "Pool" {
		return true
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isSyncPoolType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// selRoot returns the leftmost identifier of a selector chain (x in
// x.a.b), or nil.
func selRoot(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		default:
			return nil
		}
	}
}

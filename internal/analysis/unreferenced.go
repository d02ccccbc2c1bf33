package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// UnreferencedAnalyzer reports every exported package-level func, type,
// var and const, and every exported method, that no non-test file
// references. Tests are not callers: an API that only its own tests reach
// is code the program carries for nothing. References are read from a
// module-wide index (refIndex), so a package linted alone gets the same
// findings as the whole module. A method also counts as referenced when
// its receiver type implements an interface that declares it, because an
// interface call or a dynamic check (fmt's Stringer, errors' Unwrap) can
// reach it without naming it.
var UnreferencedAnalyzer = &Analyzer{
	Name: "unreferenced",
	Doc:  "forbid exported API that no non-test file in the module references",
	Run:  runUnreferenced,
}

func runUnreferenced(p *Pass) {
	if !p.Policy.Applies("unreferenced", p.Pkg.Path) {
		return
	}
	idx := p.Pkg.loader.refIndex(p.Pkg.Dir)
	if idx.err != nil {
		p.Reportf("unreferenced", p.Pkg.Files[0].Name.Pos(), "cannot build the module-wide reference index: %v", idx.err)
		return
	}
	report := func(id *ast.Ident, kind string) {
		p.Reportf("unreferenced", id.Pos(), "exported %s %s is referenced by no non-test file; delete it", kind, id.Name)
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				fn, _ := p.Pkg.Info.Defs[d.Name].(*types.Func)
				if fn == nil || idx.referenced(p.Pkg.Path, fn) {
					continue
				}
				if d.Recv == nil {
					report(d.Name, "func")
				} else if !idx.memberNames[fn.Name()] && !idx.implementsDeclarer(fn) {
					report(d.Name, "method")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && !idx.referenced(p.Pkg.Path, p.Pkg.Info.Defs[s.Name]) {
							report(s.Name, "type")
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() && !idx.referenced(p.Pkg.Path, p.Pkg.Info.Defs[name]) {
								report(name, d.Tok.String())
							}
						}
					}
				}
			}
		}
	}
}

// refIndex is what the unreferenced rule knows about one universe of
// packages: the module (perfbench/ included, since the module walk
// reaches it) or one self-contained fixture tree under testdata/src.
type refIndex struct {
	used        map[types.Object]bool         // objects a non-test file names outside their own declaration
	names       map[string]bool               // "pkgpath.Name" named by a build-excluded file
	memberNames map[string]bool               // ".Name" selectors in build-excluded files
	ifaces      map[string][]*types.Interface // method name → interfaces that declare it
	err         error
}

// refIndex returns the reference index of the universe holding dir,
// building it on first use. A package under testdata/src/<fixture>
// belongs to that fixture's tree; every other package belongs to the
// module, whatever patterns the caller loaded.
func (l *Loader) refIndex(dir string) *refIndex {
	root := l.universeRoot(dir)
	if idx := l.indexes[root]; idx != nil {
		return idx
	}
	idx := &refIndex{
		used:        map[types.Object]bool{},
		names:       map[string]bool{},
		memberNames: map[string]bool{},
		ifaces:      map[string][]*types.Interface{},
	}
	l.indexes[root] = idx
	dirs, err := l.walkTree(root)
	if err != nil {
		idx.err = err
		return idx
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := l.loadDir(d)
		if err != nil {
			idx.err = err
			return idx
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	for _, pkg := range pkgs {
		idx.addUses(pkg)
	}
	for _, d := range dirs {
		if err := idx.addExcludedFiles(l, d); err != nil {
			idx.err = err
			return idx
		}
	}
	idx.addInterfaces(pkgs, l.ModulePath)
	return idx
}

func (l *Loader) universeRoot(dir string) string {
	rel, err := filepath.Rel(l.RootDir, dir)
	if err != nil {
		return l.RootDir
	}
	parts := strings.Split(filepath.ToSlash(rel), "/")
	for i := 0; i+2 < len(parts); i++ {
		if parts[i] == "testdata" && parts[i+1] == "src" {
			return filepath.Join(l.RootDir, filepath.FromSlash(strings.Join(parts[:i+3], "/")))
		}
	}
	return l.RootDir
}

// addUses records every object pkg's files name. A use inside the
// object's own declaration does not count, and neither does a type's use
// in its own methods (receiver or body): code that only refers to itself
// is still unreferenced.
func (x *refIndex) addUses(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			var self, recv types.Object
			var nodes []ast.Node
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = pkg.Info.Defs[fd.Name]
				if fn, ok := self.(*types.Func); ok {
					recv = receiverTypeName(fn)
				}
				nodes = append(nodes, fd.Type)
				if fd.Body != nil {
					nodes = append(nodes, fd.Body)
				}
			} else {
				nodes = append(nodes, decl)
			}
			for _, n := range nodes {
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := originOf(pkg.Info.Uses[id]); obj != nil && obj != self && obj != recv {
							x.used[obj] = true
						}
					}
					return true
				})
			}
		}
	}
}

func receiverTypeName(fn *types.Func) types.Object {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// originOf maps a use of an instantiated generic method or field back to
// the declared object.
func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// addExcludedFiles records the names used by dir's files that the host's
// build constraints exclude (kernels_other.go and the like). They are not
// type-checked, so names resolve by spelling: a bare identifier names its
// own package's object, pkg.Name names an imported package's, and any
// other x.Name counts for every method called Name.
func (x *refIndex) addExcludedFiles(l *Loader, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	pkgPath, err := l.importPathFor(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if !buildExcluded(src) {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.SkipObjectResolution)
		if err != nil {
			continue // an unparsable excluded file names nothing the build can see
		}
		declared := map[*ast.Ident]bool{f.Name: true}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declared[d.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declared[s.Name] = true
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declared[id] = true
						}
					}
				}
			}
		}
		imports := map[string]string{}
		for _, spec := range f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			local := path.Base(p)
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = p
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
					x.names[imports[id.Name]+"."+n.Sel.Name] = true
				} else {
					x.memberNames[n.Sel.Name] = true
					ast.Inspect(n.X, visit)
				}
				return false
			case *ast.ImportSpec:
				return false
			case *ast.Ident:
				if !declared[n] {
					x.names[pkgPath+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	}
	return nil
}

// referenced reports whether obj, declared in pkgPath, is named by a
// non-test file of the universe.
func (x *refIndex) referenced(pkgPath string, obj types.Object) bool {
	return obj == nil || x.used[obj] || x.names[pkgPath+"."+obj.Name()]
}

// addInterfaces indexes, by method name, every interface the universe's
// packages spell out or name, every package-level interface of the
// standard-library packages they import, and the unnamed interfaces that
// errors.Is/As/Unwrap check dynamically.
func (x *refIndex) addInterfaces(pkgs []*Package, modulePath string) {
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] || !iface.IsMethodSet() {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			x.ifaces[name] = append(x.ifaces[name], iface)
		}
	}
	for _, t := range dynamicInterfaces() {
		add(t)
	}
	visited := map[*types.Package]bool{}
	var walkStd func(*types.Package)
	walkStd = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walkStd(imp)
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() != modulePath && !strings.HasPrefix(imp.Path(), modulePath+"/") {
				walkStd(imp)
			}
		}
	}
}

// dynamicInterfaces are the method sets the standard library checks by
// type assertion on unnamed interfaces: error itself, and errors'
// Unwrap (both forms), Is and As.
func dynamicInterfaces() []types.Type {
	errType := types.Universe.Lookup("error").Type()
	anyType := types.Universe.Lookup("any").Type()
	method := func(name string, params []types.Type, result types.Type) *types.Func {
		var vars []*types.Var
		for _, p := range params {
			vars = append(vars, types.NewParam(token.NoPos, nil, "", p))
		}
		sig := types.NewSignatureType(nil, nil, nil, types.NewTuple(vars...),
			types.NewTuple(types.NewParam(token.NoPos, nil, "", result)), false)
		return types.NewFunc(token.NoPos, nil, name, sig)
	}
	ifaces := []*types.Func{
		method("Unwrap", nil, errType),
		method("Unwrap", nil, types.NewSlice(errType)),
		method("Is", []types.Type{errType}, types.Typ[types.Bool]),
		method("As", []types.Type{anyType}, types.Typ[types.Bool]),
	}
	out := []types.Type{errType}
	for _, m := range ifaces {
		out = append(out, types.NewInterfaceType([]*types.Func{m}, nil).Complete())
	}
	return out
}

// implementsDeclarer reports whether fn's receiver type implements an
// indexed interface that declares a method of fn's name, so an interface
// call can reach fn without naming it. go/types cannot decide Implements
// for an uninstantiated generic receiver, so one of those need only have
// every method the interface names.
func (x *refIndex) implementsDeclarer(fn *types.Func) bool {
	tn := receiverTypeName(fn)
	if tn == nil {
		return false
	}
	named := tn.Type().(*types.Named)
	ptr := types.NewPointer(named)
	for _, iface := range x.ifaces[fn.Name()] {
		if named.TypeParams().Len() > 0 {
			if hasMethodNames(ptr, iface) {
				return true
			}
		} else if types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

func hasMethodNames(t types.Type, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, iface.Method(i).Name())
		if _, ok := obj.(*types.Func); !ok {
			return false
		}
	}
	return true
}

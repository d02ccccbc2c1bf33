package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package. Only non-test
// files are loaded: every rule in the suite exempts _test.go files, and
// skipping them keeps the type-checker off test-only dependencies.
type Package struct {
	Path  string // import path, e.g. "nnwc/internal/nn"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	loader *Loader // for the module-wide reference index
}

// Loader discovers, parses, and type-checks the packages of a single Go
// module without go/packages or `go list`: directories are walked
// directly, module-internal imports are resolved against the walk, and
// standard-library imports are type-checked from $GOROOT/src by the
// stdlib source importer. This keeps go.mod dependency-free at the cost
// of supporting only the layout this repo actually uses (one module, no
// external imports, no cgo). Files whose //go:build (or legacy +build)
// constraint excludes the host GOOS/GOARCH are skipped, so a
// platform-gated file cannot poison type-checking for the whole package.
type Loader struct {
	RootDir    string // absolute module root (directory containing go.mod)
	ModulePath string
	Fset       *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package  // memoized by import path
	loading map[string]bool      // cycle guard
	indexes map[string]*refIndex // reference indexes by universe root
}

// NewLoader locates the enclosing module from dir by walking up to the
// nearest go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		RootDir:    root,
		ModulePath: modPath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
		indexes:    map[string]*refIndex{},
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load resolves package patterns to loaded packages. Supported patterns:
// "./..." (every package under the module root, skipping testdata, .git,
// and hidden directories) and directory paths relative to the current
// working directory (which may point into testdata — that is how the
// self-test fixtures are loaded).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		var batch []string
		var err error
		switch {
		case pat == "./..." || pat == "...":
			batch, err = l.walkModule()
		case strings.HasSuffix(pat, "/..."):
			batch, err = l.walkTree(strings.TrimSuffix(pat, "/..."))
		default:
			batch = []string{pat}
		}
		if err != nil {
			return nil, err
		}
		for _, d := range batch {
			abs, err := filepath.Abs(d)
			if err != nil {
				return nil, err
			}
			if !seen[abs] {
				seen[abs] = true
				dirs = append(dirs, abs)
			}
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

func (l *Loader) walkModule() ([]string, error) { return l.walkTree(l.RootDir) }

func (l *Loader) walkTree(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "results" || name == "runs" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.RootDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.RootDir)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) dirForImport(path string) string {
	if path == l.ModulePath {
		return l.RootDir
	}
	rel := strings.TrimPrefix(path, l.ModulePath+"/")
	return filepath.Join(l.RootDir, filepath.FromSlash(rel))
}

func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.loadPackage(path)
}

func (l *Loader) loadPackage(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirForImport(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if buildExcluded(src) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	var terrs []types.Error
	conf.Error = func(err error) {
		if te, ok := err.(types.Error); ok {
			terrs = append(terrs, te)
		}
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(terrs) > 0 {
		return nil, &TypeError{Path: path, Errs: terrs}
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info, loader: l}
	l.pkgs[path] = pkg
	return pkg, nil
}

// TypeError aggregates the positioned type-check diagnostics of one
// package so the driver can print every broken line, not just the first,
// before exiting with a usage/load error.
type TypeError struct {
	Path string
	Errs []types.Error
}

func (e *TypeError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "analysis: type-checking %s failed:", e.Path)
	const maxShown = 10
	shown := len(e.Errs)
	if shown > maxShown {
		shown = maxShown
	}
	for _, te := range e.Errs[:shown] {
		fmt.Fprintf(&b, "\n\t%s: %s", te.Fset.Position(te.Pos), te.Msg)
	}
	if len(e.Errs) > shown {
		fmt.Fprintf(&b, "\n\t... and %d more", len(e.Errs)-shown)
	}
	return b.String()
}

// buildExcluded reports whether src's build constraint (a //go:build or
// legacy // +build line above the package clause) excludes the host
// configuration. Files with no constraint are always included.
func buildExcluded(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "package ") {
			break
		}
		expr, err := constraint.Parse(trimmed)
		if err != nil {
			continue
		}
		if !expr.Eval(buildTagSatisfied) {
			return true
		}
	}
	return false
}

// buildTagSatisfied treats the host OS/arch, the gc toolchain, and every
// release tag as set; anything else (ignore, integration, ...) is unset.
func buildTagSatisfied(tag string) bool {
	if tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" {
		return true
	}
	return strings.HasPrefix(tag, "go1.")
}

// loaderImporter resolves module-internal imports through the Loader and
// everything else through the standard-library source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.loadPackage(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

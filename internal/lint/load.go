package lint

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
	"sync"
)

// Package is one loaded, type-checked module package.
type Package struct {
	Path  string // import path, e.g. "ramp/internal/core"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	loader *Loader
}

// Loader resolves and type-checks packages of the enclosing module
// using only the standard library: module-local imports are parsed and
// checked from source by the loader itself; all other imports (the
// standard library) are delegated to go/importer's source importer,
// which checks them from GOROOT.
//
// The loader parses with the default build configuration (current
// GOOS/GOARCH) plus the extra tags given to NewLoader, so without
// `rampdebug` its gated files are excluded exactly as in a normal
// `go build`. Test files are never loaded:
// rampvet's analyzers target production code, and several of them
// (floatcmp, seeddet) explicitly permit in tests what they flag outside
// them.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
	tags map[string]bool

	reach reachability // the unreached analyzer's module-wide memo
}

// NewLoader builds a loader for the module containing dir (found by
// walking up to go.mod), with extra build tags enabled on top of the
// default GOOS/GOARCH/gc set — e.g. "rampdebug" to analyze the
// runtime-invariant implementation files the default build excludes.
// Analyzers always see exactly the tree the compiler would build under
// the same tags.
func NewLoader(dir string, extraTags ...string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	tags := map[string]bool{
		runtime.GOOS:   true,
		runtime.GOARCH: true,
		"gc":           true,
	}
	for _, t := range extraTags {
		if t != "" {
			tags[t] = true
		}
	}
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		tags:       tags,
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// Import implements types.Importer over the module + standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// loadPath loads the module package with the given import path.
func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil // cycle marker
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	pkg, err := l.check(dir, path)
	if err != nil {
		delete(l.pkgs, path)
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadDir loads and type-checks the package in dir (which must be
// inside the module).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleRoot)
	}
	path := l.ModulePath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	return l.loadPath(path)
}

// check parses and type-checks the package in dir.
func (l *Loader) check(dir, path string) (*Package, error) {
	names, err := l.goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:   path,
		Dir:    dir,
		Fset:   l.fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		loader: l,
	}, nil
}

// goFiles returns the buildable non-test Go files in dir, respecting
// //go:build constraints under the loader's tag set.
func (l *Loader) goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		ok, err := l.fileMatches(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// fileMatches evaluates the file's //go:build (or legacy // +build)
// constraint, if any, against the loader's tags.
func (l *Loader) fileMatches(path string) (bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		return false, err
	}
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break // constraints must precede the package clause
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			if !expr.Eval(func(tag string) bool { return l.tags[tag] }) {
				return false, nil
			}
		}
	}
	return true, nil
}

// ResolvePatterns expands command-line package patterns ("./...",
// "./internal/core", ".") relative to dir into package directories.
func (l *Loader) ResolvePatterns(dir string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var out []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base := filepath.Join(dir, filepath.FromSlash(rest))
			err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				names, err := l.goFiles(p)
				if err != nil {
					return err
				}
				if len(names) > 0 {
					add(p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(dir, filepath.FromSlash(pat)))
	}
	return out, nil
}

// Run loads every package matched by patterns (relative to dir), with
// the extra build tags, and applies the analyzers, returning all
// diagnostics sorted by position. Loading and type-checking are
// sequential (the loader's package cache is shared); the analyzers run
// on up to GOMAXPROCS packages at once, and the final sort by position
// makes the output independent of completion order.
func Run(dir string, patterns []string, analyzers []*Analyzer, tags ...string) ([]Diagnostic, error) {
	l, err := NewLoader(dir, tags...)
	if err != nil {
		return nil, err
	}
	dirs, err := l.ResolvePatterns(dir, patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, len(dirs))
	for i, d := range dirs {
		if pkgs[i], err = l.LoadDir(d); err != nil {
			return nil, err
		}
	}

	workers := min(runtime.GOMAXPROCS(0), len(pkgs))
	perPkg := make([][]Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				perPkg[i], errs[i] = RunAnalyzers(pkgs[i], analyzers)
			}
		}()
	}
	for i := range pkgs {
		next <- i
	}
	close(next)
	wg.Wait()

	var all []Diagnostic
	for i := range pkgs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		all = append(all, perPkg[i]...)
	}
	sortDiagnostics(all)
	return all, nil
}

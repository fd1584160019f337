package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"sync"
)

// Unreached flags functions and methods in the module's internal/
// packages that no artifact can reach. Code that only tests call runs
// in no table, figure, command or benchmark, so it can drift from the
// model without any digest noticing.
//
// Reachability is computed once per run over the whole module, loaded
// from its root, so the result does not depend on the package patterns
// rampvet is given. The roots are every function in a main package
// (cmd/, examples/ and perfbench, which the loader walks into), every
// function declared in the module-root facade, every init, and every
// function named in a package-level declaration (`Run: runCtxFlow`).
// A type the facade re-exports does not make its methods roots. Every
// use of a function or method inside a reached body is an edge, read
// from types.Info.Uses, so calls, method values and function values
// all count; a generic instance maps to its origin.
//
// Calls made through an interface, including those inside the standard
// library (fmt calling String, slog calling a Handler), are invisible
// to that walk. So a method also counts as reached when it shares a
// name with a method of any package-level interface type declared in
// the module or in a package the module imports, however indirectly.
// Findings are reported per package, so //rampvet:ignore works as for
// every other analyzer.
var Unreached = &Analyzer{
	Name: "unreached",
	Doc:  "flags functions and methods under internal/ that no command, example, perfbench or facade function reaches",
	Run:  runUnreached,
}

// reachability memoizes the module-wide reached set on a Loader.
type reachability struct {
	once    sync.Once
	reached map[*types.Func]bool
	err     error
}

func runUnreached(pass *Pass) error {
	l := pass.loader
	if l == nil || !strings.HasPrefix(pass.Pkg.Path(), l.ModulePath+"/internal/") {
		return nil
	}
	l.reach.once.Do(func() { l.reach.reached, l.reach.err = l.reachedFuncs() })
	if l.reach.err != nil {
		return l.reach.err
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok && !l.reach.reached[fn] {
				pass.Reportf(fd.Name.Pos(), "%s is reached by no command, example, perfbench or facade function: delete it, or move it into a test file", funcName(fn))
			}
		}
	}
	return nil
}

// reachedFuncs loads every package of the module and returns the
// functions and methods reachable from its roots.
func (l *Loader) reachedFuncs() (map[*types.Func]bool, error) {
	dirs, err := l.ResolvePatterns(l.ModuleRoot, nil)
	if err != nil {
		return nil, err
	}
	type body struct {
		node ast.Node
		info *types.Info
	}
	reached := map[*types.Func]bool{}
	var queue []*types.Func
	mark := func(fn *types.Func) {
		if fn = fn.Origin(); !reached[fn] {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	visit := func(b body) {
		ast.Inspect(b.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := b.info.Uses[id].(*types.Func); ok {
					mark(fn)
				}
			}
			return true
		})
	}

	decls := map[*types.Func]body{}
	var methods []*types.Func
	ifaces, seen := map[string]bool{}, map[*types.Package]bool{}
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		interfaceMethods(pkg.Types, ifaces, seen)
		allRoots := pkg.Types.Name() == "main" || pkg.Path == l.ModulePath
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					visit(body{d, pkg.Info}) // package-level declarations name roots
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				decls[fn] = body{fd, pkg.Info}
				switch {
				case allRoots || (fd.Recv == nil && fd.Name.Name == "init"):
					mark(fn)
				case fd.Recv != nil:
					methods = append(methods, fn)
				}
			}
		}
	}
	// The interface names are complete only once every package is in.
	for _, fn := range methods {
		if ifaces[fn.Name()] {
			mark(fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if b, ok := decls[fn]; ok {
			visit(b)
		}
	}
	return reached, nil
}

// interfaceMethods adds to names the method names of every
// package-level interface type in pkg and in the packages it imports,
// transitively.
func interfaceMethods(pkg *types.Package, names map[string]bool, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					names[it.Method(i).Name()] = true
				}
			}
		}
	}
	for _, imp := range pkg.Imports() {
		interfaceMethods(imp, names, seen)
	}
}

// funcName renders fn as Name or Recv.Name, without package qualifiers.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

package flow

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotDirective marks a function as being on the allocation-sensitive
// hot path (the per-epoch simulate→power→thermal→FIT pipeline). The
// hotalloc analyzer flags allocation sources inside marked functions.
const HotDirective = "//ramp:hot"

// FuncInfo is one declared function in the package's call graph.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl

	// Hot records a //ramp:hot directive in the doc comment.
	Hot bool

	// Callees are the statically resolvable functions this function
	// calls, in source order, deduplicated. Calls made inside function
	// literals declared in the body are attributed to the enclosing
	// declaration: the closure cannot run unless the declaration
	// created it, so attributing them keeps reachability conservative.
	Callees []*types.Func

	// CallSites maps each callee to its call expressions, for
	// analyzers that need positions or arguments.
	CallSites map[*types.Func][]*ast.CallExpr
}

// Graph is the call graph of one type-checked package. Edges to
// functions outside the package (other module packages, the standard
// library) are present as *types.Func callees without a FuncInfo body.
type Graph struct {
	Info  *types.Info
	Funcs map[*types.Func]*FuncInfo
	Decls []*FuncInfo // declaration order across the package's files
}

// BuildGraph constructs the call graph for a package's files.
func BuildGraph(files []*ast.File, info *types.Info) *Graph {
	g := &Graph{Info: info, Funcs: map[*types.Func]*FuncInfo{}}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &FuncInfo{
				Obj:       obj,
				Decl:      fd,
				Hot:       hasDirective(fd.Doc, HotDirective),
				CallSites: map[*types.Func][]*ast.CallExpr{},
			}
			if fd.Body != nil {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := Callee(info, call)
					if callee == nil {
						return true
					}
					if _, seen := fi.CallSites[callee]; !seen {
						fi.Callees = append(fi.Callees, callee)
					}
					fi.CallSites[callee] = append(fi.CallSites[callee], call)
					return true
				})
			}
			g.Funcs[obj] = fi
			g.Decls = append(g.Decls, fi)
		}
	}
	return g
}

// Callee resolves the *types.Func a call statically invokes, or nil for
// indirect calls, conversions and built-ins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// hasDirective reports whether the doc comment carries the directive as
// its own comment line (optionally followed by a space and free text).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// Reaches reports whether any function transitively callable from
// `from` satisfies pred. pred is applied to every callee edge: callee
// is the called function's type object; local is its FuncInfo when the
// body is in this package, nil for external functions (which are leaves
// of the walk — their callees are invisible). pred is not applied to
// `from` itself.
func (g *Graph) Reaches(from *types.Func, pred func(callee *types.Func, local *FuncInfo) bool) bool {
	seen := map[*types.Func]bool{from: true}
	work := []*types.Func{from}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		fi := g.Funcs[fn]
		if fi == nil {
			continue
		}
		for _, callee := range fi.Callees {
			if seen[callee] {
				continue
			}
			seen[callee] = true
			if pred(callee, g.Funcs[callee]) {
				return true
			}
			work = append(work, callee)
		}
	}
	return false
}

// CallOrReaches reports whether fn itself satisfies pred or any
// function transitively callable from it does.
func (g *Graph) CallOrReaches(fn *types.Func, pred func(callee *types.Func, local *FuncInfo) bool) bool {
	if pred(fn, g.Funcs[fn]) {
		return true
	}
	return g.Reaches(fn, pred)
}

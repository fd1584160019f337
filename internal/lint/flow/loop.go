// Package flow is the flow-analysis layer under rampvet's analyzers:
// the for and range loops of a function body with the nodes that run
// under each (this file), and a package-level call graph with
// interprocedural reachability queries (flow.go). Like the rest of
// internal/lint it is built on the standard library only — go/ast and
// go/types.
//
// Loops answer the question the loop checks ask — "does anything
// inside this loop make a long-running call, or check for
// cancellation?" — without every analyzer re-deriving loop extents
// from raw syntax. Function literals are deliberately not entered: a
// closure runs on its own schedule (possibly a different goroutine),
// so its loops are not the body's, and each analyzer decides
// explicitly whether to descend into one.
package flow

import "go/ast"

// Loop is one for or range statement and the nodes that run under it:
// its condition and post statement or its range operand, and the leaf
// statements and control expressions of its body (an if's init and
// condition, a switch's init, tag and case expressions, a select's
// communication clauses), those of nested loops included. A compound
// statement contributes its parts, not itself. The loop's own init and
// its range key and value run outside it.
type Loop struct {
	Stmt  ast.Stmt // *ast.ForStmt or *ast.RangeStmt
	Nodes []ast.Node
}

// Contains reports whether pred matches any node of the loop or any
// node beneath one (the walk descends via ast.Inspect, including into
// function literals — callers that want to exclude closures check for
// *ast.FuncLit in pred).
func (l *Loop) Contains(pred func(ast.Node) bool) bool {
	found := false
	for _, n := range l.Nodes {
		ast.Inspect(n, func(m ast.Node) bool {
			if found || m == nil {
				return false
			}
			if pred(m) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// Loops returns the for and range loops of a function (or function
// literal) body, outer before inner, each with the nodes under it.
// Loops inside function literals are not collected. A nil body
// (declaration without body) has none.
func Loops(body *ast.BlockStmt) []*Loop {
	var w loopWalker
	if body != nil {
		w.stmts(body.List)
	}
	return w.loops
}

// loopWalker collects the loops of one body; open holds the loops
// enclosing the statement being walked, innermost last.
type loopWalker struct {
	loops, open []*Loop
}

// add records n, if non-nil, as a node of every enclosing loop.
func (w *loopWalker) add(n ast.Node) {
	if n == nil {
		return
	}
	for _, l := range w.open {
		l.Nodes = append(l.Nodes, n)
	}
}

func (w *loopWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// stmt adds one statement's nodes to the enclosing loops.
func (w *loopWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.IfStmt:
		w.add(s.Init)
		w.add(s.Cond)
		w.stmts(s.Body.List)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.SwitchStmt:
		w.add(s.Init)
		w.add(s.Tag)
		w.cases(s.Body)
	case *ast.TypeSwitchStmt:
		w.add(s.Init)
		w.add(s.Assign)
		w.cases(s.Body)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.add(cc.Comm)
			w.stmts(cc.Body)
		}
	case *ast.ForStmt:
		w.add(s.Init)
		w.loop(s, s.Body, s.Cond, s.Post)
	case *ast.RangeStmt:
		w.loop(s, s.Body, s.X)
	default:
		// Leaf statements: assignments, declarations, expression
		// statements, go/defer/send/incdec/empty, return and branch.
		w.add(s)
	}
}

// cases adds a switch body's case expressions and clause statements.
func (w *loopWalker) cases(body *ast.BlockStmt) {
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		for _, e := range cc.List {
			w.add(e)
		}
		w.stmts(cc.Body)
	}
}

// loop opens a Loop for s, adds its header nodes (condition and post,
// or range operand) to it and to the enclosing loops, and walks its
// body.
func (w *loopWalker) loop(s ast.Stmt, body *ast.BlockStmt, header ...ast.Node) {
	l := &Loop{Stmt: s}
	w.loops = append(w.loops, l)
	w.open = append(w.open, l)
	for _, n := range header {
		w.add(n)
	}
	w.stmts(body.List)
	w.open = w.open[:len(w.open)-1]
}

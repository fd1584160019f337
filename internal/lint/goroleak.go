package lint

import (
	"go/ast"
	"go/types"

	"ramp/internal/lint/flow"
)

// GoroLeak flags goroutines spawned with no escape route.
//
// rampserve drains gracefully on SIGTERM and the test suite runs a
// 32-goroutine race lane; both depend on every spawned goroutine being
// joinable or cancellable. A goroutine whose body touches none of the
// coordination primitives — no context value, no channel operation, no
// sync.WaitGroup — is fire-and-forget: nothing can stop it, nothing
// can wait for it, and under repeated spawning it is a leak. Two
// checks:
//
//   - detached goroutine: the spawned function (literal or locally
//     declared, including its local callees) references no context, no
//     channel and no WaitGroup, and the call's arguments carry none
//     either;
//   - unbounded loop: the goroutine contains a `for { }` loop with no
//     channel operation and no context use inside the loop — even a
//     WaitGroup cannot help when the loop never exits.
//
// Goroutines whose body is invisible (a method value from another
// package) are only checked via their arguments. Deliberate detachment
// takes a `//rampvet:ignore goroleak` with justification.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "flags goroutines with no ctx/channel/WaitGroup escape route and goroutine loops that can never be cancelled",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) error {
	g := flow.BuildGraph(pass.Files, pass.Info)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, g, gs)
			return true
		})
	}
	return nil
}

// checkGoStmt applies both goroleak checks to one go statement.
func checkGoStmt(pass *Pass, g *flow.Graph, gs *ast.GoStmt) {
	body := goBody(pass, g, gs.Call)
	escapes := false
	for _, arg := range gs.Call.Args {
		if isCoordinationExpr(pass, arg) {
			escapes = true
		}
	}
	if body != nil && bodyEscapes(pass, g, body, map[*types.Func]bool{}) {
		escapes = true
	}
	if !escapes {
		pass.Reportf(gs.Pos(), "goroutine has no ctx/done-channel/WaitGroup escape route; nothing can stop or join it")
	}
	// Even a joinable goroutine must not contain an uncancellable
	// infinite loop: the join never happens. Checked for goroutine
	// literals only, where the loop position is at the spawn site;
	// a named function's loops are its own (synchronous) business.
	lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	for _, loop := range flow.Loops(lit.Body) {
		fs, ok := loop.Stmt.(*ast.ForStmt)
		if !ok || fs.Cond != nil {
			continue
		}
		cancellable := loop.Contains(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt, *ast.ReturnStmt:
				return true
			case *ast.UnaryExpr:
				return n.Op.String() == "<-"
			case ast.Expr:
				return isContextType(pass.TypeOf(n)) || isChanType(pass.TypeOf(n))
			}
			return false
		})
		if !cancellable {
			pass.Reportf(loop.Stmt.Pos(), "unbounded for loop in goroutine has no channel operation or ctx check; it can never be cancelled")
		}
	}
}

// goBody resolves the spawned function's body: a function literal's
// own body, or the body of a locally declared function. nil when the
// body is outside the package.
func goBody(pass *Pass, g *flow.Graph, call *ast.CallExpr) *ast.BlockStmt {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if callee := flow.Callee(pass.Info, call); callee != nil {
		if fi := g.Funcs[callee]; fi != nil && fi.Decl != nil {
			return fi.Decl.Body
		}
	}
	return nil
}

// bodyEscapes reports whether a goroutine body references a
// coordination primitive, directly or through locally declared callees.
func bodyEscapes(pass *Pass, g *flow.Graph, body *ast.BlockStmt, seen map[*types.Func]bool) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			escapes = true
			return false
		case *ast.RangeStmt:
			if isChanType(pass.TypeOf(n.X)) {
				escapes = true
				return false
			}
		case *ast.CallExpr:
			if callee := flow.Callee(pass.Info, n); callee != nil {
				if isWaitGroupMethod(callee) {
					escapes = true
					return false
				}
				if fi := g.Funcs[callee]; fi != nil && fi.Decl != nil && fi.Decl.Body != nil && !seen[callee] {
					seen[callee] = true
					if bodyEscapes(pass, g, fi.Decl.Body, seen) {
						escapes = true
						return false
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				escapes = true
				return false
			}
		case *ast.Ident:
			t := pass.TypeOf(n)
			if isContextType(t) || isChanType(t) {
				escapes = true
				return false
			}
		}
		return true
	})
	return escapes
}

// isCoordinationExpr reports whether an argument hands the goroutine a
// coordination primitive: a context, a channel, or a *sync.WaitGroup.
func isCoordinationExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if isContextType(t) || isChanType(t) {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t != nil && types.TypeString(t, nil) == "sync.WaitGroup"
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isWaitGroupMethod reports whether fn is a method on sync.WaitGroup.
func isWaitGroupMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return types.TypeString(t, nil) == "sync.WaitGroup"
}

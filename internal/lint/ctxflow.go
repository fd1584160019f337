package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"ramp/internal/lint/flow"
)

// CtxFlow flags broken cancellation plumbing in functions that accept a
// context.Context.
//
// The rampserve deadlines only work because cancellation is threaded
// from the HTTP handler down to the epoch boundary: EvaluateCtx and
// SweepCtx check ctx and stop simulating within one epoch, and SelectCtx
// checks it between candidates. A function that takes a ctx and then calls a long-running
// entry point through its non-ctx variant (Evaluate instead of
// EvaluateCtx) silently severs that chain — the caller's deadline
// expires but the simulation burns to completion. Two checks:
//
//   - severed call: a ctx-bearing function calls a long-running
//     function (name-prefixed Evaluate/Sweep/Simulate, or a
//     local helper whose call graph reaches one) without passing any
//     context argument; when a "<name>Ctx" sibling exists the message
//     names it.
//   - uncancellable loop: a loop in a ctx-bearing function that makes
//     long-running calls but contains no cancellation point — no
//     ctx.Err()/ctx.Done() check, no select, and no call that receives
//     a context — and no severed call, which is reported already. Each
//     iteration extends the uncancellable window.
//
// Both checks are scoped to functions that already accept a ctx: those
// are exactly the functions on the serve path (handlers thread ctx by
// construction), and a function without a ctx parameter has nothing to
// propagate.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "flags ctx-bearing functions that sever cancellation: non-ctx calls to long-running work, loops without a cancellation point",
	Run:  runCtxFlow,
}

// longRunPrefixes name this repo's long-running entry points: full
// evaluations, adaptation-space sweeps and raw simulation runs —
// everything that simulates. A requalification is a sub-microsecond
// arithmetic pass over a recorded exposure, so it is not one.
var longRunPrefixes = []string{"Evaluate", "Sweep", "Simulate"}

func runCtxFlow(pass *Pass) error {
	g := flow.BuildGraph(pass.Files, pass.Info)
	for _, fi := range g.Decls {
		if fi.Decl.Body == nil || !hasCtxParam(fi.Obj) {
			continue
		}
		// Severed calls anywhere in the body.
		flagged := map[*ast.CallExpr]bool{}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := flow.Callee(pass.Info, call)
			if callee == nil || callHasCtxArg(pass, call) {
				return true
			}
			if isLongRunningName(callee.Name()) {
				flagged[call] = true
				if sib := ctxSibling(callee); sib != nil {
					pass.Reportf(call.Pos(), "ctx-bearing function calls %s without the context; use %s to propagate cancellation", callee.Name(), sib.Name())
				} else {
					pass.Reportf(call.Pos(), "ctx-bearing function calls long-running %s without the context; thread ctx through it", callee.Name())
				}
				return true
			}
			if g.Reaches(callee, func(c *types.Func, _ *flow.FuncInfo) bool {
				return isLongRunningName(c.Name())
			}) {
				flagged[call] = true
				pass.Reportf(call.Pos(), "ctx-bearing function calls %s, whose call chain reaches long-running work, without the context", callee.Name())
			}
			return true
		})

		// Uncancellable loops.
		for _, loop := range flow.Loops(fi.Decl.Body) {
			if loopHasCancellation(pass, loop) {
				continue
			}
			// A severed call inside the loop was already reported
			// above; don't double-report the enclosing loop.
			hasSevered := loop.Contains(func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				return ok && flagged[call]
			})
			if hasSevered {
				continue
			}
			hasLongRun := loop.Contains(func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return false
				}
				callee := flow.Callee(pass.Info, call)
				if callee == nil {
					return false
				}
				return g.CallOrReaches(callee, func(c *types.Func, _ *flow.FuncInfo) bool {
					return isLongRunningName(c.Name())
				})
			})
			if hasLongRun {
				pass.Reportf(loop.Stmt.Pos(), "loop makes long-running calls with no cancellation point; check ctx.Err() or pass ctx into the loop body")
			}
		}
	}
	return nil
}

// isLongRunningName reports whether name denotes a long-running entry
// point. Ctx variants match too — they are just as long-running; the
// severed-call check never fires on them because they cannot be called
// without a context argument, while the loop check needs them to count
// (an EvaluateCtx fed context.Background() inside a loop is exactly an
// uncancellable loop).
func isLongRunningName(name string) bool {
	for _, p := range longRunPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// hasCtxParam reports whether fn's signature carries a cancellation
// source: a context.Context or an *http.Request (whose Context() the
// serve handlers thread downward).
func hasCtxParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isCtxCarrier(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// callHasCtxArg reports whether any argument of the call carries a
// context (a context.Context value or an *http.Request).
func callHasCtxArg(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isCtxCarrier(pass.TypeOf(arg)) {
			return true
		}
	}
	return false
}

// isCtxCarrier reports whether t is context.Context or *http.Request.
func isCtxCarrier(t types.Type) bool {
	if isContextType(t) {
		return true
	}
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// ctxSibling looks up the "<name>Ctx" variant of fn — a package-level
// function or a method on the same receiver type whose first parameter
// is a context.Context — and returns it, or nil.
func ctxSibling(fn *types.Func) *types.Func {
	name := fn.Name() + "Ctx"
	sig := fn.Type().(*types.Signature)
	var cand types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), name)
		cand = obj
	} else if fn.Pkg() != nil {
		cand = fn.Pkg().Scope().Lookup(name)
	}
	sib, ok := cand.(*types.Func)
	if !ok {
		return nil
	}
	sibSig, ok := sib.Type().(*types.Signature)
	if !ok || sibSig.Params().Len() == 0 || !isContextType(sibSig.Params().At(0).Type()) {
		return nil
	}
	return sib
}

// loopHasCancellation reports whether the loop contains a
// cancellation point: a select statement anywhere under the loop
// statement, function literals included (it waits on channels the
// parent controls), or a reference to a live context *variable*
// (ctx.Err(), ctx.Done(), passing ctx onward, an *http.Request in
// hand). A context.Context-typed call result is deliberately not
// enough — `EvaluateCtx(context.Background(), …)` manufactures a
// context precisely to sever cancellation, and must not count.
func loopHasCancellation(pass *Pass, loop *flow.Loop) bool {
	sel := false
	ast.Inspect(loop.Stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.SelectStmt); ok {
			sel = true
		}
		return !sel
	})
	return sel || loop.Contains(func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && isCtxCarrier(pass.TypeOf(id))
	})
}

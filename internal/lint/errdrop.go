package lint

import (
	"go/ast"
	"go/types"

	"ramp/internal/lint/flow"
)

// ErrDrop flags statement-position calls whose error result is silently
// discarded.
//
// Every constructor and accumulator in the model chain (core.NewEngine,
// Engine.Observe, exp.Evaluate, ...) reports invalid physics through an
// error return; dropping one turns a diagnosable misconfiguration into
// a silently wrong FIT value. A call used as a bare statement discards
// every result, so if any result is an error the call is flagged.
//
// Exemptions:
//
//   - the fmt print family (Print/Printf/Println/Fprint/Fprintf/
//     Fprintln): report and diagnostic output, where a failed write is
//     either unactionable (stdout/stderr) or surfaces through the
//     destination writer — the same convention the stdlib itself uses
//     (e.g. package flag's usage output);
//   - methods on strings.Builder and bytes.Buffer (documented to never
//     return a non-nil error).
//
// An explicit `_ = f()` assignment is visible intent and is not flagged.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flags statement-position calls that silently discard an error result",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) error {
	errType := types.Universe.Lookup("error").Type()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
			if !ok {
				return true // conversion or built-in
			}
			results := sig.Results()
			returnsErr := false
			for i := 0; i < results.Len(); i++ {
				if types.Identical(results.At(i).Type(), errType) {
					returnsErr = true
					break
				}
			}
			if !returnsErr || errDropExempt(pass, call) {
				return true
			}
			pass.Reportf(call.Pos(), "error result of %s is silently discarded; handle it or assign to _ explicitly", callName(call))
			return true
		})
	}
	return nil
}

// errDropExempt reports whether the call is on the documented
// never-fails allowlist.
func errDropExempt(pass *Pass, call *ast.CallExpr) bool {
	fn := flow.Callee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
	case "strings", "bytes":
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			switch types.TypeString(recv.Type(), nil) {
			case "*strings.Builder", "*bytes.Buffer":
				return true
			}
		}
	}
	return false
}

// callName renders a short name for the called function.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}

package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
	"unicode"

	"ramp/internal/lint/flow"
)

// isFloat reports whether t's underlying type is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isNumeric reports whether t's underlying type is any numeric type.
func isNumeric(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// constFloatValue returns e's compile-time numeric value, if it has one.
func constFloatValue(info *types.Info, e ast.Expr) (float64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float {
		return 0, false
	}
	f, _ := constant.Float64Val(v)
	return f, true
}

// tempDeltaWords mark identifiers that are Kelvin-denominated
// *differences* (sensor noise, bias, quantisation steps), not absolute
// temperatures; small values are legitimate for them.
var tempDeltaWords = []string{
	"Std", "std", "Noise", "noise", "Bias", "bias", "Quant", "quant",
	"Delta", "delta", "Diff", "diff", "Step", "step", "Sigma", "sigma",
}

// compoundUnitSuffixes are trailing unit compounds where K appears as a
// denominator (thermal conductivity W/(m·K), volumetric heat capacity
// J/(m³·K), heat capacity J/K) — not temperatures at all.
var compoundUnitSuffixes = []string{"WmK", "m3K", "JK"}

// isTempName reports whether an identifier names an absolute
// temperature by this codebase's conventions: it contains "Temp"/"temp"
// (TempK, tempK, avgTempK, sinkTempK) or carries the Kelvin suffix — a
// trailing capital 'K' preceded by a lower-case letter or digit
// (ambientK, TqualK, SMT0K). The preceding-character rule keeps
// all-caps acronyms that merely end in K (CJK, RKW) out; delta-valued
// names (NoiseStdK) and compound unit suffixes (KSiliconWmK) are
// excluded explicitly.
func isTempName(name string) bool {
	for _, w := range tempDeltaWords {
		if strings.Contains(name, w) {
			return false
		}
	}
	for _, suf := range compoundUnitSuffixes {
		if strings.HasSuffix(name, suf) {
			return false
		}
	}
	if strings.Contains(name, "Temp") || strings.Contains(name, "temp") {
		return true
	}
	if len(name) >= 2 && strings.HasSuffix(name, "K") {
		r := rune(name[len(name)-2])
		return unicode.IsLower(r) || unicode.IsDigit(r)
	}
	return false
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := flow.Callee(info, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath && f.Name() == name &&
		f.Type().(*types.Signature).Recv() == nil
}

// containsCallTo reports whether any call to pkgPath.name appears in
// the expression tree rooted at e.
func containsCallTo(info *types.Info, e ast.Expr, pkgPath, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isPkgFunc(info, call, pkgPath, name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// terminates reports whether a statement unconditionally leaves the
// enclosing function or loop iteration: return, panic, continue, break,
// or a block ending in one.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	case *ast.BlockStmt:
		return len(s.List) > 0 && terminates(s.List[len(s.List)-1])
	}
	return false
}

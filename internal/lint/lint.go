// Package lint is a small, pluggable static-analysis framework for the
// RAMP codebase, built entirely on the standard library's go/ast,
// go/parser, go/types and go/build/constraint packages (the repo's
// stdlib-only rule rules out golang.org/x/tools/go/analysis, so this
// package reimplements the slice of it RAMP needs).
//
// The framework has four parts:
//
//   - Analyzer: a named check with a Run function over a type-checked
//     package, and the //rampvet:ignore suppression rule (this file).
//     Every finding that no such comment suppresses fails the gate.
//   - Loader: resolves "./..."-style patterns to module packages,
//     parses them with build-constraint filtering, and type-checks them
//     with a stdlib-only importer chain (load.go). Analysis fans out
//     across packages with a deterministic merge (Run).
//   - flow (internal/lint/flow): each function's loops with the nodes
//     under them, and a package-level call graph with interprocedural
//     reachability — the engine under the flow-aware analyzers.
//   - The domain analyzers. Per-statement pattern checks (floatcmp.go,
//     unitsafety.go, expguard.go, seeddet.go, errdrop.go, obsguard.go):
//     float equality, Celsius-into-Kelvin constants, unguarded
//     Arrhenius denominators, non-deterministic RNG seeding, dropped
//     errors, and raw stderr prints bypassing the structured logger.
//     Flow-aware checks (detmap.go, ctxflow.go, hotalloc.go,
//     goroleak.go): map iteration order leaking into output or
//     floating-point accumulation, severed context cancellation chains,
//     allocation sources on //ramp:hot paths, and unjoinable
//     goroutines. One whole-module check (unreached.go): functions
//     under internal/ that no command, example, perfbench or facade
//     function reaches.
//
// cmd/rampvet is the command-line driver; analyzer golden tests live in
// lint_test.go against fixtures under testdata/src.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way compilers do:
// file:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	loader *Loader // the run's loader, for whole-module analyzers
	diags  *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// Analyzer is one static check.
type Analyzer struct {
	Name string // short lower-case identifier, e.g. "floatcmp"
	Doc  string // one-line description
	Run  func(*Pass) error
}

// All returns the full analyzer suite in stable order. The first six
// are per-statement pattern checks; the next four are flow-aware,
// built on the internal/lint/flow loop and call-graph engine; the last,
// unreached, walks the whole module's uses from its artifacts.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp,
		UnitSafety,
		ExpGuard,
		SeedDet,
		ErrDrop,
		ObsGuard,
		DetMap,
		CtxFlow,
		HotAlloc,
		GoroLeak,
		Unreached,
	}
}

// ByName returns the named analyzers, erroring on unknown names.
func ByName(names []string) ([]*Analyzer, error) {
	index := map[string]*Analyzer{}
	for _, a := range All() {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies the analyzers to one loaded package and returns
// the diagnostics sorted by position, with //rampvet:ignore-suppressed
// findings removed.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			loader:   pkg.loader,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = filterIgnored(pkg, diags)
	sortDiagnostics(diags)
	return diags, nil
}

// ignoreDirective is the comment prefix that suppresses diagnostics.
const ignoreDirective = "//rampvet:ignore"

// filterIgnored drops diagnostics suppressed by an `//rampvet:ignore
// [analyzers]` comment. A directive applies to findings on its own line
// (trailing comment) and on the line directly below it (standalone
// comment above the offending statement). With no analyzer list it
// suppresses everything on those lines; with a comma-separated list,
// only the named analyzers. Everything after the first space-separated
// field is free-form justification.
func filterIgnored(pkg *Package, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
	}
	ignores := map[key][]string{} // nil slice = ignore all analyzers
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignoreDirective)
				if !ok || (rest != "" && rest[0] != ' ') {
					continue
				}
				var names []string
				if fields := strings.Fields(rest); len(fields) > 0 && fields[0] != "--" {
					names = strings.Split(fields[0], ",")
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := key{pos.Filename, line}
					if names == nil {
						ignores[k] = nil
						continue
					}
					if cur, seen := ignores[k]; !seen || cur != nil {
						ignores[k] = append(cur, names...)
					}
				}
			}
		}
	}
	if len(ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		names, ok := ignores[key{d.Pos.Filename, d.Pos.Line}]
		if ok && (names == nil || slices.Contains(names, d.Analyzer)) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// sortDiagnostics orders diagnostics by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE extracts the quoted patterns of a `// want `x` `y“ comment.
var wantRE = regexp.MustCompile("`([^`]*)`")

// expectation is one expected diagnostic from a fixture comment.
type expectation struct {
	line    int
	pattern *regexp.Regexp
	matched bool
}

// parseExpectations scans a fixture file for `// want` comments.
func parseExpectations(t *testing.T, path string) []*expectation {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []*expectation
	for i, line := range strings.Split(string(data), "\n") {
		_, rest, ok := strings.Cut(line, "// want ")
		if !ok {
			continue
		}
		quoted := wantRE.FindAllStringSubmatch(rest, -1)
		if len(quoted) == 0 {
			t.Fatalf("%s:%d: want comment without backquoted pattern", path, i+1)
		}
		for _, q := range quoted {
			rx, err := regexp.Compile(q[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, q[1], err)
			}
			out = append(out, &expectation{line: i + 1, pattern: rx})
		}
	}
	return out
}

// runFixture loads testdata/src/<name> and checks the analyzer's
// diagnostics against the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	runFixtureDir(t, a, filepath.Join("testdata", "src", a.Name))
}

// runFixtureDir is runFixture for the package in dir, loaded in the
// module that encloses dir: this one, or a fixture module with its own
// go.mod.
func runFixtureDir(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	expects := map[string][]*expectation{}
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, path := range matches {
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		es := parseExpectations(t, path)
		expects[abs] = es
		total += len(es)
	}
	if total == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}

	for _, d := range diags {
		abs, err := filepath.Abs(d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range expects[abs] {
			if !e.matched && e.line == d.Pos.Line && e.pattern.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for path, es := range expects {
		for _, e := range es {
			if !e.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q not reported", path, e.line, e.pattern)
			}
		}
	}
}

func TestFloatCmp(t *testing.T)   { runFixture(t, FloatCmp) }
func TestUnitSafety(t *testing.T) { runFixture(t, UnitSafety) }
func TestExpGuard(t *testing.T)   { runFixture(t, ExpGuard) }
func TestSeedDet(t *testing.T)    { runFixture(t, SeedDet) }
func TestErrDrop(t *testing.T)    { runFixture(t, ErrDrop) }
func TestObsGuard(t *testing.T)   { runFixture(t, ObsGuard) }
func TestDetMap(t *testing.T)     { runFixture(t, DetMap) }
func TestCtxFlow(t *testing.T)    { runFixture(t, CtxFlow) }
func TestHotAlloc(t *testing.T)   { runFixture(t, HotAlloc) }
func TestGoroLeak(t *testing.T)   { runFixture(t, GoroLeak) }

// TestUnreached runs the analyzer over the library of a fixture module
// whose cmd/tool and facade are the roots.
func TestUnreached(t *testing.T) {
	runFixtureDir(t, Unreached, filepath.Join("testdata", "src", "unreached", "internal", "lib"))
}

// TestByName covers analyzer lookup.
func TestByName(t *testing.T) {
	as, err := ByName([]string{"floatcmp", "errdrop"})
	if err != nil || len(as) != 2 || as[0].Name != "floatcmp" || as[1].Name != "errdrop" {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Fatal("ByName accepted unknown analyzer")
	}
}

// TestRepoIsClean runs the full suite over the whole module — the same
// gate CI applies with `go run ./cmd/rampvet ./...` — and fails on
// every finding. Skipped in -short mode: it type-checks the entire
// module plus the stdlib from source.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis in -short mode")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(loader.ModuleRoot, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// parseOnlyPackage parses source into a Package with no type checking —
// enough for filterIgnored, which reads only comments and positions.
func parseOnlyPackage(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ignoretest.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "ignoretest", Fset: fset, Files: []*ast.File{f}}
}

// diagAt fabricates a diagnostic for filterIgnored tests.
func diagAt(pkg *Package, line int, analyzer string) Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: "ignoretest.go", Line: line, Column: 1},
		Analyzer: analyzer,
		Message:  "synthetic",
	}
}

// TestFilterIgnoredStacked covers consecutive-line directives: each
// directive claims its own line and the line below, so a stack of two
// reaches one statement with both analyzer lists while the statement
// two lines below the first directive only gets the second's.
func TestFilterIgnoredStacked(t *testing.T) {
	pkg := parseOnlyPackage(t, `package ignoretest

//rampvet:ignore floatcmp
//rampvet:ignore errdrop
var x = 1
`)
	// Line 3: floatcmp directive. Line 4: errdrop directive (also
	// covered by floatcmp's spill-down). Line 5: the statement —
	// covered by errdrop's spill-down only.
	kept := filterIgnored(pkg, []Diagnostic{
		diagAt(pkg, 4, "floatcmp"), // suppressed: directive line 3 covers 4
		diagAt(pkg, 4, "errdrop"),  // suppressed: directive on its own line
		diagAt(pkg, 5, "errdrop"),  // suppressed: directive line 4 covers 5
		diagAt(pkg, 5, "floatcmp"), // kept: floatcmp's reach ended at line 4
	})
	if len(kept) != 1 || kept[0].Analyzer != "floatcmp" || kept[0].Pos.Line != 5 {
		t.Fatalf("stacked directives: kept %v, want only floatcmp at line 5", kept)
	}
}

// TestFilterIgnoredJustification covers the `--` form: a directive
// whose first field is the justification separator suppresses all
// analyzers, with the free text ignored.
func TestFilterIgnoredJustification(t *testing.T) {
	pkg := parseOnlyPackage(t, `package ignoretest

//rampvet:ignore -- iteration order provably irrelevant here
var x = 1
`)
	kept := filterIgnored(pkg, []Diagnostic{
		diagAt(pkg, 4, "detmap"),
		diagAt(pkg, 4, "floatcmp"),
	})
	if len(kept) != 0 {
		t.Fatalf("`--` directive: kept %v, want all suppressed", kept)
	}
}

// TestFilterIgnoredMergeAllWins covers merging when one directive
// ignores everything and another names analyzers for the same line:
// ignore-all must win regardless of the order the directives are seen.
func TestFilterIgnoredMergeAllWins(t *testing.T) {
	for name, src := range map[string]string{
		"all-then-named": `package ignoretest

//rampvet:ignore
var x = 1 //rampvet:ignore floatcmp
`,
		"named-then-all": `package ignoretest

//rampvet:ignore floatcmp
var x = 1 //rampvet:ignore
`,
	} {
		pkg := parseOnlyPackage(t, src)
		kept := filterIgnored(pkg, []Diagnostic{
			diagAt(pkg, 4, "floatcmp"),
			diagAt(pkg, 4, "errdrop"), // only the ignore-all directive covers this
		})
		if len(kept) != 0 {
			t.Errorf("%s: kept %v, want ignore-all to win", name, kept)
		}
	}
}

// TestFilterIgnoredNamedMerge covers merging two named lists onto one
// line: both analyzer lists apply, others stay reported.
func TestFilterIgnoredNamedMerge(t *testing.T) {
	pkg := parseOnlyPackage(t, `package ignoretest

//rampvet:ignore floatcmp
var x = 1 //rampvet:ignore errdrop -- justification text
`)
	kept := filterIgnored(pkg, []Diagnostic{
		diagAt(pkg, 4, "floatcmp"),
		diagAt(pkg, 4, "errdrop"),
		diagAt(pkg, 4, "detmap"), // named by neither directive
	})
	if len(kept) != 1 || kept[0].Analyzer != "detmap" {
		t.Fatalf("named merge: kept %v, want only detmap", kept)
	}
}

// TestLoaderBuildTags proves analyzers see the same tree the compiler
// does: internal/check's rampdebug-gated implementation is excluded by
// the default loader and included (with its no-op twin excluded) when
// the tag is set. The `enabled` constant differs between the two
// files, so its value identifies which file was loaded.
func TestLoaderBuildTags(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/check + stdlib in -short mode")
	}
	load := func(tags ...string) string {
		l, err := NewLoader(".", tags...)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, "internal", "check"))
		if err != nil {
			t.Fatal(err)
		}
		obj := pkg.Types.Scope().Lookup("enabled")
		c, ok := obj.(*types.Const)
		if !ok {
			t.Fatalf("internal/check has no `enabled` const (got %v)", obj)
		}
		return c.Val().ExactString()
	}
	if got := load(); got != "false" {
		t.Errorf("default build: enabled = %s, want false (check_on.go must be excluded)", got)
	}
	if got := load("rampdebug"); got != "true" {
		t.Errorf("rampdebug build: enabled = %s, want true (check_off.go must be excluded)", got)
	}
}

// TestSeededDefectsFailGate is the CI-gate self-test: each flow
// analyzer's fixture package contains seeded defects, and running the
// suite on it must report findings — i.e. introducing any of these
// defect classes into the tree makes `rampvet ./...` (and the ci.sh
// rampvet lane) exit non-zero.
func TestSeededDefectsFailGate(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks fixtures + stdlib in -short mode")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Analyzer{DetMap, CtxFlow, HotAlloc, GoroLeak} {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", a.Name))
		if err != nil {
			t.Fatal(err)
		}
		diags, err := RunAnalyzers(pkg, []*Analyzer{a})
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) == 0 {
			t.Errorf("%s: seeded defects produced no findings; the CI gate would pass a %s regression", a.Name, a.Name)
		}
	}
}

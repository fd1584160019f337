package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"testing"
)

// load parses and type-checks a self-contained (import-free) source.
func load(t *testing.T, src string) (*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "flowtest.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{}
	if _, err := conf.Check("flowtest", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return f, info
}

// funcBody finds the named function's body in the file.
func funcBody(t *testing.T, f *ast.File, name string) *ast.BlockStmt {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd.Body
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

// loopsOf parses src and returns the loops of its function f, with each
// loop's nodes rendered as their source text and sorted: the walk order
// is not part of the contract.
func loopsOf(t *testing.T, src string) ([]*Loop, [][]string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "loops.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	loops := Loops(funcBody(t, f, "f"))
	texts := make([][]string, len(loops))
	for i, l := range loops {
		for _, n := range l.Nodes {
			texts[i] = append(texts[i], src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset])
		}
		slices.Sort(texts[i])
	}
	return loops, texts
}

// wantNodes fails unless got, a sorted node listing, holds exactly want.
func wantNodes(t *testing.T, loop string, got []string, want ...string) {
	t.Helper()
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s loop nodes = %q, want %q", loop, got, want)
	}
}

func TestLoopsFor(t *testing.T) {
	loops, nodes := loopsOf(t, `package p
func f(n int) int {
	sum := 0
	for i := 0; i < n; i++ {
		sum += i
	}
	return sum
}`)
	if len(loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(loops))
	}
	if _, ok := loops[0].Stmt.(*ast.ForStmt); !ok {
		t.Fatalf("loop stmt is %T", loops[0].Stmt)
	}
	// The condition, the post statement and the body run under the
	// loop; its init runs once before it, and the return after it.
	wantNodes(t, "for", nodes[0], "i < n", "i++", "sum += i")
}

func TestLoopsNested(t *testing.T) {
	_, nodes := loopsOf(t, `package p
func f(m [][]int) int {
	sum := 0
	for _, r := range m {
		for j, v := range r[1:] {
			sum += v * j
		}
	}
	return sum
}`)
	if len(nodes) != 2 {
		t.Fatalf("got %d loops, want 2", len(nodes))
	}
	// The outer loop holds every node of the inner one; neither holds
	// its range key or value.
	wantNodes(t, "outer", nodes[0], "m", "r[1:]", "sum += v * j")
	wantNodes(t, "inner", nodes[1], "r[1:]", "sum += v * j")
}

func TestLoopsBreakContinue(t *testing.T) {
	loops, _ := loopsOf(t, `package p
func f(xs []int) int {
	sum := 0
	for _, x := range xs {
		if x < 0 {
			continue
		}
		if x > 100 {
			break
		}
		sum += x
	}
	return sum
}`)
	if len(loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(loops))
	}
	// Both branch statements live inside the loop.
	n := 0
	loops[0].Contains(func(m ast.Node) bool {
		if _, ok := m.(*ast.BranchStmt); ok {
			n++
		}
		return false
	})
	if n != 2 {
		t.Fatalf("loop contains %d branch statements, want 2", n)
	}
}

func TestLoopsSelect(t *testing.T) {
	loops, nodes := loopsOf(t, `package p
func f(a, b chan int) int {
	for {
		select {
		case v := <-a:
			return v
		case <-b:
			return 0
		}
	}
}`)
	if len(loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(loops))
	}
	// A select contributes its communication clauses and their bodies,
	// not itself.
	wantNodes(t, "for", nodes[0], "v := <-a", "return v", "<-b", "return 0")
	if loops[0].Contains(func(n ast.Node) bool { _, ok := n.(*ast.SelectStmt); return ok }) {
		t.Error("loop lists the select statement itself")
	}
}

// TestLoopsCompoundParts pins which parts of each compound statement
// run under a loop, and that a function literal's loops are its own.
func TestLoopsCompoundParts(t *testing.T) {
	loops, nodes := loopsOf(t, `package p
func f(xs []int, ch chan int, v any) {
	for i := 0; i < len(xs); i++ {
		if x := xs[i]; x > 0 {
			ch <- x
		} else if x < -1 {
			continue
		}
		switch y := i * 2; y {
		case 0, 2:
			i--
		default:
		}
		switch t := v.(type) {
		case int:
			_ = t
		}
		go func() { for range ch {} }()
	}
}`)
	if len(loops) != 1 {
		t.Fatalf("got %d loops, want 1: a function literal's loop is not the body's", len(loops))
	}
	wantNodes(t, "for", nodes[0],
		"i < len(xs)", "i++",
		"x := xs[i]", "x > 0", "ch <- x", "x < -1", "continue",
		"y := i * 2", "y", "0", "2", "i--",
		"t := v.(type)", "int", "_ = t",
		"go func() { for range ch {} }()")
	// Contains still descends into the literal.
	if !loops[0].Contains(func(n ast.Node) bool { _, ok := n.(*ast.RangeStmt); return ok }) {
		t.Error("Contains does not reach the function literal's loop")
	}
}

func TestCallGraph(t *testing.T) {
	f, info := load(t, `package flowtest

func leaf() {}

//ramp:hot
func hot() { leaf() }

func mid() { hot() }

func top() { mid() }

func island() {}
`)
	g := BuildGraph([]*ast.File{f}, info)
	if len(g.Decls) != 5 {
		t.Fatalf("graph has %d decls, want 5", len(g.Decls))
	}
	byName := map[string]*FuncInfo{}
	for _, fi := range g.Decls {
		byName[fi.Obj.Name()] = fi
	}
	if !byName["hot"].Hot {
		t.Error("hot() missing //ramp:hot marking")
	}
	if byName["mid"].Hot || byName["leaf"].Hot {
		t.Error("unmarked functions claim //ramp:hot")
	}
	isLeaf := func(c *types.Func, _ *FuncInfo) bool { return c.Name() == "leaf" }
	if !g.Reaches(byName["top"].Obj, isLeaf) {
		t.Error("top does not reach leaf through mid → hot")
	}
	if g.Reaches(byName["island"].Obj, isLeaf) {
		t.Error("island reaches leaf")
	}
	if g.Reaches(byName["leaf"].Obj, isLeaf) {
		t.Error("Reaches applied the predicate to the start function itself")
	}
	if !g.CallOrReaches(byName["leaf"].Obj, isLeaf) {
		t.Error("CallOrReaches must apply the predicate to the start function")
	}
}

func TestCallGraphClosureAttribution(t *testing.T) {
	f, info := load(t, `package flowtest

func callee() {}

func outer() {
	f := func() { callee() }
	f()
}
`)
	g := BuildGraph([]*ast.File{f}, info)
	var outer *FuncInfo
	for _, fi := range g.Decls {
		if fi.Obj.Name() == "outer" {
			outer = fi
		}
	}
	// Calls inside the literal are attributed to outer.
	if !g.CallOrReaches(outer.Obj, func(c *types.Func, _ *FuncInfo) bool { return c.Name() == "callee" }) {
		t.Error("closure call not attributed to enclosing declaration")
	}
}

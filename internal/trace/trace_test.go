package trace

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// testProfile is a small single-phase profile for focused tests.
// mustGenerator is NewGenerator, panicking on invalid profiles.
func mustGenerator(p Profile, seed int64) *Generator {
	g, err := NewGenerator(p, seed)
	if err != nil {
		panic(err)
	}
	return g
}

func testProfile() Profile {
	return Profile{
		Name: "test", Class: "test", PhaseLen: 10_000,
		Phases: []Phase{{
			Name: "p", Weight: 1,
			Mix: Mix{IntAlu: 0.50, IntMul: 0.02, IntDiv: 0.01, FPOp: 0.08,
				FPDiv: 0.01, Load: 0.20, Store: 0.08, Branch: 0.10},
			DepGeomP: 0.2, NoDepFrac: 0.4,
			CodeBytes: 8 << 10,
			Streams: []Stream{
				{Kind: Strided, WorkingSet: 16 << 10, StrideBytes: 8, Weight: 0.7},
				{Kind: RandomInSet, WorkingSet: 1 << 20, Weight: 0.3},
			},
			PredictableFrac: 0.9, CallFrac: 0.05,
		}},
	}
}

func collect(t *testing.T, p Profile, seed int64, n int) []Instr {
	t.Helper()
	g, err := NewGenerator(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Instr, n)
	for i := range out {
		g.Next(&out[i])
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	a := collect(t, testProfile(), 7, 20_000)
	b := collect(t, testProfile(), 7, 20_000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := collect(t, testProfile(), 1, 5_000)
	b := collect(t, testProfile(), 2, 5_000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestMixApproximatelyHonoured(t *testing.T) {
	p := testProfile()
	instrs := collect(t, p, 3, 200_000)
	counts := map[Op]int{}
	for _, in := range instrs {
		counts[in.Op]++
	}
	n := float64(len(instrs))
	mix := p.Phases[0].Mix
	// The dynamic mix tracks the static mix loosely (loops reweight
	// blocks), so allow generous tolerance.
	checks := []struct {
		got  float64
		want float64
	}{
		{float64(counts[IntAlu]), mix.IntAlu},
		{float64(counts[Load]), mix.Load},
		{float64(counts[Store]), mix.Store},
		{float64(counts[Branch] + counts[Call] + counts[Ret]), mix.Branch},
		{float64(counts[FPOp]), mix.FPOp},
	}
	for i, c := range checks {
		frac := c.got / n
		if frac < c.want*0.5 || frac > c.want*1.8 {
			t.Errorf("check %d: dynamic fraction %.3f vs static %.3f", i, frac, c.want)
		}
	}
}

func TestPCsStayInCodeFootprint(t *testing.T) {
	p := testProfile()
	code := p.Phases[0].CodeBytes
	for _, in := range collect(t, p, 5, 50_000) {
		off := in.PC - (1 << 32)
		if off >= code {
			t.Fatalf("PC offset %d outside code footprint %d", off, code)
		}
		if in.PC%4 != 0 {
			t.Fatalf("unaligned PC %x", in.PC)
		}
	}
}

func TestBranchTargetsInFootprint(t *testing.T) {
	p := testProfile()
	code := p.Phases[0].CodeBytes
	for _, in := range collect(t, p, 11, 50_000) {
		if !in.Op.IsBranch() {
			continue
		}
		off := in.Target - (1 << 32)
		if off >= code {
			t.Fatalf("branch target offset %d outside code", off)
		}
	}
}

func TestCallRetPairing(t *testing.T) {
	p := testProfile()
	var stack []uint64
	orphanRets := 0
	for _, in := range collect(t, p, 13, 100_000) {
		switch in.Op {
		case Call:
			if !in.Taken {
				t.Fatal("call not taken")
			}
			stack = append(stack, in.PC+4)
		case Ret:
			if len(stack) == 0 {
				orphanRets++
				continue
			}
			want := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if in.Target != want {
				t.Fatalf("ret to %x, want %x", in.Target, want)
			}
		}
	}
	if orphanRets > 2 {
		t.Fatalf("%d orphan returns", orphanRets)
	}
}

func TestAddressesWithinStreams(t *testing.T) {
	p := testProfile()
	for _, in := range collect(t, p, 17, 50_000) {
		if !in.Op.IsMem() {
			continue
		}
		if in.Addr == 0 {
			t.Fatal("memory op without address")
		}
		// Addresses live in the per-phase data region, far above code.
		if in.Addr < 1<<39 {
			t.Fatalf("address %x below data region", in.Addr)
		}
	}
}

func TestDepDistancesBounded(t *testing.T) {
	for _, in := range collect(t, testProfile(), 19, 50_000) {
		if in.Dep1 > 256 || in.Dep2 > 256 {
			t.Fatalf("dependency distance too large: %d %d", in.Dep1, in.Dep2)
		}
	}
}

func TestPhaseCycling(t *testing.T) {
	p := testProfile()
	p.Phases = append(p.Phases, p.Phases[0])
	p.Phases[1].Name = "q"
	p.PhaseLen = 1000
	g := mustGenerator(p, 1)
	basesSeen := map[uint64]bool{}
	var in Instr
	for i := 0; i < 5000; i++ {
		g.Next(&in)
		basesSeen[in.PC>>32] = true
	}
	if len(basesSeen) != 2 {
		t.Fatalf("saw %d phase code bases, want 2", len(basesSeen))
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	mods := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Phases = nil },
		func(p *Profile) { p.PhaseLen = 0 },
		func(p *Profile) { p.Phases[0].Mix.IntAlu = 0.9 }, // sum > 1
		func(p *Profile) { p.Phases[0].DepGeomP = 0 },
		func(p *Profile) { p.Phases[0].CodeBytes = 8 },
		func(p *Profile) { p.Phases[0].Streams = nil },
		func(p *Profile) { p.Phases[0].Streams[0].WorkingSet = 0 },
		func(p *Profile) {
			p.Phases[0].Streams[0] = Stream{Kind: Strided, WorkingSet: 64, StrideBytes: 0, Weight: 1}
		},
		func(p *Profile) { p.Phases[0].PredictableFrac = 1.5 },
		func(p *Profile) {
			for i := range p.Phases[0].Streams {
				p.Phases[0].Streams[i].Weight = 0
			}
		},
	}
	for i, mod := range mods {
		p := testProfile()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
	if _, err := NewGenerator(Profile{}, 1); err == nil {
		t.Error("NewGenerator accepted empty profile")
	}
}

func TestBuiltinAppsValid(t *testing.T) {
	apps := Apps()
	if len(apps) != 9 {
		t.Fatalf("suite has %d apps, want 9", len(apps))
	}
	classes := map[string]int{}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			t.Errorf("%s invalid: %v", a.Name, err)
		}
		if a.PaperIPC <= 0 || a.PaperPowerW <= 0 {
			t.Errorf("%s missing paper reference values", a.Name)
		}
		classes[a.Class]++
	}
	if classes["multimedia"] != 3 || classes["SpecInt"] != 3 || classes["SpecFP"] != 3 {
		t.Fatalf("class split %v, want 3/3/3", classes)
	}
}

func TestAppByName(t *testing.T) {
	a, err := AppByName("twolf")
	if err != nil || a.Name != "twolf" {
		t.Fatalf("AppByName(twolf) = %v, %v", a.Name, err)
	}
	if _, err := AppByName("nosuch"); err == nil {
		t.Fatal("AppByName accepted unknown name")
	}
}

// TestAppByNameMatchesApps holds every lookup to the suite's own entry:
// the constructor list's names must be the names the profiles carry.
func TestAppByNameMatchesApps(t *testing.T) {
	for _, p := range Apps() {
		got, err := AppByName(p.Name)
		if err != nil {
			t.Fatalf("AppByName(%q): %v", p.Name, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("AppByName(%q) differs from its Apps() entry", p.Name)
		}
	}
	_, err := AppByName("nosuch")
	if want := `trace: unknown application "nosuch"`; err == nil || err.Error() != want {
		t.Errorf("unknown name: err %v, want %q", err, want)
	}
}

func TestOpPredicates(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() || IntAlu.IsMem() {
		t.Fatal("IsMem broken")
	}
	if !Branch.IsBranch() || !Call.IsBranch() || !Ret.IsBranch() || Load.IsBranch() {
		t.Fatal("IsBranch broken")
	}
	if !FPOp.IsFP() || !FPDiv.IsFP() || IntMul.IsFP() {
		t.Fatal("IsFP broken")
	}
	if Load.String() != "Load" || Op(200).String() == "" {
		t.Fatal("String broken")
	}
}

// Property: any seed yields a generator whose first 1000 instructions
// respect basic invariants (taken branches have targets, mem ops have
// addresses, ops are in range).
func TestGeneratorInvariantsQuick(t *testing.T) {
	p := testProfile()
	f := func(seed int64) bool {
		g, err := NewGenerator(p, seed)
		if err != nil {
			return false
		}
		var in Instr
		for i := 0; i < 1000; i++ {
			g.Next(&in)
			if in.Op >= NumOps {
				return false
			}
			if in.Op.IsMem() && in.Addr == 0 {
				return false
			}
			if in.Taken && in.Target == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

func TestStridedStreamWraps(t *testing.T) {
	p := testProfile()
	p.Phases[0].Mix = Mix{Load: 0.9, IntAlu: 0.1}
	p.Phases[0].Streams = []Stream{{Kind: Strided, WorkingSet: 1024, StrideBytes: 8, Weight: 1}}
	g := mustGenerator(p, 1)
	seen := map[uint64]bool{}
	var in Instr
	for i := 0; i < 5000; i++ {
		g.Next(&in)
		if in.Op == Load {
			seen[in.Addr] = true
		}
	}
	// A 1 KB working set walked with stride 8 has exactly 128 distinct
	// addresses; thousands of loads must wrap and reuse them.
	if len(seen) != 128 {
		t.Fatalf("strided stream touched %d addresses, want 128", len(seen))
	}
}

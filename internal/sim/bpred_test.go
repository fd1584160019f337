package sim

import "testing"

func TestBPredLearnsBiasedBranch(t *testing.T) {
	b := NewBPred(2048, 32)
	pc := uint64(0x1000)
	// Train: always taken.
	for i := 0; i < 10; i++ {
		b.PredictBranch(pc, true)
	}
	if !b.PredictBranch(pc, true) {
		t.Fatal("trained always-taken branch mispredicted")
	}
	// Two wrong outcomes flip a 2-bit counter.
	b.PredictBranch(pc, false)
	b.PredictBranch(pc, false)
	if !b.PredictBranch(pc, false) {
		t.Fatal("counter did not retrain to not-taken")
	}
}

func TestBPredSaturatingCounter(t *testing.T) {
	b := NewBPred(2048, 32)
	pc := uint64(0x42 << 2)
	for i := 0; i < 100; i++ {
		b.PredictBranch(pc, true)
	}
	// One not-taken must not flip a saturated counter.
	b.PredictBranch(pc, false)
	if !b.PredictBranch(pc, true) {
		t.Fatal("saturated counter flipped after one opposite outcome")
	}
}

func TestBPredDistinctPCs(t *testing.T) {
	b := NewBPred(2048, 32)
	// Two non-aliasing PCs learn opposite directions.
	a, c := uint64(4), uint64(8)
	for i := 0; i < 4; i++ {
		b.PredictBranch(a, true)
		b.PredictBranch(c, false)
	}
	if !b.PredictBranch(a, true) || !b.PredictBranch(c, false) {
		t.Fatal("independent branches interfere")
	}
}

func TestRASRoundTrip(t *testing.T) {
	b := NewBPred(2048, 4)
	b.Call(100)
	b.Call(200)
	if !b.Ret(200) {
		t.Fatal("RAS top mismatch")
	}
	if !b.Ret(100) {
		t.Fatal("RAS second entry mismatch")
	}
	if b.Ret(300) {
		t.Fatal("empty RAS should mispredict")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	b := NewBPred(2048, 2)
	b.Call(1)
	b.Call(2)
	b.Call(3) // evicts 1
	if !b.Ret(3) || !b.Ret(2) {
		t.Fatal("recent entries should survive overflow")
	}
	if b.Ret(1) {
		t.Fatal("evicted entry should mispredict")
	}
}

func TestBPredStats(t *testing.T) {
	b := NewBPred(2048, 4)
	if b.Lookups() != 0 || b.Mispredicts() != 0 {
		t.Fatal("fresh predictor has counted lookups")
	}
	b.PredictBranch(4, true) // cold counter (weakly not-taken) -> wrong
	b.PredictBranch(4, true) // now weakly taken? counter was 0 -> 1 -> predicts false again
	b.PredictBranch(4, true) // counter 2 -> predicts taken, correct
	if b.Lookups() != 3 {
		t.Fatalf("lookups = %d", b.Lookups())
	}
	if b.Mispredicts() == 0 || b.Mispredicts() >= 3 {
		t.Fatalf("mispredicts = %d", b.Mispredicts())
	}
}

func TestBPredTableSizeRoundsDown(t *testing.T) {
	// 3000 bytes -> 12000 counters -> rounds down to 8192.
	b := NewBPred(3000, 4)
	if len(b.counters) != 8192 {
		t.Fatalf("counters = %d, want 8192", len(b.counters))
	}
	if b.mask != 8191 {
		t.Fatalf("mask = %d", b.mask)
	}
}

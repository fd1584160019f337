package sim

// BPred is the branch predictor of Table 1: a 2 KB bimodal (agree-style)
// predictor of 2-bit saturating counters indexed by PC, plus a 32-entry
// return address stack. Prediction and update both happen at fetch, which
// is the usual trace-driven simplification for a bimodal table.
type BPred struct {
	counters []uint8
	mask     uint64

	ras    []uint64
	rasTop int // number of valid entries

	lookups     uint64
	mispredicts uint64
}

// NewBPred builds a predictor with the given table storage (bytes; four
// 2-bit counters per byte) and RAS depth.
func NewBPred(tableBytes, rasEntries int) *BPred {
	n := tableBytes * 4 // 2-bit counters
	if n <= 0 {
		n = 4
	}
	// Round down to a power of two for cheap indexing.
	for n&(n-1) != 0 {
		n &= n - 1
	}
	return &BPred{
		counters: make([]uint8, n),
		mask:     uint64(n - 1),
		ras:      make([]uint64, rasEntries),
	}
}

// Reset clears the counter table, the RAS and the accuracy counters,
// restoring the predictor to its just-constructed state without
// reallocating. RAS entries above rasTop are never consulted, so only
// the top needs resetting for bit-identical behaviour.
func (b *BPred) Reset() {
	clear(b.counters)
	b.rasTop = 0
	b.lookups = 0
	b.mispredicts = 0
}

// PredictBranch predicts the direction of a conditional branch at pc,
// updates the table with the actual outcome, and reports whether the
// prediction was correct.
func (b *BPred) PredictBranch(pc uint64, taken bool) bool {
	b.lookups++
	idx := (pc >> 2) & b.mask
	c := b.counters[idx]
	pred := c >= 2
	if taken && c < 3 {
		b.counters[idx] = c + 1
	} else if !taken && c > 0 {
		b.counters[idx] = c - 1
	}
	if pred != taken {
		b.mispredicts++
		return false
	}
	return true
}

// Call records a call's return address on the RAS. A full RAS wraps,
// overwriting the oldest entry (which later manifests as a return
// misprediction).
func (b *BPred) Call(returnPC uint64) {
	b.lookups++
	if b.rasTop == len(b.ras) {
		copy(b.ras, b.ras[1:])
		b.rasTop--
	}
	b.ras[b.rasTop] = returnPC
	b.rasTop++
}

// Ret pops the RAS and reports whether the predicted return address
// matches the actual target.
func (b *BPred) Ret(target uint64) bool {
	b.lookups++
	if b.rasTop == 0 {
		b.mispredicts++
		return false
	}
	b.rasTop--
	if b.ras[b.rasTop] != target {
		b.mispredicts++
		return false
	}
	return true
}

// Lookups returns the number of predictor accesses.
func (b *BPred) Lookups() uint64 { return b.lookups }

// Mispredicts returns the number of wrong predictions.
func (b *BPred) Mispredicts() uint64 { return b.mispredicts }

// Package sim is a trace-driven, cycle-level out-of-order processor
// timing simulator in the spirit of RSIM (the paper's timing simulator).
//
// The model: an 8-wide front end with a bimodal-agree branch predictor
// and return address stack feeding, after a short pipeline delay, a
// unified instruction window (issue queue + reorder buffer, Section 6.1)
// with a separate physical register file. Instructions issue oldest-first
// to per-class functional units (integer ALUs, FPUs, address-generation
// units), loads and stores flow through a memory queue and a two-ported
// L1D with a finite MSHR file, misses go to an off-chip L2 and then main
// memory with fixed wall-clock latencies (so their cycle cost scales with
// the clock under DVS), and completed instructions retire in order.
//
// Because the simulator is trace-driven, branch mispredictions are
// modelled as fetch stalls from the mispredicted branch until one cycle
// after it resolves (plus the front-end refill depth) rather than by
// executing wrong-path instructions.
//
// Alongside timing, the simulator counts per-structure events and
// converts them into the activity factors that drive the power model and
// RAMP's electromigration model.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"ramp/internal/config"
	"ramp/internal/floorplan"
	"ramp/internal/obs"
	"ramp/internal/trace"
)

const farFuture = math.MaxUint64 / 2

// histLen is the length of the completion-time history; seq%histLen
// indexes it. The history holds one more slot, hist[histLen], which
// nothing writes after Reset clears it: it is the producer slot of an
// operand with no register dependence, so that operand always reads 0,
// "already finished".
const histLen = 2048

// Result summarises one simulated run (or epoch).
type Result struct {
	Cycles  uint64
	Retired uint64

	// TimeSec is Cycles at the configured clock.
	TimeSec float64

	// IPC is Retired/Cycles.
	IPC float64

	// Activity factors per structure, in [0,1]: the utilisation of each
	// structure's per-cycle capacity. These drive dynamic power and the
	// electromigration model.
	Activity [floorplan.NumStructures]float64

	// Diagnostics.
	BranchAccuracy  float64
	L1DMissRate     float64
	L1IMissRate     float64
	L2MissRate      float64
	WindowOccupancy float64 // mean occupied window entries
	FPShare         float64 // fraction of retired instructions that are FP
}

// entry is one instruction-window slot: what issue, memory and retire
// read of the instruction, 32 bytes.
type entry struct {
	addr   uint64 // effective address of a load or store
	seq    uint64
	finish uint64 // cycle the result is available; farFuture until issued
	h1, h2 uint16 // history slots of the producers; histLen = none
	op     trace.Op
	wait   uint8 // operands parked on a waiter list (see Core.cand)
}

// storeRef is one in-window store in the store ring: its sequence
// number and the 8-byte word it writes.
type storeRef struct {
	seq  uint64
	word uint64
}

type fetchedInstr struct {
	instr   trace.Instr
	seq     uint64
	availAt uint64 // cycle the instruction reaches rename
}

// counters collects raw per-structure event counts for one epoch.
type counters struct {
	fetched       uint64
	bpredAccesses uint64
	winDispatch   uint64
	winIssue      uint64
	winRetire     uint64
	intRFReads    uint64
	intRFWrites   uint64
	fpRFReads     uint64
	fpRFWrites    uint64
	intOps        uint64
	aguOps        uint64
	fpOps         uint64
	lsqOps        uint64
	l1iAccesses   uint64
	l1dAccesses   uint64
	occupancySum  uint64
	fpRetired     uint64

	branchLookups0    uint64
	branchWrong0      uint64
	l1dAcc0, l1dMiss0 uint64
	l1iAcc0, l1iMiss0 uint64
	l2Acc0, l2Miss0   uint64
}

// Source produces the dynamic instruction stream a Core executes.
// *trace.Generator is the production implementation.
type Source interface {
	Next(*trace.Instr)
}

// Core is one simulated processor executing one application trace.
type Core struct {
	cfg config.Proc
	gen Source

	cycle uint64
	seq   uint64 // next sequence number to assign at fetch (first is 1)

	// Fetch queue: a fixed-capacity ring buffer (capacity fetchQCap).
	// Fetched instructions are generated directly into the tail slot, so
	// the fetch loop performs no allocation and no copying beyond the
	// generator's own write.
	fq           []fetchedInstr
	fqHead       int
	fqLen        int
	fetchQCap    int
	fetchBlocked uint64 // seq of unresolved mispredicted branch; 0 = none
	fetchStallTo uint64 // cycle until which fetch is stalled (I-miss / redirect)
	lastLine     uint64 // last I-cache line touched (+1; 0 = none)

	bpred *BPred

	// Window.
	win      []entry
	winHead  int
	winCount int
	memQUsed int

	// cand is a bitmap over window slots holding the issue candidates:
	// the unissued entries none of whose operands is parked. Dispatch
	// parks each operand whose history slot reads farFuture on that
	// slot's waiter list (wHead[h] holds the list's first node + 1, 0 =
	// empty; node 2*slot+k is operand k of the entry in slot, and
	// wNext[node] links to the next node + 1) and sets the entry's bit
	// when none is parked. issueOne, the only writer of a finite history
	// value, empties the list of the slot it writes and sets the bit of
	// each waiter left with no parked operand (wake). An entry outside
	// cand therefore always reads farFuture on a parked operand, so issue
	// and skipIdle need visit only cand.
	cand  []uint64
	wHead [histLen]int32
	wNext []int32

	// Store ring: the in-window stores, oldest first. Dispatch pushes,
	// retire pops, and store-to-load forwarding scans only these.
	stores  []storeRef
	stHead  int
	stCount int

	// Completion-time history, indexed by seq. Large enough to cover any
	// dependency distance plus the window.
	hist [histLen + 1]uint64

	// Functional-unit non-pipelined busy tracking.
	intBusyUntil []uint64
	fpBusyUntil  []uint64

	// Memory hierarchy.
	l1d, l1i, l2 *Cache
	dMSHR        *mshrFile
	iMSHR        *mshrFile
	l2Cycles     uint64
	memCycles    uint64

	c counters

	retiredTotal uint64

	// Observability counters (nil = uncounted; see Instrument).
	obsRetired *obs.Counter
	obsCycles  *obs.Counter
}

// Instrument attaches pipeline-wide counters that Run feeds after every
// epoch: instructions retired and cycles simulated. Nil counters (the
// default) cost a nil-check no-op per epoch, nothing per cycle.
func (c *Core) Instrument(retired, cycles *obs.Counter) {
	c.obsRetired = retired
	c.obsCycles = cycles
}

// New builds a core for cfg running the given source's trace.
func New(cfg config.Proc, gen Source) (*Core, error) {
	c := &Core{}
	if err := c.Reset(cfg, gen); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset reinitialises the core in place for a (possibly different)
// configuration and trace source, producing a core whose subsequent
// behaviour is bit-identical to a freshly constructed one. Buffers are
// reused whenever they are large enough (the instruction window, its
// candidate bitmap and waiter links, the store ring and the fetch ring)
// or their shape is unchanged (the
// functional-unit trackers, caches, MSHR files and branch predictor), so
// they keep their allocations across evaluations of different
// applications and configurations and pooled cores make steady-state
// evaluation allocation-free. Observability counters attached with
// Instrument survive a Reset (re-attach to change them).
func (c *Core) Reset(cfg config.Proc, gen Source) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	old := c.cfg
	c.cfg = cfg
	c.gen = gen

	c.cycle = 0
	c.seq = 0
	c.fetchBlocked = 0
	c.fetchStallTo = 0
	c.lastLine = 0
	c.winHead = 0
	c.winCount = 0
	c.memQUsed = 0
	c.retiredTotal = 0
	c.c = counters{}
	clear(c.hist[:]) // everything "already finished" before the run
	clear(c.wHead[:])

	c.fetchQCap = cfg.FetchWidth * (cfg.FrontLatency + 2)
	c.fq = resize(c.fq, c.fetchQCap)
	c.fqHead, c.fqLen = 0, 0
	c.win = resize(c.win, cfg.WindowSize)
	c.cand = resize(c.cand, (cfg.WindowSize+63)/64)
	clear(c.cand)
	c.wNext = resize(c.wNext, 2*cfg.WindowSize)
	c.stores = resize(c.stores, cfg.WindowSize)
	c.stHead, c.stCount = 0, 0

	if c.bpred == nil || old.BPredBytes != cfg.BPredBytes || old.RASEntries != cfg.RASEntries {
		c.bpred = NewBPred(cfg.BPredBytes, cfg.RASEntries)
	} else {
		c.bpred.Reset()
	}
	if len(c.intBusyUntil) != cfg.IntALUs {
		c.intBusyUntil = make([]uint64, cfg.IntALUs)
	} else {
		clear(c.intBusyUntil)
	}
	if len(c.fpBusyUntil) != cfg.FPUs {
		c.fpBusyUntil = make([]uint64, cfg.FPUs)
	} else {
		clear(c.fpBusyUntil)
	}
	c.l1d = resetCache(c.l1d, old.L1D, cfg.L1D)
	c.l1i = resetCache(c.l1i, old.L1I, cfg.L1I)
	c.l2 = resetCache(c.l2, old.L2, cfg.L2)
	if c.dMSHR == nil {
		c.dMSHR = newMSHRFile(cfg.L1D.MSHRs)
	} else {
		c.dMSHR.reset(cfg.L1D.MSHRs)
	}
	if c.iMSHR == nil {
		c.iMSHR = newMSHRFile(cfg.L1I.MSHRs)
	} else {
		c.iMSHR.reset(cfg.L1I.MSHRs)
	}
	c.l2Cycles = uint64(math.Ceil(cfg.L2.HitLatencySec * cfg.FreqHz))
	c.memCycles = uint64(math.Ceil(cfg.MemLatencySec * cfg.FreqHz))
	return nil
}

// resize returns s resliced to length n, reallocating only when its
// capacity is too small.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resetCache reuses c when the geometry is unchanged, else builds a
// fresh cache.
func resetCache(c *Cache, old, next config.CacheConfig) *Cache {
	if c == nil || old != next {
		return NewCache(next)
	}
	c.Reset()
	return c
}

// SetOperatingPoint changes the clock and supply voltage between epochs
// (dynamic voltage and frequency scaling). Microarchitectural and cache
// state is preserved — only the cycle cost of the fixed-wall-clock
// off-chip latencies changes. Latencies of requests already in flight
// keep their old cycle counts, which mirrors a real DVS transition
// closely enough at epoch granularity.
func (c *Core) SetOperatingPoint(freqHz, vddV float64) {
	c.cfg.FreqHz = freqHz
	c.cfg.VddV = vddV
	c.l2Cycles = uint64(math.Ceil(c.cfg.L2.HitLatencySec * freqHz))
	c.memCycles = uint64(math.Ceil(c.cfg.MemLatencySec * freqHz))
}

// Run simulates until at least n more instructions retire and returns
// the stats for that span (whole cycles complete, so the span may
// overshoot n by up to RetireWidth-1 instructions). Microarchitectural
// and cache state carries over between calls, so consecutive calls
// behave like consecutive epochs of one long run.
//
//ramp:hot
func (c *Core) Run(n uint64) Result {
	if n == 0 {
		return Result{}
	}
	startCycle := c.cycle
	target := c.retiredTotal + n
	c.snapshotDiagBases()

	maxCycles := c.cycle + n*200 + 1_000_000 // deadlock guard
	for c.retiredTotal < target {
		c.step()
		if c.cycle > maxCycles {
			panic(fmt.Sprintf("sim: no forward progress after %d cycles (retired %d of %d)",
				c.cycle-startCycle, c.retiredTotal, target))
		}
	}
	res := c.makeResult(startCycle)
	c.obsRetired.Add(int64(res.Retired))
	c.obsCycles.Add(int64(res.Cycles))
	return res
}

// step advances the core by one cycle and, if that cycle changed no
// state, on past every following cycle that could not change any either
// (see skipIdle). A cycle changes state when it retires, issues,
// dispatches or fetches an instruction, or when fetch blocks, unblocks or
// stalls; the redirect after a mispredicted branch resolves moves no
// counter, so fetchBlocked and fetchStallTo are compared directly.
//
//ramp:hot
func (c *Core) step() {
	work := c.c.winRetire + c.c.winIssue + c.c.winDispatch + c.c.fetched
	blocked, stallTo := c.fetchBlocked, c.fetchStallTo
	c.retire()
	c.issue()
	c.dispatch()
	c.fetch()
	c.c.occupancySum += uint64(c.winCount)
	c.cycle++
	if work == c.c.winRetire+c.c.winIssue+c.c.winDispatch+c.c.fetched &&
		blocked == c.fetchBlocked && stallTo == c.fetchStallTo {
		c.skipIdle()
	}
}

// skipIdle fast-forwards the clock over cycles in which no stage can act.
// It runs after a cycle that changed no state. With the state frozen, a
// stage's decisions depend on the clock only through comparisons against
// the cycles gathered below: the head's finish (retire), the issue
// candidates' operand-ready cycles, the functional units' busy-until cycles
// and the L1D MSHR fills (issue), the fetch-queue head's arrival
// (dispatch), and the fetch stall and blocking branch's finish (fetch).
// Every cycle before the earliest of them would repeat the idle cycle
// exactly, so the clock jumps there and the window occupancy is credited
// for the cycles skipped. Results are bit-identical to stepping.
//
// The one effect an idle cycle has is pruning completed L1D MSHRs when a
// load finds the file full. Pruning is idempotent and every outstanding
// fill bounds the jump, so no fill completes inside a skipped span and
// the next executed cycle prunes exactly what the skipped ones would
// have. An entry outside the candidates reads farFuture on a parked
// operand, which bounds nothing. When no event is left at all the core
// is deadlocked; it then steps normally, so Run's forward-progress guard
// still fires.
//
//ramp:hot
func (c *Core) skipIdle() {
	now := c.cycle
	next := uint64(farFuture)
	if c.winCount > 0 {
		next = earliest(now, c.win[c.winHead].finish, next)
	}
	for wi, w := range c.cand {
		for ; w != 0; w &= w - 1 {
			e := &c.win[wi<<6|bits.TrailingZeros64(w)]
			next = earliest(now, max(c.hist[e.h1], c.hist[e.h2]), next)
		}
	}
	for _, b := range c.intBusyUntil {
		next = earliest(now, b, next)
	}
	for _, b := range c.fpBusyUntil {
		next = earliest(now, b, next)
	}
	for _, r := range c.dMSHR.ready {
		next = earliest(now, r, next)
	}
	if c.fqLen > 0 {
		next = earliest(now, c.fq[c.fqHead].availAt, next)
	}
	next = earliest(now, c.fetchStallTo, next)
	if c.fetchBlocked != 0 {
		next = earliest(now, c.hist[c.fetchBlocked%histLen], next)
	}
	if next > now && next < farFuture {
		c.c.occupancySum += uint64(c.winCount) * (next - now)
		c.cycle = next
	}
}

// earliest returns t if it lies in [now, next), else next.
//
//ramp:hot
func earliest(now, t, next uint64) uint64 {
	if t >= now && t < next {
		return t
	}
	return next
}

// ---- Retire ----

//ramp:hot
func (c *Core) retire() {
	for k := 0; k < c.cfg.RetireWidth && c.winCount > 0; k++ {
		e := &c.win[c.winHead]
		if e.finish > c.cycle { // unissued entries finish at farFuture
			return
		}
		if e.op.IsMem() {
			c.memQUsed--
		}
		if e.op == trace.Store {
			if c.stHead++; c.stHead == len(c.stores) {
				c.stHead = 0
			}
			c.stCount--
		}
		if e.op.IsFP() {
			c.c.fpRetired++
		}
		c.c.winRetire++
		if c.winHead++; c.winHead == len(c.win) {
			c.winHead = 0
		}
		c.winCount--
		c.retiredTotal++
	}
}

// ---- Issue ----

// issueSlots counts the issue resources still free this cycle.
type issueSlots struct {
	intALU, fpu, agu, dPorts int
}

// free reports whether a unit of op's class is still free: an address
// unit and an L1D port for a load or store, an FPU for an FP op, and an
// integer ALU for the rest.
func (s *issueSlots) free(op trace.Op) bool {
	switch {
	case op.IsMem():
		return s.agu > 0 && s.dPorts > 0
	case op.IsFP():
		return s.fpu > 0
	}
	return s.intALU > 0
}

// issue visits the candidates oldest first, from the window head round
// to the slot before it, and issues every entry whose operands are ready
// and whose resources are free, in the order a walk of every unissued
// entry would. An entry woken by an issue in the same cycle can be ready
// in it only when that issue's latency is zero; the walk then re-reads
// the current word (later words are read when it reaches them), so it
// visits that entry too.
//
//ramp:hot
func (c *Core) issue() {
	s := issueSlots{
		intALU: c.freeUnits(c.intBusyUntil),
		fpu:    c.freeUnits(c.fpBusyUntil),
		agu:    c.cfg.AGUs,
		dPorts: c.cfg.L1D.Ports,
	}
	head := c.winHead & 63
	wi := c.winHead >> 6
	mask := ^uint64(0) << head // the head's word, from the head up
	for k := 0; k <= len(c.cand); k++ {
		if k == len(c.cand) {
			mask = 1<<head - 1 // back in the head's word, below the head
		}
		for w := c.cand[wi] & mask; w != 0; {
			if s.intALU == 0 && s.fpu == 0 && (s.agu == 0 || s.dPorts == 0) {
				return
			}
			b := bits.TrailingZeros64(w)
			w &= w - 1
			e := &c.win[wi<<6|b]
			if max(c.hist[e.h1], c.hist[e.h2]) <= c.cycle && s.free(e.op) && c.issueOne(e, &s) {
				c.cand[wi] &^= 1 << b
				if e.finish <= c.cycle {
					w = c.cand[wi] & mask & (^uint64(0) << b)
				}
			}
		}
		if wi++; wi == len(c.cand) {
			wi = 0
		}
		mask = ^uint64(0)
	}
}

// issueOne issues the operand-ready entry e, whose class has a free
// unit in s (issueSlots.free), takes the unit and completes e: it
// records e's finish cycle in the window and the history and wakes the
// operands parked on e's history slot. It reports false, and changes
// nothing but the MSHR file's completed fills, when a load misses with
// every L1D MSHR busy.
//
//ramp:hot
func (c *Core) issueOne(e *entry, s *issueSlots) bool {
	op := e.op
	var lat uint64
	switch {
	case op.IsMem():
		var ok bool
		if lat, ok = c.memLatency(e); !ok {
			return false // MSHRs full; retry next cycle
		}
		s.agu--
		s.dPorts--
		c.c.aguOps++
		c.c.lsqOps++
		c.c.l1dAccesses++
		c.c.intRFReads += 2
		if op == trace.Load {
			c.c.intRFWrites++
		}
	case op.IsFP():
		s.fpu--
		c.c.fpOps++
		c.c.fpRFReads += 2
		c.c.fpRFWrites++
		lat = uint64(c.cfg.FPLat)
		if op == trace.FPDiv {
			lat = uint64(c.cfg.FPDivLat)
			c.occupyUnit(c.fpBusyUntil, c.cycle+lat)
		}
	default: // integer ALU ops and branches
		s.intALU--
		c.c.intOps++
		c.c.intRFReads += 2
		lat = uint64(c.cfg.IntAddLat)
		switch op {
		case trace.IntMul:
			lat = uint64(c.cfg.IntMulLat)
		case trace.IntDiv:
			lat = uint64(c.cfg.IntDivLat)
			c.occupyUnit(c.intBusyUntil, c.cycle+lat)
		}
		if !op.IsBranch() {
			c.c.intRFWrites++
		}
	}
	// Complete: publish the result cycle and wake e's consumers. Kept
	// inline: as a function it exceeds Go's inlining budget, and a call
	// per issued instruction measured slower.
	e.finish = c.cycle + lat
	h := e.seq % histLen
	c.hist[h] = e.finish
	if c.wHead[h] != 0 {
		c.wake(h)
	}
	c.c.winIssue++
	return true
}

// wake empties history slot h's waiter list and makes a candidate of
// each waiter left with no parked operand.
func (c *Core) wake(h uint64) {
	for n := c.wHead[h]; n != 0; n = c.wNext[n-1] {
		slot := (n - 1) >> 1
		w := &c.win[slot]
		if w.wait--; w.wait == 0 {
			c.cand[slot>>6] |= 1 << (slot & 63)
		}
	}
	c.wHead[h] = 0
}

func (c *Core) freeUnits(busy []uint64) int {
	n := 0
	for _, b := range busy {
		if b <= c.cycle {
			n++
		}
	}
	return n
}

func (c *Core) occupyUnit(busy []uint64, until uint64) {
	for i, b := range busy {
		if b <= c.cycle {
			busy[i] = until
			return
		}
	}
}

// memLatency returns the completion latency for a memory op, or ok=false
// if it cannot start this cycle (MSHRs exhausted).
func (c *Core) memLatency(e *entry) (uint64, bool) {
	addr := e.addr
	hitLat := uint64(c.cfg.L1D.HitLatencyCycles)
	if e.op == trace.Store {
		// Stores drain through a store buffer: they update cache state and
		// complete quickly without holding an MSHR. This keeps them off
		// the critical path, as in the paper's base machine.
		if !c.l1d.Access(addr, true) {
			c.l2.Access(addr, true)
		}
		return hitLat, true
	}
	// Store-to-load forwarding: an older in-flight store to the same
	// 8-byte word satisfies the load at hit latency.
	if c.forwardFromStore(e) {
		c.l1d.Access(addr, true) // still occupies the port and warms the line
		return hitLat, true
	}
	if c.l1d.Contains(addr) {
		c.l1d.Access(addr, true)
		return hitLat, true
	}
	line := c.l1d.Line(addr)
	if ready, ok := c.dMSHR.lookup(line); ok {
		// Coalesce with the outstanding miss.
		c.l1d.Access(addr, true)
		if ready <= c.cycle {
			return hitLat, true
		}
		return ready - c.cycle + hitLat, true
	}
	if c.dMSHR.full(c.cycle) {
		return 0, false // cannot even start the miss; retry next cycle
	}
	c.l1d.Access(addr, true) // records the miss and installs the line
	var missLat uint64
	if c.l2.Access(addr, true) {
		missLat = c.l2Cycles
	} else {
		missLat = c.memCycles
	}
	c.dMSHR.add(line, c.cycle+missLat)
	return missLat + hitLat, true
}

// forwardFromStore reports whether a store older than load and still in
// the window writes the same 8-byte word.
//
//ramp:hot
func (c *Core) forwardFromStore(load *entry) bool {
	word := load.addr &^ 7
	for k, i := 0, c.stHead; k < c.stCount; k++ {
		st := &c.stores[i]
		if st.seq >= load.seq {
			break
		}
		if st.word == word {
			return true
		}
		if i++; i == len(c.stores) {
			i = 0
		}
	}
	return false
}

// ---- Dispatch (rename) ----

//ramp:hot
func (c *Core) dispatch() {
	for k := 0; k < c.cfg.FetchWidth; k++ {
		if c.fqLen == 0 || c.winCount == len(c.win) {
			return
		}
		f := &c.fq[c.fqHead]
		if f.availAt > c.cycle {
			return
		}
		if f.instr.Op.IsMem() && c.memQUsed >= c.cfg.MemQueueSize {
			return
		}
		idx := c.winHead + c.winCount
		if idx >= len(c.win) {
			idx -= len(c.win)
		}
		in := &f.instr
		h1, h2 := uint16(histLen), uint16(histLen)
		if d := in.Dep1; d > 0 && uint64(d) < f.seq {
			h1 = uint16((f.seq - uint64(d)) % histLen)
		}
		if d := in.Dep2; d > 0 && uint64(d) < f.seq {
			h2 = uint16((f.seq - uint64(d)) % histLen)
		}
		// Mark the instruction's own slot in flight before reading its
		// operands', so an operand aliasing it parks and never wakes.
		c.hist[f.seq%histLen] = farFuture
		var wait uint8
		if c.hist[h1] == farFuture {
			c.park(h1, 2*idx)
			wait++
		}
		if c.hist[h2] == farFuture {
			c.park(h2, 2*idx+1)
			wait++
		}
		c.win[idx] = entry{addr: in.Addr, seq: f.seq, finish: farFuture, h1: h1, h2: h2, op: in.Op, wait: wait}
		if wait == 0 {
			c.cand[idx>>6] |= 1 << (idx & 63)
		}
		c.winCount++
		if in.Op.IsMem() {
			c.memQUsed++
			c.c.lsqOps++
		}
		if in.Op == trace.Store {
			st := c.stHead + c.stCount
			if st >= len(c.stores) {
				st -= len(c.stores)
			}
			c.stores[st] = storeRef{seq: f.seq, word: in.Addr &^ 7}
			c.stCount++
		}
		c.c.winDispatch++
		if c.fqHead++; c.fqHead == len(c.fq) {
			c.fqHead = 0
		}
		c.fqLen--
	}
}

// park adds waiter node to history slot h's list.
func (c *Core) park(h uint16, node int) {
	c.wNext[node] = c.wHead[h]
	c.wHead[h] = int32(node + 1)
}

// ---- Fetch ----

// fetch generates up to FetchWidth instructions directly into the fetch
// ring's tail slots. Writing through the slot pointer (rather than a
// local trace.Instr passed through the Source interface) keeps the per
// instruction generator handoff off the heap: this loop runs once per
// fetched instruction and performs zero allocations.
//
//ramp:hot
func (c *Core) fetch() {
	if c.cycle < c.fetchStallTo {
		return
	}
	if c.fetchBlocked != 0 {
		fin := c.hist[c.fetchBlocked%histLen]
		if fin > c.cycle {
			return
		}
		// Redirect: fetch resumes next cycle.
		c.fetchBlocked = 0
		c.fetchStallTo = c.cycle + 1
		return
	}
	for k := 0; k < c.cfg.FetchWidth; k++ {
		if c.fqLen >= c.fetchQCap {
			return
		}
		tail := c.fqHead + c.fqLen
		if tail >= len(c.fq) {
			tail -= len(c.fq)
		}
		slot := &c.fq[tail]
		in := &slot.instr
		c.gen.Next(in)
		c.seq++
		slot.seq = c.seq
		slot.availAt = c.cycle + uint64(c.cfg.FrontLatency)
		// Mark the instruction in flight from fetch onwards, so a
		// mispredicted branch blocks fetch until it actually executes
		// (not until its stale history slot is consulted).
		c.hist[c.seq%histLen] = farFuture
		c.c.fetched++

		// I-cache: account one access per new line touched.
		line := c.l1i.Line(in.PC) + 1
		if line != c.lastLine {
			c.lastLine = line
			c.c.l1iAccesses++
			if !c.l1i.Access(in.PC, true) {
				var lat uint64
				il := c.l1i.Line(in.PC)
				if ready, ok := c.iMSHR.lookup(il); ok && ready > c.cycle {
					lat = ready - c.cycle
				} else if c.l2.Access(in.PC, true) {
					lat = c.l2Cycles
				} else {
					lat = c.memCycles
				}
				if !c.iMSHR.full(c.cycle) {
					c.iMSHR.add(il, c.cycle+lat)
				}
				c.fetchStallTo = c.cycle + lat
				// The missing instruction reaches rename only after the fill.
				slot.availAt = c.fetchStallTo + uint64(c.cfg.FrontLatency)
				c.fqLen++
				return
			}
		}

		op := in.Op
		if op.IsBranch() {
			c.c.bpredAccesses++
			correct := true
			switch op {
			case trace.Branch:
				correct = c.bpred.PredictBranch(in.PC, in.Taken)
			case trace.Call:
				c.bpred.Call(in.PC + 4)
			case trace.Ret:
				correct = c.bpred.Ret(in.Target)
			}
			c.fqLen++
			if !correct {
				c.fetchBlocked = c.seq
				return
			}
			if in.Taken {
				// Fetch group ends at a predicted-taken branch.
				return
			}
			continue
		}
		c.fqLen++
	}
}

// ---- Stats ----

func (c *Core) snapshotDiagBases() {
	c.c = counters{
		branchLookups0: c.bpred.Lookups(),
		branchWrong0:   c.bpred.Mispredicts(),
		l1dAcc0:        c.l1d.Accesses(), l1dMiss0: c.l1d.Misses(),
		l1iAcc0: c.l1i.Accesses(), l1iMiss0: c.l1i.Misses(),
		l2Acc0: c.l2.Accesses(), l2Miss0: c.l2.Misses(),
	}
}

func (c *Core) makeResult(startCycle uint64) Result {
	cycles := c.cycle - startCycle
	if cycles == 0 {
		cycles = 1
	}
	fc := float64(cycles)
	cc := &c.c
	retired := cc.winRetire

	var r Result
	r.Cycles = cycles
	r.Retired = retired
	r.TimeSec = fc / c.cfg.FreqHz
	r.IPC = float64(retired) / fc

	iw := float64(c.cfg.IssueWidth())
	act := func(events uint64, perCycle float64) float64 {
		if perCycle <= 0 {
			return 0
		}
		a := float64(events) / (fc * perCycle)
		if a > 1 {
			a = 1
		}
		return a
	}
	r.Activity[floorplan.Fetch] = act(cc.fetched, float64(c.cfg.FetchWidth))
	r.Activity[floorplan.BPred] = act(cc.bpredAccesses, 2)
	r.Activity[floorplan.Window] = act(cc.winDispatch+cc.winIssue+cc.winRetire,
		float64(c.cfg.FetchWidth+c.cfg.RetireWidth)+iw)
	r.Activity[floorplan.IntRF] = act(cc.intRFReads+cc.intRFWrites,
		3*float64(c.cfg.IntALUs+c.cfg.AGUs))
	r.Activity[floorplan.FPRF] = act(cc.fpRFReads+cc.fpRFWrites, 3*float64(c.cfg.FPUs))
	r.Activity[floorplan.IntALU] = act(cc.intOps, float64(c.cfg.IntALUs))
	r.Activity[floorplan.AGU] = act(cc.aguOps, float64(c.cfg.AGUs))
	r.Activity[floorplan.FPU] = act(cc.fpOps, float64(c.cfg.FPUs))
	r.Activity[floorplan.LSQ] = act(cc.lsqOps, 4)
	r.Activity[floorplan.L1I] = act(cc.l1iAccesses, 2)
	r.Activity[floorplan.L1D] = act(cc.l1dAccesses, float64(c.cfg.L1D.Ports))

	lookups := c.bpred.Lookups() - cc.branchLookups0
	if lookups > 0 {
		r.BranchAccuracy = 1 - float64(c.bpred.Mispredicts()-cc.branchWrong0)/float64(lookups)
	} else {
		r.BranchAccuracy = 1
	}
	r.L1DMissRate = missRate(c.l1d.Accesses()-cc.l1dAcc0, c.l1d.Misses()-cc.l1dMiss0)
	r.L1IMissRate = missRate(c.l1i.Accesses()-cc.l1iAcc0, c.l1i.Misses()-cc.l1iMiss0)
	r.L2MissRate = missRate(c.l2.Accesses()-cc.l2Acc0, c.l2.Misses()-cc.l2Miss0)
	r.WindowOccupancy = float64(cc.occupancySum) / fc
	if retired > 0 {
		r.FPShare = float64(cc.fpRetired) / float64(retired)
	}
	return r
}

func missRate(acc, miss uint64) float64 {
	if acc == 0 {
		return 0
	}
	return float64(miss) / float64(acc)
}

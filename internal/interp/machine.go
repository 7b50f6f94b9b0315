// Package interp is the DFENCE execution engine: a small-step interpreter
// for the IR of package ir running under a pluggable relaxed memory model
// (package memmodel). It is the from-scratch replacement for the paper's
// extended LLVM interpreter (lli): it supports user-level threads
// (fork/join/self), per-thread store buffers for TSO and PSO, scheduler-
// driven flush transitions, memory-safety checking, operation history
// recording, and an observation hook used by the fence synthesizer.
//
// The interpreter exposes individual transitions (StepThread, FlushOne) so
// that a demonic scheduler (package sched) fully controls interleaving and
// flush timing, exactly as in the paper's architecture. RunLocal runs the
// steps the scheduler's partial-order reduction grants one pick in a
// single call.
//
// Executions run over a Compiled program (see Compile): branch targets and
// callees are pre-resolved to array indices, so the step loop performs no
// map lookups. A Machine is reusable: Reset re-arms it for the next
// execution while retaining every internal buffer (memory image, thread
// and frame pools, register slices, history), which makes the per-
// execution hot path allocation-free after warm-up. Results produced by a
// Machine alias its internal buffers — they are valid only until the next
// Reset of the same Machine.
package interp

import (
	"fmt"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

// frame is one activation record. Registers are not stored here: they
// live in the owning thread's flat register arena, and the frame holds
// only its [base, base+nregs) window — frames are pointer-light (one
// *cfunc into the compiled program) and a thread's whole call stack sits
// in two contiguous slices.
type frame struct {
	fn     *cfunc
	base   int32  // first register slot in the thread's arena
	nregs  int32  // register count (== fn.numRegs)
	pc     int    // index into fn.code
	retDst ir.Reg // caller register receiving the return value (NoReg: dropped)
	isOp   bool   // operation frame: its return emits an EventResponse
}

// DeferredLoad is a shared load whose read of memory has been issued but
// not yet performed — the operational form of load-load/load-store
// relaxation under models with memmodel.Model.DefersLoads. The scheduler
// resolves deferred loads in any order (ResolveOne); the resolution order
// is the effective read order, so resolving out of program order *is* the
// reordering. While deferred, the issuing thread holds no buffered store
// to Addr (a buffered store would have been forwarded at issue), so
// resolution reads main memory directly.
type DeferredLoad struct {
	Label ir.Label
	Addr  int64
	Dst   ir.Reg
}

// Thread is one user-level thread, mirroring the paper's ThreadStacks map:
// a thread identifier owning a list of execution contexts plus its store
// buffers and (under load-deferring models) its pending-load queue.
//
// Threads are stored by value in the machine's thread table
// (struct-of-arrays layout): the store buffers are embedded rather than
// heap-allocated, every frame's registers live in the thread's flat regs
// arena, and a retired thread slot keeps all its backing storage for the
// next execution — so steady-state runs hold per-thread state in a few
// contiguous allocations the garbage collector never has to trace
// per-frame.
type Thread struct {
	ID      int
	frames  []frame
	regs    []int64 // register arena; frames hold [base, base+nregs) windows
	buf     memmodel.Buffers
	defq    []DeferredLoad // issued-but-unresolved shared loads, issue order
	opDepth int            // >0 while executing inside an operation
}

// Finished reports whether the thread has run to completion. Its buffers
// may still hold pending stores; the JOIN rule additionally requires the
// buffers to drain (paper Semantics 1).
func (t *Thread) Finished() bool { return len(t.frames) == 0 }

// Buffers exposes the thread's store buffers (read-only use intended).
func (t *Thread) Buffers() *memmodel.Buffers { return &t.buf }

// DeferredLoads exposes the thread's pending-load queue in issue order.
// The slice aliases internal state — valid until the thread's next step.
func (t *Thread) DeferredLoads() []DeferredLoad { return t.defq }

// top returns the active frame.
func (t *Thread) top() *frame { return &t.frames[len(t.frames)-1] }

// frameRegs returns fr's register window into the thread's arena. The
// view is invalidated by pushFrame (arena growth may move the backing).
func (t *Thread) frameRegs(fr *frame) []int64 {
	return t.regs[fr.base : int(fr.base)+int(fr.nregs)]
}

// pushFrame appends an activation of fn, carving (and zeroing) its
// register window out of the arena, and returns the new frame. Any
// previously obtained frame pointer or register view may be invalidated
// (both the frame slice and the arena can grow).
func (t *Thread) pushFrame(fn *cfunc, retDst ir.Reg, isOp bool) *frame {
	base := len(t.regs)
	need := base + fn.numRegs
	if need <= cap(t.regs) {
		t.regs = t.regs[:need]
		clear(t.regs[base:])
	} else {
		grown := make([]int64, need, 2*need+8)
		copy(grown, t.regs)
		t.regs = grown
	}
	t.frames = append(t.frames, frame{
		fn:     fn,
		base:   int32(base),
		nregs:  int32(fn.numRegs),
		retDst: retDst,
		isOp:   isOp,
	})
	return &t.frames[len(t.frames)-1]
}

// popFrame retires the active frame, returning its register window to
// the arena (stack discipline: the window is always the arena's tail).
func (t *Thread) popFrame() {
	fr := t.top()
	t.regs = t.regs[:fr.base]
	t.frames = t.frames[:len(t.frames)-1]
}

// Machine executes one program run. It is not safe for concurrent use.
// The zero Machine is ready for Reset; NewMachine compiles and resets in
// one step. A Machine may be reused for any number of executions via
// Reset — each Reset retains the pooled internals, so steady-state
// executions allocate (almost) nothing.
type Machine struct {
	c     *Compiled
	model memmodel.Model
	obs   Observer

	mem      []int64
	units    unitTracker
	threads  []Thread // by value: thread state is machine-owned (SoA)
	history  []Event
	output   []int64
	steps    int
	violated *Violation
	exitCode int64
	touched  uint64 // bitmask of watched fences executed (CompileWatched)

	// Scratch, retained across Reset. Retired Thread slots beyond
	// len(m.threads) keep their frame, register-arena, buffer, and queue
	// storage and are revived in place by newThread; argBlocks backs
	// history-event argument slices; pendScratch and entScratch back the
	// observation hook.
	argBlocks   [][]int64
	argCur      int
	pendScratch []PendingStore
	entScratch  []memmodel.Entry
	useScratch  []ir.Reg // backing for forced-resolve use-set scans
}

// heapGap is the number of unaddressable guard words placed between
// allocations so that small overflows land outside every unit and are
// caught (a strengthening over contiguous layout; detection-only, no
// semantic effect).
const heapGap = 1

// NewMachine prepares an execution of prog under the given memory model.
// prog must be linked. obs may be nil. It compiles prog on the spot; batch
// callers should Compile once and Reset a pooled Machine instead.
func NewMachine(prog *ir.Program, model memmodel.Model, obs Observer) *Machine {
	m := &Machine{}
	m.Reset(Compile(prog), model, obs)
	return m
}

// Reset re-arms the machine for a fresh execution of c under the given
// model. All internal buffers are retained and reused; any Result (and its
// History/Output slices) obtained from the machine before the Reset is
// invalidated. The zero Machine may be Reset.
func (m *Machine) Reset(c *Compiled, model memmodel.Model, obs Observer) {
	m.c = c
	m.model = model
	m.obs = obs
	m.steps = 0
	m.violated = nil
	m.exitCode = 0
	m.touched = 0
	m.history = m.history[:0]
	m.output = m.output[:0]
	m.resetArgs()
	m.units.units = m.units.units[:0]

	// Retire every thread of the previous run: slots beyond the length
	// keep their storage and are revived in place by newThread.
	m.threads = m.threads[:0]

	size := c.prog.GlobalsSize()
	if int64(cap(m.mem)) >= size {
		m.mem = m.mem[:size]
		clear(m.mem)
	} else {
		m.mem = make([]int64, size)
	}
	for _, g := range c.prog.Globals {
		m.units.add(g.Addr, g.Size)
		copy(m.mem[g.Addr:g.Addr+g.Size], g.Init)
	}
	entry := &c.funcs[c.entry]
	main := m.newThread()
	main.pushFrame(entry, ir.NoReg, false)
}

// CopyFrom makes m an independent copy of src's execution state — the
// compiled program, model and observer, memory image, live units,
// output, step count, violation, exit code, watched-fence bits, history,
// and every thread's frames, registers, store buffers, deferred loads
// and operation depth — so that any transition sequence applied to
// either machine from now on behaves exactly as on the other. Like
// Reset, it refills m's pooled storage in place: copying between
// machines of the same program stops allocating once m has held src's
// high-water mark. History arguments are copied into m's own argument
// arena (src's arena is reused by its next Reset or CopyFrom); the
// Violation, immutable once raised, is shared.
func (m *Machine) CopyFrom(src *Machine) {
	m.c = src.c
	m.model = src.model
	m.obs = src.obs
	m.mem = append(m.mem[:0], src.mem...)
	m.units.units = append(m.units.units[:0], src.units.units...)
	m.output = append(m.output[:0], src.output...)
	m.steps = src.steps
	m.violated = src.violated
	m.exitCode = src.exitCode
	m.touched = src.touched

	m.resetArgs()
	m.history = append(m.history[:0], src.history...)
	for i := range m.history {
		if e := &m.history[i]; len(e.Args) > 0 {
			args := m.allocArgs(len(e.Args))
			copy(args, e.Args)
			e.Args = args
		}
	}

	m.threads = m.threads[:0]
	for i := range src.threads {
		t, s := m.newThread(), &src.threads[i]
		t.frames = append(t.frames, s.frames...)
		t.regs = append(t.regs, s.regs...)
		t.buf.CopyFrom(&s.buf)
		t.defq = append(t.defq, s.defq...)
		t.opDepth = s.opDepth
	}
}

// newThread appends a thread (id = its table index) with empty buffers
// under the current model, reviving a retired slot's storage when one is
// available. Growing the table may move it: every *Thread (and frame or
// register view derived from one) obtained earlier is invalidated.
func (m *Machine) newThread() *Thread {
	if len(m.threads) < cap(m.threads) {
		m.threads = m.threads[:len(m.threads)+1]
	} else {
		m.threads = append(m.threads, Thread{})
	}
	t := &m.threads[len(m.threads)-1]
	t.ID = len(m.threads) - 1
	t.frames = t.frames[:0]
	t.regs = t.regs[:0]
	t.defq = t.defq[:0]
	t.opDepth = 0
	t.buf.Reset(m.model)
	return t
}

// resetArgs empties the argument arena, keeping every block.
func (m *Machine) resetArgs() {
	for i := range m.argBlocks {
		m.argBlocks[i] = m.argBlocks[i][:0]
	}
	m.argCur = 0
}

// allocArgs carves an n-word slice out of the machine's argument arena
// (history-event arguments live until the next Reset, not until frame pop,
// so they cannot share the register pool). The arena is chunked: a full
// block is sealed and the next pooled block activated, so growth never
// abandons storage — every block survives Reset, and an execution stream
// whose arg high-water mark has been reached stops allocating entirely.
func (m *Machine) allocArgs(n int) []int64 {
	if n == 0 {
		return nil
	}
	for {
		if m.argCur < len(m.argBlocks) {
			b := m.argBlocks[m.argCur]
			if off := len(b); off+n <= cap(b) {
				b = b[: off+n : off+n]
				m.argBlocks[m.argCur] = b
				return b[off:]
			}
			m.argCur++
			continue
		}
		grow := 256
		if n > grow {
			grow = n
		}
		m.argBlocks = append(m.argBlocks, make([]int64, 0, grow))
	}
}

// NumThreads returns the number of live threads (ids are 0..n-1).
func (m *Machine) NumThreads() int { return len(m.threads) }

// Thread returns thread tid. The pointer aliases the machine's thread
// table: it is valid until the next fork or Reset (both may move the
// table) and must not be retained across steps.
func (m *Machine) Thread(tid int) *Thread { return &m.threads[tid] }

// Steps returns the number of transitions taken so far.
func (m *Machine) Steps() int { return m.steps }

// Violation returns the first violation, or nil.
func (m *Machine) Violation() *Violation { return m.violated }

// History returns the operation history recorded so far.
func (m *Machine) History() []Event { return m.history }

// Output returns the values printed so far.
func (m *Machine) Output() []int64 { return m.output }

// ExitCode returns main's return value.
func (m *Machine) ExitCode() int64 { return m.exitCode }

// Done reports whether the execution has ended: a violation occurred, or
// every thread finished with drained buffers and no unresolved loads (a
// finished thread's queue is empty by construction — OpRet resolves all —
// but Done checks it anyway to keep the invariant observable).
func (m *Machine) Done() bool {
	if m.violated != nil {
		return true
	}
	for i := range m.threads {
		t := &m.threads[i]
		if !t.Finished() || !t.buf.Empty() || len(t.defq) > 0 {
			return false
		}
	}
	return true
}

// CanExec reports whether thread tid can execute its next instruction
// right now (it has one, and any join it is blocked on has become ready).
// A thread whose next instruction is a fence or CAS with pending buffered
// stores can still "execute": its step is a forced flush.
func (m *Machine) CanExec(tid int) bool {
	t := &m.threads[tid]
	if t.Finished() {
		return false
	}
	in := m.current(t)
	if in.Op == ir.OpJoin {
		target := t.frameRegs(t.top())[in.A]
		return m.joinReady(target)
	}
	return true
}

// CanFlush reports whether thread tid has pending buffered stores.
func (m *Machine) CanFlush(tid int) bool { return !m.threads[tid].buf.Empty() }

// CanResolve reports whether thread tid has deferred loads awaiting
// resolution (only ever true under load-deferring models).
func (m *Machine) CanResolve(tid int) bool { return len(m.threads[tid].defq) > 0 }

// DeferredCount returns the number of deferred loads of thread tid — the
// valid index range for ResolveOne.
func (m *Machine) DeferredCount(tid int) int { return len(m.threads[tid].defq) }

// NextForcesResolve reports whether executing thread tid's next
// instruction would first force-resolve a pending deferred load
// (dependency, per-location coherence, or synchronization — the
// forcedResolveIdx rules). Always false for finished threads and for
// threads with an empty deferred queue. The scheduler's load-starvation
// vow keys on it: executing such an instruction ends the load's
// deferral window, so an adversarial schedule runs the other threads
// first.
func (m *Machine) NextForcesResolve(tid int) bool {
	t := &m.threads[tid]
	if len(t.defq) == 0 || t.Finished() {
		return false
	}
	fr := t.top()
	return m.forcedResolveIdx(t, fr, &fr.fn.code[fr.pc]) >= 0
}

// Actable reports whether the scheduler can give thread tid a turn at all.
func (m *Machine) Actable(tid int) bool {
	return m.CanExec(tid) || m.CanFlush(tid) || m.CanResolve(tid)
}

// Census bits: the scheduler-relevant state of one thread, packed so the
// scheduling loop can rebuild its actable set from one byte per thread.
// A thread whose census is exactly CensusFinished is permanently inert
// (finished, buffer drained, no unresolved loads): it never acts again,
// and joins blocked on it are ready.
const (
	// CensusExec: the thread can execute its next instruction.
	CensusExec uint8 = 1 << iota
	// CensusFlush: the thread has pending buffered stores.
	CensusFlush
	// CensusResolve: the thread has deferred loads awaiting resolution.
	CensusResolve
	// CensusFinished: the thread has no frames left.
	CensusFinished
)

// CensusActable masks the bits that make a thread schedulable at all.
const CensusActable = CensusExec | CensusFlush | CensusResolve

// censusOf computes the census bits of one thread — the fused equivalent
// of Finished/CanExec/CanFlush/CanResolve with a single frame-and-queue
// inspection.
func (m *Machine) censusOf(tid int) uint8 {
	t := &m.threads[tid]
	var f uint8
	if !t.buf.Empty() {
		f |= CensusFlush
	}
	if len(t.defq) > 0 {
		f |= CensusResolve
	}
	if t.Finished() {
		f |= CensusFinished
	} else {
		in := m.current(t)
		if in.Op != ir.OpJoin || m.joinReady(t.frameRegs(t.top())[in.A]) {
			f |= CensusExec
		}
	}
	return f
}

// SchedCensus fills flags (reset and grown as needed, indexed by tid)
// with every thread's census bits. The scheduler calls it once per
// structural change; between those, SchedCensusOne keeps the census
// exact at one-thread cost.
func (m *Machine) SchedCensus(flags []uint8) []uint8 {
	for tid := range m.threads {
		flags = append(flags, m.censusOf(tid))
	}
	return flags
}

// SchedCensusOne recomputes the census entry of the one thread that
// mutated. Sound whenever the machine changed only through thread tid
// and the thread count is unchanged: flushes, resolves, and non-fork
// steps touch no other thread's frames or queues, memory contents never
// affect actability, and join readiness of other threads can only flip
// when tid's new census becomes exactly CensusFinished — the caller must
// fall back to a full SchedCensus in that case (and after forks).
func (m *Machine) SchedCensusOne(flags []uint8, tid int) {
	flags[tid] = m.censusOf(tid)
}

func (m *Machine) joinReady(target int64) bool {
	if target < 0 || target >= int64(len(m.threads)) {
		// Joining a bogus id can never succeed; treat as never-ready (the
		// runner will report deadlock).
		return false
	}
	u := &m.threads[target]
	return u.Finished() && u.buf.Empty() && len(u.defq) == 0
}

func (m *Machine) current(t *Thread) *ir.Instr {
	fr := t.top()
	return &fr.fn.code[fr.pc]
}

// CurrentInstr returns the instruction thread tid would execute next,
// or nil when the thread has finished (or tid is out of range). The
// returned pointer aliases the compiled program — read-only use. It
// exists for replay-time introspection (the violation-witness
// explainer), not for the hot path.
func (m *Machine) CurrentInstr(tid int) *ir.Instr {
	if tid < 0 || tid >= len(m.threads) {
		return nil
	}
	t := &m.threads[tid]
	if t.Finished() {
		return nil
	}
	return m.current(t)
}

// CurrentFunc returns the name of the function thread tid is currently
// executing, or "" when finished.
func (m *Machine) CurrentFunc(tid int) string {
	if tid < 0 || tid >= len(m.threads) {
		return ""
	}
	t := &m.threads[tid]
	if t.Finished() {
		return ""
	}
	return t.top().fn.name
}

// RegValue returns register r of thread tid's active frame. Used by the
// explainer to resolve the address/value operands of the instruction
// about to execute; returns 0, false when unavailable.
func (m *Machine) RegValue(tid int, r ir.Reg) (int64, bool) {
	if tid < 0 || tid >= len(m.threads) {
		return 0, false
	}
	t := &m.threads[tid]
	if t.Finished() {
		return 0, false
	}
	regs := t.frameRegs(t.top())
	if int(r) < 0 || int(r) >= len(regs) {
		return 0, false
	}
	return regs[r], true
}

// StepKind describes what a transition did, for scheduler bookkeeping.
type StepKind uint8

const (
	// StepLocal executed an instruction touching only the thread's
	// registers and control flow (partial-order-reduction candidates).
	StepLocal StepKind = iota
	// StepShared executed an instruction visible to other threads.
	StepShared
	// StepFlush committed one buffered store to main memory.
	StepFlush
	// StepResolve performed the deferred read of one pending load.
	StepResolve
	// StepBlocked means the thread could not act (should not normally be
	// scheduled in this state).
	StepBlocked
)

// FlushOne commits the oldest pending store of thread tid for the given
// address (per-address-buffer models) or the FIFO head (TSO; addr
// ignored) to main memory, performing the memory-safety check of the
// FLUSH transition. Under per-address models an address with nothing
// pending reports StepBlocked.
func (m *Machine) FlushOne(tid int, addr int64) StepKind {
	t := &m.threads[tid]
	e, ok := t.buf.FlushOldest(addr)
	if !ok {
		return StepBlocked
	}
	m.steps++
	m.commit(tid, e)
	return StepFlush
}

// commit writes a flushed entry to main memory with safety checking.
func (m *Machine) commit(tid int, e memmodel.Entry) {
	if !m.checkAddr(tid, e.Label, e.Addr, "store (at flush)") {
		return
	}
	m.mem[e.Addr] = e.Val
}

func (m *Machine) checkAddr(tid int, l ir.Label, addr int64, what string) bool {
	if addr > 0 && addr < int64(len(m.mem)) && m.units.contains(addr) {
		return true
	}
	kind := "out-of-bounds"
	if addr == 0 {
		kind = "null-dereference"
	}
	m.fail(&Violation{
		Kind:   VMemSafety,
		Thread: tid,
		Label:  l,
		Msg:    fmt.Sprintf("%s %s of address %d", kind, what, addr),
	})
	return false
}

func (m *Machine) fail(v *Violation) {
	if m.violated == nil {
		m.violated = v
	}
}

// ResolveOne performs the deferred read of thread tid's idx-th pending
// load (RESOLVE transition): the value at its address is read from main
// memory — with the memory-safety check deferred loads postpone to read
// time — into the destination register, and the entry leaves the queue.
// Any index is legal; out-of-program-order resolution is precisely the
// load-load/load-store reordering the deferring models exhibit. The
// issuing frame is always the thread's top frame (calls and returns force
// full resolution first).
func (m *Machine) ResolveOne(tid int, idx int) StepKind {
	t := &m.threads[tid]
	if m.violated != nil || idx < 0 || idx >= len(t.defq) {
		return StepBlocked
	}
	d := t.defq[idx]
	t.defq = append(t.defq[:idx], t.defq[idx+1:]...)
	m.steps++
	if !m.checkAddr(tid, d.Label, d.Addr, "load (at resolve)") {
		return StepResolve
	}
	t.frameRegs(t.top())[d.Dst] = m.mem[d.Addr]
	return StepResolve
}

// forcedResolveIdx returns the queue index of a deferred load that must
// resolve before in can execute, or -1 when in may proceed. The rules
// preserve exactly what every deferring hardware model preserves:
// data/address dependencies (in reads or rewrites a pending destination
// register), per-location coherence (in accesses the same address as a
// pending load), and synchronization (calls, returns, forks, joins, CAS,
// and load-ordering fences resolve everything, one entry per step).
func (m *Machine) forcedResolveIdx(t *Thread, fr *frame, in *ir.Instr) int {
	switch in.Op {
	case ir.OpCall, ir.OpRet, ir.OpFork, ir.OpJoin, ir.OpCas:
		return 0
	case ir.OpFence:
		if in.Kind.ResolvesLoads() {
			return 0
		}
		return -1
	}
	// Dependency order: an instruction reading or redefining a deferred
	// destination register forces that load to resolve first.
	uses := in.Uses(m.useScratch[:0])
	m.useScratch = uses[:0]
	def := in.Def()
	for i := range t.defq {
		if t.defq[i].Dst == def && def != ir.NoReg {
			return i
		}
		for _, u := range uses {
			if t.defq[i].Dst == u {
				return i
			}
		}
	}
	// Per-location coherence: a load or store to an address with a pending
	// load of the same address resolves it first (CoRR/CoWR). The address
	// register is meaningful here — had it been a deferred destination, the
	// dependency rule above would have fired instead.
	switch in.Op {
	case ir.OpLoad, ir.OpStore:
		addr := t.frameRegs(fr)[in.A]
		for i := range t.defq {
			if t.defq[i].Addr == addr {
				return i
			}
		}
	}
	return -1
}

// forcedFlush performs one flush step on behalf of an instruction that
// requires (some of) the buffers to drain before it can execute; the
// buffers must not be empty. Under per-address-buffer models a CAS
// (addr >= 0) drains only its own address; otherwise (and under TSO) the
// oldest pending entry goes first.
func (m *Machine) forcedFlush(tid int, addr int64) StepKind {
	t := &m.threads[tid]
	if !m.model.RelaxesStoreStore() || addr < 0 {
		addr = t.buf.PendingAddrsView()[0]
	}
	return m.FlushOne(tid, addr)
}

// StepThread performs one transition of thread tid: a forced flush if the
// next instruction needs empty buffers, otherwise the next instruction.
// If the thread has finished but still has pending stores, the step is a
// flush. Returns what kind of step occurred.
func (m *Machine) StepThread(tid int) StepKind {
	if m.violated != nil {
		return StepBlocked
	}
	t := &m.threads[tid]
	if t.Finished() {
		if t.buf.Empty() {
			return StepBlocked
		}
		return m.FlushOne(tid, t.buf.PendingAddrsView()[0])
	}
	return m.stepAt(tid, t)
}

// stepAt is StepThread's transition for a live thread t (== &m.threads[tid])
// on a machine without a violation.
func (m *Machine) stepAt(tid int, t *Thread) StepKind {
	fr := t.top()
	in := &fr.fn.code[fr.pc]

	// Deferred loads the next instruction depends on (or that its
	// synchronization semantics order) resolve first, one per step.
	if len(t.defq) > 0 {
		if idx := m.forcedResolveIdx(t, fr, in); idx >= 0 {
			return m.ResolveOne(tid, idx)
		}
	}

	// Instructions that require drained buffers first (store-draining
	// FENCE kinds, CAS, and the flush half of JOIN handled via joinReady)
	// trigger forced flushes.
	switch in.Op {
	case ir.OpFence:
		if in.Kind.DrainsStores() && !t.buf.Empty() {
			return m.forcedFlush(tid, -1)
		}
	case ir.OpCas:
		a := t.frameRegs(fr)[in.A]
		if !t.buf.EmptyFor(a) {
			return m.forcedFlush(tid, a)
		}
	case ir.OpFork:
		// Thread creation is a synchronization point (pthread_create
		// implies a full barrier): the parent's buffers drain so the child
		// observes everything written before the fork.
		if !t.buf.Empty() {
			return m.forcedFlush(tid, -1)
		}
	case ir.OpJoin:
		if !m.joinReady(t.frameRegs(fr)[in.A]) {
			return StepBlocked
		}
	}

	m.steps++
	return m.exec(t, fr, in)
}

// RunLocal runs thread tid for one scheduling pick under partial-order
// reduction: one transition exactly as StepThread, then further
// transitions while the last one was StepLocal, stopping before the
// (window+1)-th further one, or as soon as a violation occurred, the machine
// reached maxSteps, the thread cannot execute (CanExec), or — with guard —
// its next instruction would force-resolve a deferred load
// (NextForcesResolve). It returns the number of transitions taken (at
// most window+1, each one StepThread call's worth) and the kind of the last.
// Register operations and branches of a thread without deferred loads run
// on a fast path that keeps the frame in locals; every other step goes
// through StepThread's body, so the transitions, and where the run stops,
// are those of the StepThread loop it replaces.
func (m *Machine) RunLocal(tid, window, maxSteps int, guard bool) (n int, kind StepKind) {
	t := &m.threads[tid] // a fork may move the table, but it ends the run
	for n == 0 || kind == StepLocal && n <= window && m.violated == nil && m.steps < maxSteps {
		if len(t.defq) == 0 && m.violated == nil && !t.Finished() {
			budget := min(window-n+1, maxSteps-m.steps)
			if n == 0 {
				budget = 1 + min(window, maxSteps-m.steps-1) // the picked step runs whatever the budgets
			}
			if k := m.runFast(t, budget); k > 0 {
				n, kind = n+k, StepLocal
				if n > window || m.steps >= maxSteps {
					break
				}
			}
		}
		switch {
		case n == 0:
			kind = m.StepThread(tid)
		case !m.CanExec(tid) || guard && m.NextForcesResolve(tid):
			return n, kind
		default:
			kind = m.stepAt(tid, t)
		}
		n++
	}
	return n, kind
}

// runFast executes up to budget consecutive register operations and
// branches of t's top frame — StepLocal instructions that can neither
// fail nor need a forced resolve, since t has no deferred loads — and
// returns how many it executed.
func (m *Machine) runFast(t *Thread, budget int) int {
	fr := t.top()
	code, rx := fr.fn.code, fr.fn.rx
	regs := t.frameRegs(fr)
	pc := fr.pc
	n := 0
loop:
	for ; n < budget; n++ {
		in := &code[pc]
		switch in.Op {
		case ir.OpConst, ir.OpGlobal:
			regs[in.Dst] = in.Imm
		case ir.OpMov:
			regs[in.Dst] = regs[in.A]
		case ir.OpBin:
			regs[in.Dst] = in.Bin.Eval(regs[in.A], regs[in.B])
		case ir.OpNot:
			if regs[in.A] == 0 {
				regs[in.Dst] = 1
			} else {
				regs[in.Dst] = 0
			}
		case ir.OpNeg:
			regs[in.Dst] = -regs[in.A]
		case ir.OpBr:
			pc = int(rx[pc].target)
			continue
		case ir.OpCondBr:
			if regs[in.A] != 0 {
				pc = int(rx[pc].target)
			} else {
				pc = int(rx[pc].target2)
			}
			continue
		default:
			break loop
		}
		pc++
	}
	fr.pc = pc
	m.steps += n
	return n
}

func (m *Machine) exec(t *Thread, fr *frame, in *ir.Instr) StepKind {
	pc := fr.pc // index of in within fr.fn (for the resolved side table)
	regs := t.frameRegs(fr)
	advance := true
	kind := StepLocal
	switch in.Op {
	case ir.OpConst:
		regs[in.Dst] = in.Imm
	case ir.OpGlobal:
		regs[in.Dst] = in.Imm
	case ir.OpMov:
		regs[in.Dst] = regs[in.A]
	case ir.OpBin:
		regs[in.Dst] = in.Bin.Eval(regs[in.A], regs[in.B])
	case ir.OpNot:
		if regs[in.A] == 0 {
			regs[in.Dst] = 1
		} else {
			regs[in.Dst] = 0
		}
	case ir.OpNeg:
		regs[in.Dst] = -regs[in.A]

	case ir.OpLoad:
		addr := regs[in.A]
		kind = StepShared
		m.observe(t, in.Label, AccLoad, addr)
		if v, ok := t.buf.Lookup(addr); ok {
			regs[in.Dst] = v // LOAD-B (store forwarding resolves at issue)
		} else if m.model.DefersLoads() {
			// LOAD-D: the read is deferred — the scheduler picks the moment
			// (and hence the order) it reads memory via ResolveOne. The
			// memory-safety check moves to resolve time with the read.
			t.defq = append(t.defq, DeferredLoad{Label: in.Label, Addr: addr, Dst: in.Dst})
		} else {
			if !m.checkAddr(t.ID, in.Label, addr, "load") {
				return StepShared
			}
			regs[in.Dst] = m.mem[addr] // LOAD-G
		}

	case ir.OpStore:
		addr := regs[in.A]
		val := regs[in.B]
		kind = StepShared
		m.observe(t, in.Label, AccStore, addr)
		if m.model == memmodel.SC {
			if !m.checkAddr(t.ID, in.Label, addr, "store") {
				return StepShared
			}
			m.mem[addr] = val
		} else {
			t.buf.Put(addr, val, in.Label)
		}

	case ir.OpCas:
		kind = StepShared
		addr := regs[in.A]
		m.observe(t, in.Label, AccCas, addr)
		if !m.checkAddr(t.ID, in.Label, addr, "cas") {
			return StepShared
		}
		if m.mem[addr] == regs[in.B] {
			m.mem[addr] = regs[in.C]
			regs[in.Dst] = 1
		} else {
			regs[in.Dst] = 0
		}

	case ir.OpFence:
		// Store-ordering kinds arrive with empty buffers (forced flushes
		// ran) and load-ordering kinds with an empty queue (forced resolves
		// ran).
		kind = StepShared
		if w := fr.fn.rx[pc].watch; w >= 0 {
			m.touched |= 1 << uint(w)
		}

	case ir.OpBr:
		fr.pc = int(fr.fn.rx[pc].target)
		advance = false
	case ir.OpCondBr:
		if regs[in.A] != 0 {
			fr.pc = int(fr.fn.rx[pc].target)
		} else {
			fr.pc = int(fr.fn.rx[pc].target2)
		}
		advance = false

	case ir.OpCall:
		callee := &m.c.funcs[fr.fn.rx[pc].callee]
		isOp := false
		if callee.isOp {
			isOp = t.opDepth == 0
			t.opDepth++
		}
		fr.pc++ // return lands after the call (before fr is invalidated)
		nf := t.pushFrame(callee, in.Dst, isOp)
		// pushFrame may move both the frame slice and the register arena:
		// re-derive the caller's registers before seeding the callee's.
		caller := &t.frames[len(t.frames)-2]
		cregs := t.frameRegs(caller)
		nregs := t.frameRegs(nf)
		for i, a := range in.Args {
			nregs[i] = cregs[a]
		}
		if isOp {
			args := m.allocArgs(len(in.Args))
			copy(args, nregs[:len(in.Args)])
			m.history = append(m.history, Event{
				Kind: EventInvoke, Thread: t.ID, Op: callee.name, Args: args,
			})
		}
		advance = false

	case ir.OpRet:
		var val int64
		hasVal := in.HasVal
		if hasVal {
			val = regs[in.A]
		}
		if fr.isOp {
			m.history = append(m.history, Event{
				Kind: EventResponse, Thread: t.ID, Op: fr.fn.name, Ret: val, HasRet: hasVal,
			})
		}
		if fr.fn.isOp {
			t.opDepth--
		}
		retDst := fr.retDst
		t.popFrame()
		if len(t.frames) == 0 {
			if t.ID == 0 {
				m.exitCode = val
			}
		} else if hasVal && retDst != ir.NoReg {
			t.frameRegs(t.top())[retDst] = val
		}
		advance = false
		kind = StepShared // returns are scheduling points (keeps POR honest)

	case ir.OpFork:
		callee := &m.c.funcs[fr.fn.rx[pc].callee]
		tid := t.ID
		nt := m.newThread() // may move the thread table: t/fr/regs go stale
		t = &m.threads[tid]
		fr = t.top()
		regs = t.frameRegs(fr)
		nf := nt.pushFrame(callee, ir.NoReg, callee.isOp)
		nregs := nt.frameRegs(nf)
		for i, a := range in.Args {
			nregs[i] = regs[a]
		}
		if callee.isOp {
			nt.opDepth++
			args := m.allocArgs(len(in.Args))
			copy(args, nregs[:len(in.Args)])
			m.history = append(m.history, Event{
				Kind: EventInvoke, Thread: nt.ID, Op: callee.name, Args: args,
			})
		}
		regs[in.Dst] = int64(nt.ID)
		kind = StepShared

	case ir.OpJoin:
		kind = StepShared // readiness checked by caller

	case ir.OpSelf:
		regs[in.Dst] = int64(t.ID)

	case ir.OpAlloc:
		size := regs[in.A]
		if size < 1 {
			size = 1
		}
		base := int64(len(m.mem)) + heapGap
		need := base + size
		if int64(cap(m.mem)) >= need {
			old := int64(len(m.mem))
			m.mem = m.mem[:need]
			clear(m.mem[old:])
		} else {
			grown := make([]int64, need)
			copy(grown, m.mem)
			m.mem = grown
		}
		m.units.add(base, size)
		regs[in.Dst] = base
		kind = StepShared

	case ir.OpFree:
		addr := regs[in.A]
		if !m.units.remove(addr) {
			m.fail(&Violation{
				Kind:   VMemSafety,
				Thread: t.ID,
				Label:  in.Label,
				Msg:    fmt.Sprintf("free of invalid pointer %d", addr),
			})
			return StepShared
		}
		// Per the paper, free does not flush write buffers; pending stores
		// to the freed unit will fault at flush time (use-after-free).
		kind = StepShared

	case ir.OpAssert:
		if regs[in.A] == 0 {
			m.fail(&Violation{
				Kind:   VAssert,
				Thread: t.ID,
				Label:  in.Label,
				Msg:    in.Msg,
			})
			return StepShared
		}

	case ir.OpPrint:
		m.output = append(m.output, regs[in.A])

	default:
		m.fail(&Violation{
			Kind:   VAssert,
			Thread: t.ID,
			Label:  in.Label,
			Msg:    fmt.Sprintf("cannot execute opcode %v", in.Op),
		})
		return StepShared
	}
	if advance {
		fr.pc++
	}
	return kind
}

// observe reports a shared access to the Observer with the same-thread
// pending accesses to other addresses (instrumented Semantics 2): the
// buffered stores first, then — under load-deferring models — the
// deferred loads, each of which may still take effect after the access
// being observed. Observation happens at issue time, so the pending set
// is exactly the set of program-order-earlier accesses the model may
// reorder past this one: every store-ordering fence drains, so no
// buffered store is separated from the access by a fence. The slice
// handed to the Observer is scratch space reused across calls —
// observers must not retain it (see Observer).
func (m *Machine) observe(t *Thread, l ir.Label, kind AccessKind, addr int64) {
	if m.obs == nil || m.model == memmodel.SC {
		return
	}
	entries := t.buf.AppendPendingOther(m.entScratch[:0], addr)
	m.entScratch = entries[:0]
	pend := m.pendScratch[:0]
	for _, e := range entries {
		pend = append(pend, PendingStore{Label: e.Label, Addr: e.Addr})
	}
	for _, d := range t.defq {
		if d.Addr != addr {
			pend = append(pend, PendingStore{Label: d.Label, Addr: d.Addr, IsLoad: true})
		}
	}
	m.pendScratch = pend[:0]
	if len(pend) == 0 {
		return // nothing pending to other locations: no predicates arise
	}
	m.obs.OnSharedAccess(t.ID, l, kind, addr, pend)
}

// MemRead returns the committed value at addr (tests/inspection only).
func (m *Machine) MemRead(addr int64) int64 {
	if addr < 0 || addr >= int64(len(m.mem)) {
		return 0
	}
	return m.mem[addr]
}

// GlobalValue returns the committed value of the named global's first word.
func (m *Machine) GlobalValue(name string) (int64, bool) {
	g := m.c.prog.Global(name)
	if g == nil {
		return 0, false
	}
	return m.mem[g.Addr], true
}

// Result snapshots the execution outcome. stepLimitHit is supplied by the
// runner that enforced the budget. The History and Output slices alias the
// machine's internal buffers: they are valid until the machine's next
// Reset, so batch reducers must consume (or copy) them before the worker
// moves on to its next execution.
func (m *Machine) Result(stepLimitHit bool) *Result {
	return &Result{
		Violation:    m.violated,
		History:      m.history,
		Output:       m.output,
		Steps:        m.steps,
		StepLimitHit: stepLimitHit,
		ExitCode:     m.exitCode,
		FenceTouched: m.touched,
	}
}

// Step footprints for exhaustive-exploration clients. The interleaving
// enumerator (internal/proggen) prunes a transition when it commutes with
// the path that led to the current state (sleep sets), which needs to know
// what each transition touches outside its own thread. The query below
// predicts that for the next StepThread call without performing it, so
// the transitions themselves carry no bookkeeping: sched.Run, which takes
// millions of steps per synthesis cell, never pays for footprints.
package interp

import (
	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

// StepAccess is what one StepThread call touches beyond the stepping
// thread's own registers, frames, store buffers and deferred-load queue:
// at most one main-memory word (Addr, read and/or written), or an effect
// on state other threads share in some other way (Global).
type StepAccess struct {
	Addr  int64
	Read  bool // reads main memory at Addr
	Write bool // writes main memory at Addr
	// Global marks a step that reads or writes shared state other than a
	// memory word: the history (an operation's invoke or response), the
	// output, the thread table (fork, join, the thread's final return)
	// or the allocation units (alloc, free).
	Global bool
}

// NextStepAccess predicts the footprint of StepThread(tid) in the current
// state, mirroring its decision sequence: a finished thread's flush, a
// forced resolve, a forced flush, then the instruction itself. It reads
// the state only (the pending-address scratch view aside) and returns
// the zero StepAccess for a step that touches nothing shared or cannot
// happen. Whether the step violates memory safety is not predicted: the
// caller checks Violation after the step.
func (m *Machine) NextStepAccess(tid int) StepAccess {
	if m.violated != nil {
		return StepAccess{}
	}
	t := &m.threads[tid]
	if t.Finished() {
		if fl := t.buf.PendingAddrsView(); len(fl) > 0 {
			return StepAccess{Addr: fl[0], Write: true}
		}
		return StepAccess{}
	}
	fr := t.top()
	in := &fr.fn.code[fr.pc]
	if len(t.defq) > 0 {
		if idx := m.forcedResolveIdx(t, fr, in); idx >= 0 {
			return StepAccess{Addr: t.defq[idx].Addr, Read: true}
		}
	}
	regs := t.frameRegs(fr)
	switch in.Op {
	case ir.OpFence:
		if in.Kind.DrainsStores() && !t.buf.Empty() {
			return m.forcedFlushAccess(t, -1)
		}
	case ir.OpCas:
		a := regs[in.A]
		if !t.buf.EmptyFor(a) {
			return m.forcedFlushAccess(t, a)
		}
		return StepAccess{Addr: a, Read: true, Write: true}
	case ir.OpLoad:
		addr := regs[in.A]
		if _, fwd := t.buf.Lookup(addr); fwd || m.model.DefersLoads() {
			return StepAccess{} // forwarded, or issued into the queue
		}
		return StepAccess{Addr: addr, Read: true}
	case ir.OpStore:
		if m.model == memmodel.SC {
			return StepAccess{Addr: regs[in.A], Write: true}
		}
	case ir.OpCall:
		return StepAccess{Global: m.c.funcs[fr.fn.rx[fr.pc].callee].isOp && t.opDepth == 0}
	case ir.OpRet:
		return StepAccess{Global: fr.isOp || len(t.frames) == 1}
	case ir.OpFork, ir.OpJoin, ir.OpAlloc, ir.OpFree, ir.OpPrint:
		return StepAccess{Global: true}
	}
	return StepAccess{}
}

// forcedFlushAccess is the footprint of forcedFlush(tid, addr): the
// address whose oldest entry it commits.
func (m *Machine) forcedFlushAccess(t *Thread, addr int64) StepAccess {
	if !m.model.RelaxesStoreStore() || addr < 0 {
		addr = t.buf.PendingAddrsView()[0]
	}
	return StepAccess{Addr: addr, Write: true}
}

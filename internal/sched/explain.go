package sched

import (
	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

// StepFact describes one replayed transition at the level of detail the
// violation-witness explainer renders: which instruction ran (or which
// buffered store committed, or which deferred load read memory), the
// concrete addresses and values involved, and whether a store was
// buffered or a load deferred rather than performed. Facts come from
// ReplayExplained, which re-executes a recorded Trace and inspects the
// machine around every transition — none of this instrumentation exists
// on the hot execution path.
type StepFact struct {
	Thread int
	// Exec is true when an instruction executed; false for flush and
	// resolve steps (scheduled or forced).
	Exec  bool
	Instr ir.Instr // the executed instruction (valid when Exec)
	Func  string   // enclosing function (valid when Exec)

	// Memory-access operands, resolved from registers before the step;
	// for a resolve, the address the deferred load read and the value it
	// got.
	Addr    int64
	Val     int64
	HasAddr bool
	HasVal  bool
	// Buffered: the store entered this thread's store buffer (invisible
	// to other threads until a flush). FromBuffer: the load was satisfied
	// by this thread's own buffer (LOAD-B), not main memory. Deferred: the
	// load was issued but reads memory only at its later resolve (RMO).
	Buffered   bool
	FromBuffer bool
	Deferred   bool

	// Flush facts: a buffered store committed to main memory this step.
	// Forced marks commits (and resolves) triggered by the thread's next
	// instruction — a fence/CAS/fork/join drain, or a dependency on a
	// deferred load — rather than by a scheduler decision.
	Flush      bool
	Forced     bool
	FlushAddr  int64
	FlushVal   int64
	FlushLabel ir.Label // label of the store instruction whose write committed

	// Resolve facts: a deferred load read memory this step.
	Resolve      bool
	ResolveLabel ir.Label // label of the load instruction that resolved

	// Violated is set on the step that raised the violation.
	Violated *interp.Violation
}

// removed finds the element present in before but missing from after
// (the store a flush committed, or the load a resolve retired). Both
// slices keep their order under removal of a single element.
func removed[E comparable](before, after []E) (E, bool) {
	if len(before) != len(after)+1 {
		var zero E
		return zero, false
	}
	for i := range after {
		if before[i] != after[i] {
			return before[i], true
		}
	}
	return before[len(before)-1], true
}

// ReplayExplained re-executes a recorded schedule against prog,
// producing a StepFact per recorded transition alongside the final
// result — Replay's decision loop and drain, with every recorded
// transition explained. Like Replay it is best-effort against a modified
// program: ok=false means the schedule stopped applying partway (facts
// cover the prefix that did apply). The fact stream stops at the first
// violation; the deterministic drain that completes a cut trace is not
// recorded (it is not part of the witness).
func ReplayExplained(prog *ir.Program, tr *Trace) (facts []StepFact, res *interp.Result, ok bool) {
	m := interp.NewMachine(prog, tr.Model, nil)
	ok = replay(m, tr, func(d Decision) {
		facts = append(facts, explainStep(m, tr.Model, d))
	})
	return facts, m.Result(false), ok
}

// explainStep performs d's transition on m and describes it.
func explainStep(m *interp.Machine, model memmodel.Model, d Decision) StepFact {
	tid := d.Thread
	t := m.Thread(tid)
	bufBefore := t.Buffers().All()
	// ResolveOne removes from the queue in place: keep a copy.
	defBefore := append([]interp.DeferredLoad(nil), t.DeferredLoads()...)
	var in *ir.Instr
	if !d.Flush && !d.Resolve {
		in = m.CurrentInstr(tid)
	}
	// The operands must be read before the step; they describe it only if
	// the step turns out to execute in.
	ops := operands(m, tid, in)

	fact := StepFact{Thread: tid}
	switch d.apply(m) {
	case interp.StepFlush:
		fact.Flush, fact.Forced = true, !d.Flush
		if e, found := removed(bufBefore, t.Buffers().All()); found {
			fact.FlushAddr, fact.FlushVal, fact.FlushLabel = e.Addr, e.Val, e.Label
		}
	case interp.StepResolve:
		fact.Resolve, fact.Forced = true, !d.Resolve
		if e, found := removed(defBefore, t.DeferredLoads()); found {
			fact.ResolveLabel = e.Label
			fact.Addr, fact.HasAddr = e.Addr, true
			if m.Violation() == nil {
				fact.Val, fact.HasVal = m.RegValue(tid, e.Dst)
			}
		}
	case interp.StepBlocked:
		// Nothing happened (a decision that no longer does anything on a
		// modified program); the fact renders as a no-op.
	default:
		fact = ops
		fact.Exec = true
		if in != nil {
			fact.Instr = *in
			if in.Op == ir.OpStore && !in.ThreadLocal && model != memmodel.SC {
				fact.Buffered = true
			}
			if in.Op == ir.OpLoad && in.Dst != ir.NoReg {
				if len(t.DeferredLoads()) > len(defBefore) {
					fact.Deferred = true
				} else if v, vok := m.RegValue(tid, in.Dst); vok {
					fact.Val, fact.HasVal = v, true
				}
			}
		}
	}
	fact.Violated = m.Violation()
	return fact
}

// operands describes the memory operands of in, thread tid's next
// instruction (nil: none), as they stand before it executes.
func operands(m *interp.Machine, tid int, in *ir.Instr) StepFact {
	f := StepFact{Thread: tid}
	if in == nil {
		return f
	}
	f.Func = m.CurrentFunc(tid)
	switch in.Op {
	case ir.OpLoad:
		if a, ok := m.RegValue(tid, in.A); ok {
			f.Addr, f.HasAddr = a, true
			_, f.FromBuffer = m.Thread(tid).Buffers().Lookup(a)
		}
	case ir.OpStore:
		if a, ok := m.RegValue(tid, in.A); ok {
			f.Addr, f.HasAddr = a, true
		}
		if v, ok := m.RegValue(tid, in.B); ok {
			f.Val, f.HasVal = v, true
		}
	case ir.OpCas:
		if a, ok := m.RegValue(tid, in.A); ok {
			f.Addr, f.HasAddr = a, true
		}
	}
	return f
}

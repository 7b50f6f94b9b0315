package sched

import (
	"context"
	"fmt"
	"strings"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

// Decision is one scheduling choice: which thread acted and whether it
// flushed a buffered store (and which address), resolved a deferred load
// (and which queue index), or executed instructions.
type Decision struct {
	Thread  int
	Flush   bool
	Resolve bool
	Addr    int64 // flushed address (per-address models); ignored otherwise
	Idx     int   // resolved deferred-load queue index (Resolve only)
	// Steps is the number of consecutive execution steps taken (the POR
	// burst length); 1 for flushes and resolves.
	Steps int
}

// Trace is a complete schedule of one execution: replaying it against the
// same program and memory model reproduces the execution exactly. DFENCE
// uses traces as violation witnesses — a failing schedule the user can
// re-run and inspect.
type Trace struct {
	Model     memmodel.Model
	Decisions []Decision
}

// String renders the schedule compactly: "t0×5 t1⤓x t1⟲0 t1×2 ...".
func (tr *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%v]", tr.Model)
	for _, d := range tr.Decisions {
		switch {
		case d.Flush:
			fmt.Fprintf(&b, " t%d⤓%d", d.Thread, d.Addr)
		case d.Resolve:
			fmt.Fprintf(&b, " t%d⟲%d", d.Thread, d.Idx)
		default:
			fmt.Fprintf(&b, " t%d×%d", d.Thread, d.Steps)
		}
	}
	return b.String()
}

// Len returns the number of decisions.
func (tr *Trace) Len() int { return len(tr.Decisions) }

// record appends a decision, merging consecutive execution bursts by the
// same thread.
func (tr *Trace) record(thread int, flush bool, addr int64) {
	if !flush && len(tr.Decisions) > 0 {
		last := &tr.Decisions[len(tr.Decisions)-1]
		if !last.Flush && !last.Resolve && last.Thread == thread {
			last.Steps++
			return
		}
	}
	d := Decision{Thread: thread, Flush: flush, Addr: addr, Steps: 1}
	tr.Decisions = append(tr.Decisions, d)
}

// recordResolve appends a deferred-load resolution decision.
func (tr *Trace) recordResolve(thread, idx int) {
	tr.Decisions = append(tr.Decisions, Decision{Thread: thread, Resolve: true, Idx: idx, Steps: 1})
}

// RunTraced is Run but additionally records the schedule, returning it
// alongside the result.
func RunTraced(prog *ir.Program, model memmodel.Model, obs interp.Observer, opts Options) (*interp.Result, *Trace) {
	tr := &Trace{Model: model}
	var w worker
	res := w.run(context.Background(), interp.Compile(prog), model, obs, opts, tr)
	return res, tr
}

// Replay re-executes a recorded schedule. The program and model must be
// the ones the trace was recorded against; the result is bit-identical to
// the recorded execution. Replaying against a modified program (e.g. with
// a fence inserted) is allowed — the schedule is followed best-effort and
// stops cleanly when a decision no longer applies (the fence changed the
// enabled set), reporting ok=false.
func Replay(prog *ir.Program, obs interp.Observer, tr *Trace) (res *interp.Result, ok bool) {
	m := interp.NewMachine(prog, tr.Model, obs)
	ok = replay(m, tr, nil)
	return m.Result(false), ok
}

// replay drives m through tr's decisions one transition at a time, then
// drains it. Each recorded transition goes through step when it is
// non-nil (step performs it with Decision.apply, free to inspect the
// machine around it); the drain does not. It stops at the first
// violation (the witness reproduced, ok) or at a decision that no longer
// applies (not ok).
func replay(m *interp.Machine, tr *Trace, step func(d Decision)) bool {
	for _, d := range tr.Decisions {
		n := d.Steps
		if d.Flush || d.Resolve {
			n = 1
		}
		for i := 0; i < n; i++ {
			if m.Violation() != nil {
				return true
			}
			if !d.applies(m) {
				return false
			}
			if step != nil {
				step(d)
			} else {
				d.apply(m)
			}
		}
	}
	// Drain any remainder deterministically (round-robin) so the result is
	// complete even if the trace was cut at the violation. Flushes pick a
	// currently flushable address (store-store barriers can park the oldest
	// pending address); resolves retire the queue head.
	for guard := 0; !m.Done() && guard < 1_000_000; guard++ {
		moved := false
		for tid := 0; tid < m.NumThreads(); tid++ {
			if m.CanExec(tid) {
				m.StepThread(tid)
				moved = true
				break
			}
			if m.CanResolve(tid) {
				m.ResolveOne(tid, 0)
				moved = true
				break
			}
			if m.CanFlush(tid) {
				fl := m.Thread(tid).Buffers().FlushableAddrs()
				m.FlushOne(tid, fl[0])
				moved = true
				break
			}
		}
		if !moved {
			break
		}
	}
	return true
}

// applies reports whether d's transition is enabled on m.
func (d Decision) applies(m *interp.Machine) bool {
	switch {
	case d.Thread >= m.NumThreads():
		return false
	case d.Flush:
		return m.CanFlush(d.Thread)
	case d.Resolve:
		return d.Idx < m.DeferredCount(d.Thread)
	}
	return m.CanExec(d.Thread) || m.CanFlush(d.Thread) || m.CanResolve(d.Thread)
}

// apply performs one transition of d on m: the scheduled flush, the
// scheduled resolve, or one step of the thread (which may itself be a
// flush or resolve the next instruction forces).
func (d Decision) apply(m *interp.Machine) interp.StepKind {
	switch {
	case d.Flush:
		return m.FlushOne(d.Thread, d.Addr)
	case d.Resolve:
		return m.ResolveOne(d.Thread, d.Idx)
	}
	return m.StepThread(d.Thread)
}

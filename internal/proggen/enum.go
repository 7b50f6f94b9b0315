package proggen

// Exhaustive interleaving+flush+resolve enumeration — the ground-truth
// oracle. The interpreter (interp.Machine) exposes three scheduler-visible
// transitions — "thread tid executes its next step", "thread tid flushes
// the oldest buffered store for address a", and (under load-deferring
// models) "thread tid resolves its idx-th deferred load" — so a program's
// full behavior space is the tree of finite choice sequences. The enumerator
// walks that tree depth-first over concrete machine states: a state with
// several transitions is saved into a pooled per-depth snapshot
// (Machine.CopyFrom), and each transition after the first restores a
// copy of it and applies just that one choice — no prefix is ever
// re-executed. Each decision point is fingerprinted with
// Machine.AppendStateKey so any path reaching an already-expanded state
// is pruned. With memoization the cost is O(|states| × branching) machine
// copies and transitions, which is what keeps litmus-sized programs (a few
// thousand states) enumerable in milliseconds.
//
// Two reductions keep the tree small without losing outcomes:
//
//   - Local-run collapse: after an exec choice the chosen thread keeps
//     stepping while its steps are StepLocal (registers / provably
//     thread-local memory only, the same partial-order reduction
//     sched.Run applies). Local steps commute with every other thread's
//     transitions, so bundling them with the preceding visible step
//     cannot remove a reachable outcome.
//   - State dedup subsumes path symmetry: two interleavings reaching the
//     same memory/buffers/frames state share their entire future.
//
// Enumeration is exact when Complete is true; budgets (states, steps)
// make it degrade to "explored a prefix" rather than hang on a too-large
// program, and the oracle skips containment checks that need
// completeness when a budget tripped.

import (
	"fmt"
	"sort"
	"strings"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

// choice is one scheduler transition: an exec step, a flush of one
// buffered store, or a resolve of one deferred load.
type choice struct {
	tid     int
	flush   bool
	resolve bool
	addr    int64 // flush target (flush=true only)
	idx     int   // deferred-load queue index (resolve=true only)
}

// EnumOptions bounds one enumeration.
type EnumOptions struct {
	// MaxStates bounds the number of distinct decision-point states
	// expanded (default 60000).
	MaxStates int
	// MaxSteps bounds machine steps along any single path (default
	// 20000) — a backstop; generated programs terminate long before it.
	MaxSteps int
	// LocalRun bounds the local-run collapse (default 128).
	LocalRun int
}

func (o *EnumOptions) fill() {
	if o.MaxStates <= 0 {
		o.MaxStates = 60000
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 20000
	}
	if o.LocalRun <= 0 {
		o.LocalRun = 128
	}
}

// EnumResult is the behavior space of one program under one model.
type EnumResult struct {
	Model memmodel.Model
	// Outcomes is the set of terminal outcome strings (see OutcomeString)
	// of violation-free executions.
	Outcomes map[string]bool
	// Violations is the set of distinct violation descriptions reached.
	Violations map[string]bool
	// States is the number of distinct decision-point states expanded;
	// Paths the number of terminal states reached.
	States, Paths int
	// Complete is true when no budget tripped: Outcomes and Violations
	// are then exactly the reachable sets.
	Complete bool
}

// HasViolation reports whether any explored execution violated.
func (r *EnumResult) HasViolation() bool { return len(r.Violations) > 0 }

// SortedOutcomes returns the outcome set in sorted order (for reports).
func (r *EnumResult) SortedOutcomes() []string {
	out := make([]string, 0, len(r.Outcomes))
	for o := range r.Outcomes {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// SortedViolations returns the violation descriptions sorted.
func (r *EnumResult) SortedViolations() []string {
	out := make([]string, 0, len(r.Violations))
	for v := range r.Violations {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// OutcomeString canonicalizes a terminal execution: the printed values in
// order plus the exit code.
func OutcomeString(output []int64, exitCode int64) string {
	var b strings.Builder
	for i, v := range output {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	fmt.Fprintf(&b, "|exit=%d", exitCode)
	return b.String()
}

// violationString canonicalizes a violation for set membership.
func violationString(v *interp.Violation) string {
	return fmt.Sprintf("%v@L%d: %s", v.Kind, v.Label, v.Msg)
}

// enumerator holds the snapshot machinery for one Enumerate call: cur is
// the machine the walk mutates, and snaps[d] holds the state of the d-th
// branching node on the current DFS path — one pooled Machine per
// branching depth, reused across the whole walk.
type enumerator struct {
	c     *interp.Compiled
	model memmodel.Model
	opts  EnumOptions
	cur   *interp.Machine
	snaps []*interp.Machine
	key   []byte
}

// branch is a state on the current DFS path with untried transitions:
// chs[next:end] of the choice stack, each applied to a copy of the
// state's snapshot. Its own transitions occupy chs[start:end].
type branch struct {
	start, next, end int
}

// Enumerate explores every schedule of prog under model within the
// budgets. prog must be linked.
func Enumerate(prog *ir.Program, model memmodel.Model, opts EnumOptions) *EnumResult {
	opts.fill()
	e := &enumerator{c: interp.Compile(prog), model: model, opts: opts, cur: &interp.Machine{}}
	res := &EnumResult{
		Model:      model,
		Outcomes:   make(map[string]bool),
		Violations: make(map[string]bool),
		Complete:   true,
	}

	// Depth-first over machine states. A state is checked when it is
	// reached, and a state's transitions are taken in their natural
	// order — the expansion order of an explicit stack of choice paths
	// with pop-time dedup, which under the MaxStates budget decides which
	// states get counted.
	seen := make(map[string]struct{})
	var chs []choice  // transitions of the states on the path
	var path []branch // branching states on the path, each with a sibling left
	e.cur.Reset(e.c, e.model, nil)
	for {
		start := len(chs)
		var stop bool
		if chs, stop = e.expand(res, seen, chs); stop {
			break
		}
		switch len(chs) - start {
		case 0:
			// Terminal, already expanded, or over the step budget.
		case 1:
			// A single transition needs no snapshot: take it in place.
			ch := chs[start]
			chs = chs[:start]
			e.apply(ch)
			continue
		default:
			e.snapshot(len(path)).CopyFrom(e.cur)
			path = append(path, branch{start: start, next: start + 1, end: len(chs)})
			e.apply(chs[start])
			continue
		}
		// Backtrack to the deepest branching state and take its next
		// transition from a copy of its snapshot. The last one takes the
		// snapshot itself (it is not needed again) and retires the node.
		if len(path) == 0 {
			break
		}
		d := len(path) - 1
		b := &path[d]
		ch := chs[b.next]
		b.next++
		if b.next == b.end {
			e.cur, e.snaps[d] = e.snaps[d], e.cur
			chs = chs[:b.start]
			path = path[:d]
		} else {
			e.cur.CopyFrom(e.snaps[d])
		}
		e.apply(ch)
	}
	return res
}

// snapshot returns the pooled snapshot machine of branching depth d.
func (e *enumerator) snapshot(d int) *interp.Machine {
	if d == len(e.snaps) {
		e.snaps = append(e.snaps, &interp.Machine{})
	}
	return e.snaps[d]
}

// expand accounts for the state the walk just reached and appends its
// transitions to dst — none when the state is terminal, was expanded
// before, or lies past the step budget. stop reports that the state
// budget tripped: further expansion cannot restore completeness.
func (e *enumerator) expand(res *EnumResult, seen map[string]struct{}, dst []choice) (_ []choice, stop bool) {
	m := e.cur
	if m.Steps() >= e.opts.MaxSteps {
		res.Complete = false
		return dst, false
	}
	e.key = m.AppendStateKey(e.key[:0])
	if _, dup := seen[string(e.key)]; dup {
		return dst, false
	}
	if res.States >= e.opts.MaxStates {
		res.Complete = false
		return dst, true
	}
	seen[string(e.key)] = struct{}{}
	res.States++

	if m.Done() {
		res.Paths++
		if v := m.Violation(); v != nil {
			res.Violations[violationString(v)] = true
		} else {
			res.Outcomes[OutcomeString(m.Output(), m.ExitCode())] = true
		}
		return dst, false
	}
	n := len(dst)
	dst = e.choices(dst)
	if len(dst) == n {
		// No transition possible and not Done: a deadlock terminal
		// (e.g. a join on a thread that can never finish).
		res.Paths++
		res.Violations[violationString(&interp.Violation{
			Kind:  interp.VDeadlock,
			Label: ir.NoLabel,
			Msg:   "no thread can make progress",
		})] = true
	}
	return dst, false
}

// apply takes one transition on the working machine.
func (e *enumerator) apply(ch choice) {
	m := e.cur
	switch {
	case ch.flush:
		m.FlushOne(ch.tid, ch.addr)
	case ch.resolve:
		m.ResolveOne(ch.tid, ch.idx)
	default:
		kind := m.StepThread(ch.tid)
		// Local-run collapse (mirrors sched.Run's POR window): a thread
		// that only touched registers or thread-local memory keeps going —
		// interleaving those steps cannot change any observable outcome.
		for n := 0; kind == interp.StepLocal && n < e.opts.LocalRun; n++ {
			if m.Violation() != nil || !m.CanExec(ch.tid) {
				break
			}
			kind = m.StepThread(ch.tid)
		}
	}
}

// choices enumerates the transitions available at the machine's current
// state in deterministic order: exec per thread id ascending, then flush
// per (thread id, flushable address in canonical buffer order), then
// resolve per (thread id, deferred-load queue index). Flushes offer only
// the currently flushable addresses — an address parked behind a
// store-store barrier epoch is not a legal transition. Resolves offer
// every queue index: out-of-order resolution is exactly the load
// reordering the deferring models exhibit, so skipping indices would
// prune reachable outcomes.
func (e *enumerator) choices(dst []choice) []choice {
	m := e.cur
	n := m.NumThreads()
	for tid := 0; tid < n; tid++ {
		if m.CanExec(tid) {
			dst = append(dst, choice{tid: tid})
		}
	}
	for tid := 0; tid < n; tid++ {
		if !m.CanFlush(tid) {
			continue
		}
		// The view is safe: its addresses are copied into the choices
		// before anything mutates the buffers.
		for _, addr := range m.Thread(tid).Buffers().FlushableAddrsView() {
			dst = append(dst, choice{tid: tid, flush: true, addr: addr})
		}
	}
	for tid := 0; tid < n; tid++ {
		for idx := 0; idx < m.DeferredCount(tid); idx++ {
			dst = append(dst, choice{tid: tid, resolve: true, idx: idx})
		}
	}
	return dst
}

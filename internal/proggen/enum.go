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
// Machine.AppendStateKey and looked up in an exact hash table of the
// expanded states (stateTable), so any path reaching an already-expanded
// state is pruned. With memoization the cost is O(|states| × branching)
// machine copies and transitions, which is what keeps litmus-sized
// programs (a few thousand states) enumerable in milliseconds. A state
// visit costs a key encode and a table probe: the working machine, the
// snapshots, the stacks and the table are reused across Enumerate calls
// (enumFree), so a warmed-up walk allocates for the compiled program, the
// result and the violations and new outcomes it records, not per state.
//
// Three reductions keep the walk small without losing outcomes:
//
//   - Local-run collapse: after an exec choice the chosen thread keeps
//     stepping while its steps are StepLocal (registers and control
//     flow only, the same partial-order reduction sched.Run applies).
//     Local steps commute with every other thread's transitions, so
//     bundling them with the preceding visible step cannot remove a
//     reachable outcome.
//   - State dedup subsumes path symmetry: two interleavings reaching the
//     same memory/buffers/frames state share their entire future.
//   - Sleep sets (Godefroid, Partial-Order Methods for the Verification
//     of Concurrent Systems, LNCS 1032) skip transitions that would only
//     re-reach a state already expanded. Each transition records a
//     footprint as it is applied — the memory words it reads and writes
//     (interp.Machine.NextStepAccess, step by step through the local
//     run), or "global" for a history event, print, fork, join, alloc,
//     free, a thread's final return, a stop at a blocked join or a
//     violation. Two transitions of different threads are independent
//     when neither is global and they share no word that either writes:
//     either order then reaches the same state, and neither disables or
//     changes the other. A branching state hands its k-th transition the
//     siblings explored before it plus its own sleep set, keeping only
//     the entries independent of that transition, and a state skips every
//     transition in its sleep set.
//
//     Soundness: a sleeping transition t at state s was explored from an
//     ancestor u, and every transition w from u to s commutes with t, so
//     s·t = u·t·w. The DFS finished u·t before reaching s, and a finished
//     state has all its successors expanded (those it skipped, by this
//     same argument) — so u·t·w, hence s·t, was
//     expanded, and skipping t changes neither the states visited nor
//     their order: States, Paths, Complete, Outcomes and Violations are
//     exactly those of the unpruned walk. That argument fails once the
//     walk closes a cycle (a spin loop): a dedup hit on a state still on
//     the DFS path leaves that state's successors unexpanded for now. So
//     every expanded state carries a visit index and an on-path bit,
//     cleared on backtrack, and the first dedup hit on an on-path state
//     turns pruning off for the rest of the enumeration. Pruning likewise
//     stops once a path comes within one transition of MaxSteps, where
//     successors go unexpanded because of the step budget.
//
// Enumeration is exact when Complete is true; budgets (states, steps)
// make it degrade to "explored a prefix" rather than hang on a too-large
// program, and the oracle skips containment checks that need
// completeness when a budget tripped.

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

// choice is one scheduler transition: an exec step, a flush of one
// buffered store, or a resolve of one deferred load. fp is what the
// transition touched when it was applied (sleep sets compare footprints).
type choice struct {
	tid     int
	flush   bool
	resolve bool
	addr    int64 // flush target (flush=true only)
	idx     int   // deferred-load queue index (resolve=true only)
	fp      footprint
}

// same reports whether c and o denote the same transition.
func (c *choice) same(o *choice) bool {
	return c.tid == o.tid && c.flush == o.flush && c.resolve == o.resolve && c.addr == o.addr && c.idx == o.idx
}

// footprint is what one transition touched outside its own thread: one
// memory word (addr, written or only read), or global state — see
// interp.StepAccess.Global, plus any violation, a stop at a blocked join,
// and a local run that touched a second word.
type footprint struct {
	global  bool
	touches bool
	write   bool
	addr    int64
}

// add records one step's access.
func (f *footprint) add(a interp.StepAccess) {
	switch {
	case a.Global:
		f.global = true
	case f.global || !(a.Read || a.Write):
	case !f.touches:
		f.touches, f.addr, f.write = true, a.Addr, a.Write
	case f.addr == a.Addr:
		f.write = f.write || a.Write
	default:
		f.global = true
	}
}

// independent reports whether transitions a and b, both enabled in one
// state, commute: they belong to different threads, neither has a global
// effect, and they do not touch the same word with at least one write.
// Then either order reaches the same state, each stays enabled after the
// other, and each touches the same word after the other.
func independent(a, b *choice) bool {
	if a.tid == b.tid || a.fp.global || b.fp.global {
		return false
	}
	return !(a.fp.touches && b.fp.touches && a.fp.addr == b.fp.addr && (a.fp.write || b.fp.write))
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
	var buf [64]byte
	return string(appendOutcome(buf[:0], output, exitCode))
}

// appendOutcome appends OutcomeString(output, exitCode) to dst.
func appendOutcome(dst []byte, output []int64, exitCode int64) []byte {
	for i, v := range output {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	dst = append(dst, "|exit="...)
	return strconv.AppendInt(dst, exitCode, 10)
}

// violationString canonicalizes a violation for set membership.
func violationString(v *interp.Violation) string {
	return fmt.Sprintf("%v@L%d: %s", v.Kind, v.Label, v.Msg)
}

// enumerator holds the snapshot machinery of an enumeration: cur is
// the machine the walk mutates, and snaps[d] holds the state of the d-th
// branching node on the current DFS path — one pooled Machine per
// branching depth, reused across the whole walk. chs is the stack of
// transitions of the states on the path, and path the stack of branching
// states with a sibling left. seen holds every expanded state's key and
// visit index. key and outcome are scratch buffers for the state key and
// the outcome string of the state being visited.
//
// The sleep-set bookkeeping is live while prune is true. sleep is a stack
// of sleep sets: the current state's set is sleep[zcur:], and each
// branching state on the path keeps its own below it. pathIdx lists the
// visit indices of the states on the DFS path, and onPath marks them.
//
// An enumerator outlives its call: enumFree hands its storage — the
// machines with their buffer queues, the stacks and the table — to the
// next Enumerate, and start resets every field a walk reads. Only the
// machines' state refers to the last walk's compiled program, which the
// next walk overwrites. An idle enumerator survives garbage collections.
type enumerator struct {
	opts    EnumOptions
	cur     *interp.Machine
	snaps   []*interp.Machine
	chs     []choice
	path    []branch
	key     []byte
	outcome []byte
	seen    stateTable

	prune   bool
	sleep   []choice
	zcur    int
	pathIdx []int32
	onPath  []bool
}

// enumFree is the free list of idle enumerators. Unlike a sync.Pool it
// keeps them across garbage collections, so a campaign that allocates
// between two enumerations does not regrow their storage from empty. It
// holds at most one enumerator per concurrent Enumerate caller.
var enumFree struct {
	mu   sync.Mutex
	list []*enumerator
}

// getEnumerator takes an idle enumerator off the free list, or makes one.
func getEnumerator() *enumerator {
	enumFree.mu.Lock()
	defer enumFree.mu.Unlock()
	n := len(enumFree.list)
	if n == 0 {
		return newEnumerator()
	}
	e := enumFree.list[n-1]
	enumFree.list = enumFree.list[:n-1]
	return e
}

// putEnumerator returns an idle enumerator to the free list.
func putEnumerator(e *enumerator) {
	enumFree.mu.Lock()
	enumFree.list = append(enumFree.list, e)
	enumFree.mu.Unlock()
}

// newEnumerator returns an enumerator with no storage yet.
func newEnumerator() *enumerator { return &enumerator{cur: &interp.Machine{}} }

// start readies a reused enumerator for a walk of c under model.
func (e *enumerator) start(c *interp.Compiled, model memmodel.Model, opts EnumOptions) {
	e.opts = opts
	e.chs, e.path = e.chs[:0], e.path[:0]
	e.seen.reset()
	e.prune = true
	e.sleep, e.zcur = e.sleep[:0], 0
	e.pathIdx, e.onPath = e.pathIdx[:0], e.onPath[:0]
	e.cur.Reset(c, model, nil)
}

// branch is a state on the current DFS path with untried transitions:
// chs[next:end] of the choice stack, each applied to a copy of the
// state's snapshot. Its own transitions occupy chs[start:end], its sleep
// set sleep[z0:z1], and it sits at pathIdx[depth-1].
type branch struct {
	start, next, end int
	z0, z1           int
	depth            int
}

// pruneHook, when non-nil, is called with each sleeping transition the
// walk skips, while e.cur holds the state it is skipped in. Tests set it
// to check that every skipped transition leads to an expanded state.
var pruneHook func(e *enumerator, ch *choice)

// Enumerate explores every schedule of prog under model within the
// budgets. prog must be linked.
func Enumerate(prog *ir.Program, model memmodel.Model, opts EnumOptions) *EnumResult {
	return enumerate(interp.Compile(prog), model, opts)
}

// enumerate is Enumerate of an already compiled program, so a caller
// enumerating one program under several models compiles it once.
func enumerate(c *interp.Compiled, model memmodel.Model, opts EnumOptions) *EnumResult {
	e := getEnumerator()
	defer putEnumerator(e)
	return e.walk(c, model, opts)
}

// walk is enumerate on e's storage.
func (e *enumerator) walk(c *interp.Compiled, model memmodel.Model, opts EnumOptions) *EnumResult {
	opts.fill()
	e.start(c, model, opts)
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
	for {
		start := len(e.chs)
		var stop bool
		if e.chs, stop = e.expand(res, e.chs); stop {
			break
		}
		switch len(e.chs) - start {
		case 0:
			// Terminal, already expanded, over the step budget, or every
			// transition asleep.
		case 1:
			// A single transition needs no snapshot: take it in place. The
			// child keeps the entries of this state's sleep set that
			// commute with it.
			ch := e.chs[start]
			e.chs = e.chs[:start]
			e.apply(e.cur, &ch)
			if e.prune {
				e.sleep = appendIndependent(e.sleep[:e.zcur], e.sleep[e.zcur:], &ch)
			}
			continue
		default:
			e.snapshot(len(e.path)).CopyFrom(e.cur)
			e.path = append(e.path, branch{start: start, next: start + 1, end: len(e.chs),
				z0: e.zcur, z1: len(e.sleep), depth: len(e.pathIdx)})
			e.descend(&e.path[len(e.path)-1], start)
			continue
		}
		// Backtrack to the deepest branching state and take its next
		// transition from a copy of its snapshot. The last one takes the
		// snapshot itself (it is not needed again) and retires the node.
		if len(e.path) == 0 {
			break
		}
		d := len(e.path) - 1
		b := &e.path[d]
		e.leave(b.depth)
		i := b.next
		b.next++
		if b.next == b.end {
			e.cur, e.snaps[d] = e.snaps[d], e.cur
		} else {
			e.cur.CopyFrom(e.snaps[d])
		}
		e.descend(b, i)
		if b.next == b.end {
			e.chs = e.chs[:b.start]
			e.path = e.path[:d]
		}
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

// descend takes e.chs[i], a transition of branch b, on the working
// machine (restored to b's state) and gives the child its sleep set: the
// entries of b's set and the siblings explored before e.chs[i] that
// commute with it.
func (e *enumerator) descend(b *branch, i int) {
	ch := &e.chs[i]
	e.apply(e.cur, ch)
	if !e.prune {
		return
	}
	e.sleep = e.sleep[:b.z1]
	e.zcur = b.z1
	e.sleep = appendIndependent(e.sleep, e.sleep[b.z0:b.z1], ch)
	e.sleep = appendIndependent(e.sleep, e.chs[b.start:i], ch)
}

// appendIndependent appends the transitions of from that commute with ch.
func appendIndependent(dst, from []choice, ch *choice) []choice {
	for i := range from {
		if independent(&from[i], ch) {
			dst = append(dst, from[i])
		}
	}
	return dst
}

// leave takes every state above pathIdx[:depth] off the DFS path: the
// walk is backtracking to the branching state at pathIdx[depth-1].
func (e *enumerator) leave(depth int) {
	if !e.prune {
		return
	}
	for _, idx := range e.pathIdx[depth:] {
		e.onPath[idx] = false
	}
	e.pathIdx = e.pathIdx[:depth]
}

// expand accounts for the state the walk just reached and appends its
// transitions to dst — none when the state is terminal, was expanded
// before, or lies past the step budget, and none that sleep. stop reports
// that the state budget tripped: further expansion cannot restore
// completeness.
func (e *enumerator) expand(res *EnumResult, dst []choice) (_ []choice, stop bool) {
	m := e.cur
	if m.Steps() >= e.opts.MaxSteps {
		res.Complete = false
		return dst, false
	}
	e.key = m.AppendStateKey(e.key[:0])
	h := e.seen.hash(e.key)
	if idx, dup := e.seen.find(h, e.key); dup {
		if e.prune && e.onPath[idx] {
			// The walk closed a cycle: this state's subtree is still
			// being explored, so a sleeping transition may no longer lead
			// to an expanded state.
			e.prune = false
		}
		return dst, false
	}
	if res.States >= e.opts.MaxStates {
		res.Complete = false
		return dst, true
	}
	idx := e.seen.add(h, e.key)
	if e.prune {
		e.pathIdx = append(e.pathIdx, idx)
		e.onPath = append(e.onPath, true)
	}
	res.States++

	if m.Done() {
		res.Paths++
		if v := m.Violation(); v != nil {
			res.Violations[violationString(v)] = true
		} else {
			// Only a new outcome allocates its string.
			e.outcome = appendOutcome(e.outcome[:0], m.Output(), m.ExitCode())
			if !res.Outcomes[string(e.outcome)] {
				res.Outcomes[string(e.outcome)] = true
			}
		}
		return dst, false
	}
	n := len(dst)
	dst = appendChoices(m, dst)
	if len(dst) == n {
		// No transition possible and not Done: a deadlock terminal
		// (e.g. a join on a thread that can never finish).
		res.Paths++
		res.Violations[violationString(&interp.Violation{
			Kind:  interp.VDeadlock,
			Label: ir.NoLabel,
			Msg:   "no thread can make progress",
		})] = true
		return dst, false
	}
	if e.prune && m.Steps()+e.opts.LocalRun+1 >= e.opts.MaxSteps {
		// A transition from here may end past the step budget, where the
		// walk stops without expanding: pruning needs every successor of
		// a finished state expanded.
		e.prune = false
	}
	if e.prune {
		dst = e.skipAsleep(dst, n)
	}
	return dst, false
}

// skipAsleep drops from dst[n:] the transitions in the current state's
// sleep set.
func (e *enumerator) skipAsleep(dst []choice, n int) []choice {
	sleep := e.sleep[e.zcur:]
	k := n
next:
	for i := n; i < len(dst); i++ {
		for j := range sleep {
			if sleep[j].same(&dst[i]) {
				if pruneHook != nil {
					pruneHook(e, &dst[i])
				}
				continue next
			}
		}
		dst[k] = dst[i]
		k++
	}
	return dst[:k]
}

// apply takes one transition on m and, while pruning, records its
// footprint in ch.fp.
func (e *enumerator) apply(m *interp.Machine, ch *choice) {
	var fp footprint
	switch {
	case ch.flush:
		fp.add(interp.StepAccess{Addr: ch.addr, Write: true})
		m.FlushOne(ch.tid, ch.addr)
	case ch.resolve:
		fp.add(interp.StepAccess{Addr: m.Thread(ch.tid).DeferredLoads()[ch.idx].Addr, Read: true})
		m.ResolveOne(ch.tid, ch.idx)
	default:
		if e.prune {
			fp.add(m.NextStepAccess(ch.tid))
		}
		kind := m.StepThread(ch.tid)
		// Local-run collapse (mirrors sched.Run's POR window): a thread
		// that only touched its registers keeps going —
		// interleaving those steps cannot change any observable outcome.
		for n := 0; kind == interp.StepLocal && n < e.opts.LocalRun; n++ {
			if m.Violation() != nil {
				break
			}
			if !m.CanExec(ch.tid) {
				// Blocked on a join: where the run stops depends on
				// another thread finishing.
				fp.global = true
				break
			}
			if e.prune {
				fp.add(m.NextStepAccess(ch.tid))
			}
			kind = m.StepThread(ch.tid)
		}
	}
	if m.Violation() != nil {
		fp.global = true
	}
	ch.fp = fp
}

// appendChoices appends the transitions available in m's current state
// in deterministic order: exec per thread id ascending, then flush per
// (thread id, pending address in canonical buffer order), then resolve
// per (thread id, deferred-load queue index). Resolves offer every queue
// index: out-of-order resolution is exactly the load reordering the
// deferring models exhibit, so skipping indices would prune reachable
// outcomes.
func appendChoices(m *interp.Machine, dst []choice) []choice {
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
		for _, addr := range m.Thread(tid).Buffers().PendingAddrsView() {
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

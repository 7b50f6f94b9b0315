package staticanalysis

// This file implements the static delay-set analysis, a Shasha–Snir-style
// over-approximation of the reorderings a store-buffer model can exhibit
// (cf. Alglave, Kroening, Nimal & Poetzl, "Don't sit on the fence"):
//
//   - Candidates over-approximate every ordering predicate [L ⊰ K] the
//     dynamic Collector can ever propose: L a shared store (whose
//     buffered write can commit late) or a shared load (whose deferred
//     read can resolve late, under load-deferring models), K a later
//     same-thread access whose class pair (class L, class K) the model's
//     reordering matrix relaxes, connected by an interprocedural path
//     free of instructions that order exactly that pair (see killsPair),
//     and not provably the same scalar location (the instrumented
//     semantics only report *other*-address pending accesses).
//   - Delays refine Candidates to the pairs lying on a critical cycle of
//     the static event graph: program-order edges within each thread
//     root, conflict edges between may-aliasing accesses of different
//     threads (at least one a write). Only delayed pairs can change
//     program behaviour, so they are the predicates worth enforcing.
//
// An empty delay set proves the program robust for the model — every
// execution is sequentially consistent — which is what lets
// core.Synthesize skip dynamic rounds entirely.

import (
	"fmt"
	"sort"
	"strings"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

// Pair is a static delay pair [L ⊰ K]: structurally identical to
// synth.Predicate (which this package cannot import without a cycle; the
// synthesis loop converts by field).
type Pair struct {
	L ir.Label
	K ir.Label
}

func (p Pair) String() string { return fmt.Sprintf("[L%d ⊰ L%d]", p.L, p.K) }

// CycleStep is one event of a critical-cycle witness.
type CycleStep struct {
	Thread string // root name, with "#2" marking the second instance
	Label  ir.Label
}

func (s CycleStep) String() string { return fmt.Sprintf("%s:L%d", s.Thread, s.Label) }

// Result holds the outcome of one static analysis.
type Result struct {
	Model memmodel.Model
	// Roots are the thread roots (the entry function and every fork
	// target), entry first, rest sorted.
	Roots []string
	// MultiInstance marks roots analysed as two concurrent instances
	// (every fork target: forks can run the same function twice, so
	// same-root conflicts must be considered).
	MultiInstance map[string]bool
	// Events is the number of static shared-access events (per root and
	// instance) in the event graph.
	Events int
	// Conflicts is the number of conflict edges (unordered pairs of
	// may-aliasing events of different threads, at least one a write).
	Conflicts int
	// Candidates over-approximates the predicates the dynamic engine can
	// propose; Delays are the candidates on a critical cycle. Both sorted.
	Candidates []Pair
	Delays     []Pair
	// Cycles maps each delay pair to one witness cycle: the events from K
	// through other threads back to a same-thread event preceding L (L's
	// and K's own events included as first and last steps).
	Cycles map[Pair][]CycleStep
	// EscapingGlobals lists the globals whose address escapes (sorted) —
	// unknown-address accesses may alias exactly these.
	EscapingGlobals []string
}

// Robust reports that the delay set is empty: no statically possible
// reordering lies on a critical cycle, so every execution under the model
// is sequentially consistent and fence synthesis has nothing to do.
func (r *Result) Robust() bool { return len(r.Delays) == 0 }

// DelaySet returns the delay pairs as a set.
func (r *Result) DelaySet() map[Pair]bool {
	out := make(map[Pair]bool, len(r.Delays))
	for _, p := range r.Delays {
		out[p] = true
	}
	return out
}

// CandidateSet returns the candidate pairs as a set.
func (r *Result) CandidateSet() map[Pair]bool {
	out := make(map[Pair]bool, len(r.Candidates))
	for _, p := range r.Candidates {
		out[p] = true
	}
	return out
}

// event is one static shared access of one thread instance.
type event struct {
	root    string
	inst    int // 0 or 1 (second instance of a forked root)
	rootIdx int // index into the per-root graphs
	node    int // node index within the root graph
	label   ir.Label
	kind    ir.Op // OpLoad, OpStore, or OpCas
	write   bool
	val     *aval
}

func (e *event) thread() string {
	if e.inst > 0 {
		return e.root + "#2"
	}
	return e.root
}

// Analyze verifies the program and computes its static delay set under
// the given memory model. Under SC both sets are empty by construction
// (no access kind is relaxed).
func Analyze(p *ir.Program, model memmodel.Model) (*Result, error) {
	if err := Verify(p); err != nil {
		return nil, err
	}
	a := &analysis{
		p:     p,
		model: model,
		esc:   computeEscapes(p),
		vals:  make(map[string][]aval),
		exact: make(map[string][]string),
	}
	for _, name := range p.FuncNames() {
		f := p.Funcs[name]
		a.vals[name] = addrSets(f)
		a.exact[name] = exactGlobals(f)
	}
	a.findRoots()
	a.buildEvents()
	a.findCandidates()
	a.findDelays()

	res := &Result{
		Model:         model,
		Roots:         a.roots,
		MultiInstance: a.multi,
		Events:        len(a.events),
		Conflicts:     a.conflicts,
		Candidates:    a.candidates,
		Delays:        a.delays,
		Cycles:        a.cycles,
	}
	res.EscapingGlobals = sortedKeys(a.esc.globals)
	return res, nil
}

type analysis struct {
	p     *ir.Program
	model memmodel.Model
	esc   *escapeInfo
	vals  map[string][]aval
	exact map[string][]string

	roots  []string
	multi  map[string]bool
	graphs []*rootGraph

	events    []event
	byRoot    [][]int // event indices per (rootIdx, inst) flattened pairs, see eventsOf
	cf        [][]int // conflict adjacency per event index
	conflicts int

	candidates []Pair
	// candSites records where each candidate was found, for the cycle
	// check: (rootIdx, L node, K node).
	candSites map[Pair][][3]int

	delays []Pair
	cycles map[Pair][]CycleStep
}

// findRoots collects the entry function and every OpFork target. Fork
// targets are conservatively treated as multi-instance: nothing bounds
// how many threads a program forks onto the same function, and two
// instances of one function conflict with each other.
func (a *analysis) findRoots() {
	a.multi = make(map[string]bool)
	set := map[string]bool{a.p.Entry: true}
	for _, name := range a.p.FuncNames() {
		f := a.p.Funcs[name]
		for i := range f.Code {
			in := &f.Code[i]
			if in.Op == ir.OpFork {
				set[in.Func] = true
				a.multi[in.Func] = true
			}
		}
	}
	var rest []string
	for name := range set {
		if name != a.p.Entry {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	a.roots = append([]string{a.p.Entry}, rest...)
	a.graphs = make([]*rootGraph, len(a.roots))
	for i, r := range a.roots {
		a.graphs[i] = buildRootGraph(a.p, r)
	}
}

// buildEvents enumerates the shared-access events of every thread
// instance and the conflict edges between them.
func (a *analysis) buildEvents() {
	for ri, g := range a.graphs {
		insts := 1
		if a.multi[a.roots[ri]] {
			insts = 2
		}
		for inst := 0; inst < insts; inst++ {
			for n := range g.nodes {
				in := g.instr(n)
				if !in.IsSharedAccess() {
					continue
				}
				fn := g.nodes[n].fn
				a.events = append(a.events, event{
					root:    a.roots[ri],
					inst:    inst,
					rootIdx: ri,
					node:    n,
					label:   in.Label,
					kind:    in.Op,
					write:   in.Op == ir.OpStore || in.Op == ir.OpCas,
					val:     &a.vals[fn.Name][in.A],
				})
			}
		}
	}
	a.cf = make([][]int, len(a.events))
	for i := range a.events {
		for j := i + 1; j < len(a.events); j++ {
			ei, ej := &a.events[i], &a.events[j]
			if ei.rootIdx == ej.rootIdx && ei.inst == ej.inst {
				continue // same thread: program order, not conflict
			}
			if !ei.write && !ej.write {
				continue // two reads never conflict
			}
			if !mayAlias(ei.val, ej.val, a.esc) {
				continue
			}
			a.cf[i] = append(a.cf[i], j)
			a.cf[j] = append(a.cf[j], i)
			a.conflicts++
		}
	}
}

// killsPair reports whether executing in ends the reorderability of a
// pending class-a access with any later class-b access, under model:
//
//   - A fence kills exactly the class pairs its declared coverage orders
//     (FenceKind.Orders). Runtime over-delivery — a draining st-ld fence
//     also orders st-st, a load-resolving release fence also orders
//     ld-ld — only makes the dynamic engine propose fewer predicates,
//     which keeps the static candidates a superset.
//   - Fork is a full barrier: the interpreter drains the parent's
//     buffers and resolves its deferred loads before the child starts.
//   - Call, return, and join force the deferred-load queue to resolve
//     (frames change, and registers must be concrete across them) but
//     leave buffered stores pending.
//   - CAS resolves the deferred-load queue, and on models with a single
//     FIFO buffer (TSO) it also drains every pending store first. Under
//     PSO/RMO it drains only its own address's buffer, so it is
//     pending-transparent for store-class accesses (a sound
//     over-approximation).
//
// For a == ClassLoad the caller must additionally kill on instructions
// that use or redefine the deferred load's destination register (the
// interpreter force-resolves on dependency) — see findCandidates.
func killsPair(in *ir.Instr, model memmodel.Model, a, b ir.AccessClass) bool {
	switch in.Op {
	case ir.OpFence:
		return in.Kind.Orders(a, b)
	case ir.OpFork:
		return true
	case ir.OpCall, ir.OpRet, ir.OpJoin:
		return a == ir.ClassLoad
	case ir.OpCas:
		return a == ir.ClassLoad || !model.RelaxesStoreStore()
	}
	return false
}

// killsBeforeCas is the kill rule for a pending store-class access whose
// K is a CAS. A CAS commits its write directly to memory, bypassing the
// store buffers, so only a fence that drains the buffers orders a pending
// store before it: every store-ordering kind does (FenceKind.DrainsStores),
// a load-ordering kind does not.
func killsBeforeCas(in *ir.Instr, model memmodel.Model) bool {
	switch in.Op {
	case ir.OpFence:
		return in.Kind.DrainsStores()
	case ir.OpFork:
		return true
	case ir.OpCas:
		return !model.RelaxesStoreStore()
	}
	return false
}

// sameScalar reports that both accesses provably address the same
// single-word global, in which case the instrumented semantics can never
// pair them: pending stores to the access's own address are excluded
// (memmodel.PendingOther).
func (a *analysis) sameScalar(fL *ir.Func, L *ir.Instr, fK *ir.Func, K *ir.Instr) bool {
	gl := a.exact[fL.Name][L.A]
	if gl == "" || gl != a.exact[fK.Name][K.A] {
		return false
	}
	g := a.p.Global(gl)
	return g != nil && g.Size == 1
}

// findCandidates enumerates, per root, every (shared access L, later
// access K) pair whose class pair the model relaxes, connected by a
// kill-free path. L is a shared store (its buffered write can commit
// late) or a shared load (its deferred read can resolve late); a CAS
// never appears as L — it executes atomically, in place. The kill set
// depends on the class pair — an (a, b)-covering fence orders only that
// pair — so reachability is computed once per relaxed pair, and for a
// deferred load additionally kills on any instruction that uses or
// redefines its destination register (the interpreter force-resolves on
// dependency). CAS K's of a pending store consult a separate
// reachability under the stricter killsBeforeCas rule.
func (a *analysis) findCandidates() {
	a.candSites = make(map[Pair][][3]int)
	seen := make(map[Pair]bool)
	var regs []ir.Reg
	for ri, g := range a.graphs {
		for n := range g.nodes {
			in := g.instr(n)
			var ca ir.AccessClass
			switch {
			case in.Op == ir.OpStore:
				ca = ir.ClassStore
			case in.Op == ir.OpLoad:
				ca = ir.ClassLoad
			default:
				continue
			}
			for _, cb := range ir.AccessClasses() {
				if !a.model.Relaxes(ca, cb) {
					continue
				}
				kill := func(x *ir.Instr) bool {
					if killsPair(x, a.model, ca, cb) {
						return true
					}
					if ca != ir.ClassLoad {
						return false
					}
					// Dependency on the deferred load's destination
					// forces resolution. Register numbers are
					// per-function, but every interprocedural edge goes
					// through a call or ret, which kill load-class
					// pending above — so the comparison never crosses a
					// function boundary.
					if x.Def() == in.Dst {
						return true
					}
					regs = x.Uses(regs[:0])
					for _, r := range regs {
						if r == in.Dst {
							return true
						}
					}
					return false
				}
				pending := g.pendingReach(n, kill)
				var pendingCas bitvec
				if ca == ir.ClassStore && cb == ir.ClassStore {
					pendingCas = g.pendingReach(n, func(x *ir.Instr) bool {
						return killsBeforeCas(x, a.model)
					})
				}
				for m := range g.nodes {
					k := g.instr(m)
					if !k.IsSharedAccess() {
						continue
					}
					kc, _ := ir.ClassOf(k.Op)
					if kc != cb {
						continue
					}
					set := pending
					if k.Op == ir.OpCas && pendingCas != nil {
						set = pendingCas
					}
					if !set.has(m) {
						continue
					}
					if a.sameScalar(g.nodes[n].fn, in, g.nodes[m].fn, k) {
						continue
					}
					pair := Pair{L: in.Label, K: k.Label}
					if !seen[pair] {
						seen[pair] = true
						a.candidates = append(a.candidates, pair)
					}
					a.candSites[pair] = append(a.candSites[pair], [3]int{ri, n, m})
				}
			}
		}
	}
	sortPairs(a.candidates)
}

// findDelays keeps the candidates that lie on a critical cycle: from K,
// leave the thread on a conflict edge, move along program-order and
// conflict edges of other thread instances, and re-enter instance 0 of
// K's root at an event M with M →po* L. The cycle then closes as
// M →po L →po K →cf … →cf M.
func (a *analysis) findDelays() {
	a.cycles = make(map[Pair][]CycleStep)
	// Index events by (rootIdx, inst, node) and list them per instance.
	type instKey struct {
		ri, inst int
	}
	byNode := make(map[[3]int]int)
	byInst := make(map[instKey][]int)
	for i := range a.events {
		e := &a.events[i]
		byNode[[3]int{e.rootIdx, e.inst, e.node}] = i
		k := instKey{e.rootIdx, e.inst}
		byInst[k] = append(byInst[k], i)
	}

	poSucc := func(i int) []int {
		e := &a.events[i]
		g := a.graphs[e.rootIdx]
		r := g.reach(e.node)
		var out []int
		for _, j := range byInst[instKey{e.rootIdx, e.inst}] {
			if j != i && r.has(a.events[j].node) {
				out = append(out, j)
			}
		}
		return out
	}

	for _, pair := range a.candidates {
		found := false
		for _, site := range a.candSites[pair] {
			ri, ln, kn := site[0], site[1], site[2]
			kev, ok := byNode[[3]int{ri, 0, kn}]
			if !ok {
				continue
			}
			parent := make(map[int]int)
			var work []int
			for _, nb := range a.cf[kev] {
				if _, dup := parent[nb]; !dup {
					parent[nb] = -1
					work = append(work, nb)
				}
			}
			for len(work) > 0 && !found {
				cur := work[0]
				work = work[1:]
				e := &a.events[cur]
				if e.rootIdx == ri && e.inst == 0 {
					// Re-entered the delayed thread: the cycle closes iff
					// this event M precedes (or is) L in program order.
					if e.node == ln || a.graphs[ri].reach(e.node).has(ln) {
						found = true
						a.cycles[pair] = a.witness(pair, kev, cur, parent, ln, ri)
					}
					continue
				}
				for _, nb := range poSucc(cur) {
					if _, dup := parent[nb]; !dup {
						parent[nb] = cur
						work = append(work, nb)
					}
				}
				for _, nb := range a.cf[cur] {
					if _, dup := parent[nb]; !dup {
						parent[nb] = cur
						work = append(work, nb)
					}
				}
			}
			if found {
				break
			}
		}
		if found {
			a.delays = append(a.delays, pair)
		}
	}
	sortPairs(a.delays)
}

// witness reconstructs the cycle path K → … → M (→ L) for reporting.
func (a *analysis) witness(pair Pair, kev, m int, parent map[int]int, ln, ri int) []CycleStep {
	var rev []int
	for cur := m; cur != -1; cur = parent[cur] {
		rev = append(rev, cur)
	}
	steps := []CycleStep{{Thread: a.events[kev].thread(), Label: pair.K}}
	for i := len(rev) - 1; i >= 0; i-- {
		e := &a.events[rev[i]]
		steps = append(steps, CycleStep{Thread: e.thread(), Label: e.label})
	}
	steps = append(steps, CycleStep{Thread: a.events[kev].thread(), Label: pair.L})
	return steps
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].L != ps[j].L {
			return ps[i].L < ps[j].L
		}
		return ps[i].K < ps[j].K
	})
}

// describeAccess renders one labelled access for reports: kind, global (if
// exact), function, and source line.
func (r *Result) describeAccess(p *ir.Program, l ir.Label) string {
	f := p.FuncOf(l)
	in := p.InstrAt(l)
	if f == nil || in == nil {
		return fmt.Sprintf("L%d", l)
	}
	var b strings.Builder
	b.WriteString(in.Op.String())
	if in.Comment != "" {
		fmt.Fprintf(&b, " (%s)", in.Comment)
	}
	fmt.Fprintf(&b, " in %s", f.Name)
	if in.Line > 0 {
		fmt.Fprintf(&b, ":%d", in.Line)
	}
	return b.String()
}

// Report renders the analysis human-readably — the output of the `dfence
// analyze` subcommand.
func (r *Result) Report(p *ir.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "verifier: ok\nmodel: %v\n", r.Model)
	parts := make([]string, len(r.Roots))
	for i, root := range r.Roots {
		parts[i] = root
		if r.MultiInstance[root] {
			parts[i] += "*"
		}
	}
	fmt.Fprintf(&b, "threads: %s (* = forked; analysed as two concurrent instances)\n", strings.Join(parts, ", "))
	fmt.Fprintf(&b, "events: %d shared accesses, %d conflict edges\n", r.Events, r.Conflicts)
	if len(r.EscapingGlobals) > 0 {
		fmt.Fprintf(&b, "escaping globals: %s\n", strings.Join(r.EscapingGlobals, ", "))
	}
	fmt.Fprintf(&b, "candidate pairs (dynamically proposable): %d\n", len(r.Candidates))
	for _, c := range r.Candidates {
		fmt.Fprintf(&b, "  %v  %s  ->  %s\n", c, r.describeAccess(p, c.L), r.describeAccess(p, c.K))
	}
	fmt.Fprintf(&b, "delay pairs (on a critical cycle): %d\n", len(r.Delays))
	for _, d := range r.Delays {
		fmt.Fprintf(&b, "  %v  %s  ->  %s\n", d, r.describeAccess(p, d.L), r.describeAccess(p, d.K))
		if cyc := r.Cycles[d]; len(cyc) > 0 {
			strs := make([]string, len(cyc))
			for i, s := range cyc {
				strs[i] = s.String()
			}
			fmt.Fprintf(&b, "    cycle: %s\n", strings.Join(strs, " -> "))
		}
	}
	if r.Robust() {
		b.WriteString("robust: yes — no relaxation lies on a critical cycle; every execution is sequentially consistent\n")
	} else {
		fmt.Fprintf(&b, "robust: no (%d delay pair(s) need ordering)\n", len(r.Delays))
	}
	return b.String()
}

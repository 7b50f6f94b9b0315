package synth

import (
	"fmt"
	"sort"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/staticanalysis"
)

// verifyMutation re-verifies a program after a fence mutation. Every
// insertion and removal path funnels through it so a synthesis step can
// never hand a corrupted program to the next round.
func verifyMutation(prog *ir.Program, what string) error {
	if err := staticanalysis.Verify(prog); err != nil {
		return fmt.Errorf("synth: program failed verification after %s: %w", what, err)
	}
	return nil
}

// InsertedFence describes one fence placed by Enforce.
type InsertedFence struct {
	// After is the label of the store the fence follows (the L of the
	// predicates it enforces).
	After ir.Label
	// Label is the fence instruction's own label.
	Label ir.Label
	Kind  ir.FenceKind
	// Func is the containing function's name.
	Func string
}

func (f InsertedFence) String() string {
	return fmt.Sprintf("%s in %s after L%d", f.Kind, f.Func, f.After)
}

// needSet accumulates the ordering requirements of one fence site (the l
// of a predicate group): which class pairs the fence must restore, and
// whether some K is a CAS whose write only a draining fence can order
// (the CAS write bypasses the store buffers, so no load-ordering kind
// orders a pending store before it — the same rule
// staticanalysis.CoveringKinds applies).
type needSet struct {
	pairs    [2][2]bool // [class of l][class of k], indexed by ir.AccessClass
	casDrain bool
}

// covers reports whether a fence kind's operational guarantee meets
// every requirement in n. Dynamic synthesis validates fences by
// re-executing, so the runtime coverage (OrdersAtRuntime) is the right
// table here — a draining st-ld fence legitimately discharges a
// store-store requirement.
func (n *needSet) covers(k ir.FenceKind) bool {
	if n.casDrain && !k.DrainsStores() {
		return false
	}
	for _, a := range ir.AccessClasses() {
		for _, b := range ir.AccessClasses() {
			if n.pairs[a][b] && !k.OrdersAtRuntime(a, b) {
				return false
			}
		}
	}
	return true
}

// coversDeclared is covers against the declared table (Orders) — the
// tie-break preference: among equally cheap covering kinds, one that
// also declares its coverage keeps the fenced program statically clean.
func (n *needSet) coversDeclared(k ir.FenceKind) bool {
	if n.casDrain && !k.DrainsStores() {
		return false
	}
	for _, a := range ir.AccessClasses() {
		for _, b := range ir.AccessClasses() {
			if n.pairs[a][b] && !k.Orders(a, b) {
				return false
			}
		}
	}
	return true
}

// cheapestKind selects the covering fence kind with the lowest per-model
// cost; ties prefer declared coverage, then FenceKinds order. FenceFull
// covers everything, so a kind always exists.
func cheapestKind(model memmodel.Model, n *needSet) ir.FenceKind {
	best := ir.FenceFull
	bestCost := 0
	found := false
	bestDecl := false
	for _, k := range ir.FenceKinds() {
		if !n.covers(k) {
			continue
		}
		c := model.FenceCost(k)
		d := n.coversDeclared(k)
		if !found || c < bestCost || (c == bestCost && d && !bestDecl) {
			best, bestCost, bestDecl, found = k, c, d, true
		}
	}
	return best
}

// Enforce realizes a satisfying assignment as fences (Algorithm 2): for
// every predicate [l ⊰ k] it inserts a fence immediately after label l.
// Predicates sharing the same l are enforced by a single fence whose
// kind is the cheapest (per model.FenceCost) whose runtime coverage
// restores every required class pair — the generalization of the paper's
// "we insert a more specific fence (store-load or store-store) depending
// on whether the statement at k is a load or a store" to the full fence
// vocabulary: load-K stores still get st-ld, store-K stores get st-st,
// mixed sites get the draining st-ld, and deferred-load predicates (RMO)
// get ld-ld/ld-st/acquire as their K classes demand.
func Enforce(prog *ir.Program, model memmodel.Model, preds []Predicate) ([]InsertedFence, error) {
	// Group the required class pairs by l.
	needs := make(map[ir.Label]*needSet)
	for _, p := range preds {
		lin := prog.InstrAt(p.L)
		if lin == nil {
			return nil, fmt.Errorf("synth: predicate references unknown label L%d", p.L)
		}
		la, ok := ir.ClassOf(lin.Op)
		if !ok {
			return nil, fmt.Errorf("synth: predicate L%d is not a shared access (%v)", p.L, lin.Op)
		}
		n := needs[p.L]
		if n == nil {
			n = &needSet{}
			needs[p.L] = n
		}
		kin := prog.InstrAt(p.K)
		switch {
		case kin != nil && kin.Op == ir.OpCas && la == ir.ClassStore:
			n.casDrain = true
		case kin != nil && kin.Op == ir.OpLoad:
			n.pairs[la][ir.ClassLoad] = true
		default:
			n.pairs[la][ir.ClassStore] = true
		}
	}
	ls := make([]ir.Label, 0, len(needs))
	for l := range needs {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })

	var out []InsertedFence
	for _, l := range ls {
		f := prog.FuncOf(l)
		if f == nil {
			return nil, fmt.Errorf("synth: predicate references unknown label L%d", l)
		}
		kind := cheapestKind(model, needs[l])
		// If a fence already directly follows l and its runtime coverage
		// meets this site's requirements, skip instead of stacking
		// another one; an uncovering fence (e.g. a ld-ld fence where a
		// drain is now needed) does not suppress insertion.
		idx := f.IndexOf(l)
		if idx+1 < len(f.Code) && f.Code[idx+1].Op == ir.OpFence && needs[l].covers(f.Code[idx+1].Kind) {
			continue
		}
		fl, err := prog.InsertFenceAfter(l, kind)
		if err != nil {
			return nil, err
		}
		out = append(out, InsertedFence{After: l, Label: fl, Kind: kind, Func: f.Name})
	}
	if err := verifyMutation(prog, "fence insertion (Enforce)"); err != nil {
		return nil, err
	}
	return out, nil
}

// InsertFences re-applies previously computed fences onto a fresh clone of
// the base program (each InsertedFence.After is a base-program label, which
// clones share). Used by the validation pass to try fence subsets.
func InsertFences(prog *ir.Program, fences []InsertedFence) ([]InsertedFence, error) {
	out := make([]InsertedFence, 0, len(fences))
	for _, f := range fences {
		fn := prog.FuncOf(f.After)
		if fn == nil {
			return nil, fmt.Errorf("synth: InsertFences: label L%d not found", f.After)
		}
		idx := fn.IndexOf(f.After)
		if idx+1 < len(fn.Code) && fn.Code[idx+1].Op == ir.OpFence && fn.Code[idx+1].Kind == f.Kind {
			continue
		}
		nl, err := prog.InsertFenceAfter(f.After, f.Kind)
		if err != nil {
			return nil, err
		}
		out = append(out, InsertedFence{After: f.After, Label: nl, Kind: f.Kind, Func: fn.Name})
	}
	if err := verifyMutation(prog, "fence insertion (InsertFences)"); err != nil {
		return nil, err
	}
	return out, nil
}

// pairMask is a set of (class, class) ordering pairs, one bit per pair.
type pairMask uint8

func pairMaskBit(a, b ir.AccessClass) pairMask { return 1 << (uint(a)*2 + uint(b)) }

// runtimePairs returns the fence kind's operational guarantee as a pair
// set. DrainsStores is equivalent to the (st, ld) bit (every draining
// kind orders store-load at runtime and vice versa), so the mask captures
// the CAS-ordering property too.
func runtimePairs(k ir.FenceKind) pairMask {
	var m pairMask
	for _, a := range ir.AccessClasses() {
		for _, b := range ir.AccessClasses() {
			if k.OrdersAtRuntime(a, b) {
				m |= pairMaskBit(a, b)
			}
		}
	}
	return m
}

// maskRowSt / maskRowLd select the pairs invalidated by a new shared
// store (pending store-class entry) or shared load (pending deferred
// load) respectively.
var (
	maskRowSt = pairMaskBit(ir.ClassStore, ir.ClassLoad) | pairMaskBit(ir.ClassStore, ir.ClassStore)
	maskRowLd = pairMaskBit(ir.ClassLoad, ir.ClassLoad) | pairMaskBit(ir.ClassLoad, ir.ClassStore)
)

// MergeFences implements the paper's fence-combining optimization: "a
// simple static analysis which eliminates a fence if it can prove that it
// always follows a previous fence statement in program order, with no
// store statements on shared variables occurring in between" — lifted to
// the full fence vocabulary.
//
// It runs a forward dataflow per function over the CFG whose state is the
// set of class pairs (a, b) certainly ordered on every incoming path: a
// fence whose runtime coverage includes (a, b) has executed with no
// class-a shared access after it (meet = intersection, entry = empty). A
// fence whose runtime coverage is contained in its entry state guarantees
// nothing new and is removed. Removal is order-insensitive: a removable
// fence's transfer is the identity on the fixpoint state, so deleting it
// never weakens the protection of a later fence. Returns the number of
// fences removed.
func MergeFences(prog *ir.Program) (int, error) {
	removed := 0
	for _, name := range prog.FuncNames() {
		removed += mergeFunc(prog.Funcs[name])
	}
	if removed > 0 {
		if err := verifyMutation(prog, "fence removal (MergeFences)"); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

func mergeFunc(f *ir.Func) int {
	n := len(f.Code)
	// protectedIn[i]: pairs ordered on every path reaching instruction i.
	// Initialized to empty and grown to the least fixpoint — conservative
	// (loop heads stay unprotected), which only suppresses removals.
	protectedIn := make([]pairMask, n)
	preds := predecessors(f)

	changed := true
	for changed {
		changed = false
		for i := 0; i < n; i++ {
			var in pairMask
			if ps := preds[i]; len(ps) == 0 {
				in = 0 // function entry (or unreachable): conservative
			} else {
				in = ^pairMask(0)
				for _, p := range ps {
					in &= transfer(&f.Code[p], protectedIn[p])
				}
			}
			if in != protectedIn[i] {
				protectedIn[i] = in
				changed = true
			}
		}
	}

	// Remove redundant fences (back to front so indices stay valid). A
	// fence that is itself a branch target is removable too: branches to it
	// are retargeted to its successor (a fence is never a terminator, so a
	// successor always exists).
	removed := 0
	for i := n - 1; i >= 0; i-- {
		if f.Code[i].Op != ir.OpFence {
			continue
		}
		if m := runtimePairs(f.Code[i].Kind); m&^protectedIn[i] != 0 {
			continue
		}
		dead := f.Code[i].Label
		succ := f.Code[i+1].Label
		for j := range f.Code {
			in := &f.Code[j]
			if in.Op != ir.OpBr && in.Op != ir.OpCondBr {
				continue
			}
			if in.Target == dead {
				in.Target = succ
			}
			if in.Op == ir.OpCondBr && in.Target2 == dead {
				in.Target2 = succ
			}
		}
		f.Code = append(f.Code[:i], f.Code[i+1:]...)
		removed++
	}
	if removed > 0 {
		f.Rebuild()
	}
	return removed
}

// transfer computes the protected pair set after executing instruction in
// with the given entry state.
func transfer(in *ir.Instr, protected pairMask) pairMask {
	switch in.Op {
	case ir.OpFence:
		return protected | runtimePairs(in.Kind)
	case ir.OpCas:
		// CAS drains the relevant buffer but under PSO only that address's
		// buffer, and its write bypasses the buffers entirely.
		// Conservatively unprotect everything.
		return 0
	case ir.OpStore:
		return protected &^ maskRowSt
	case ir.OpLoad:
		return protected &^ maskRowLd
	case ir.OpCall, ir.OpFork:
		// The callee may access shared memory; conservative.
		return 0
	default:
		return protected
	}
}

// predecessors computes the CFG predecessor lists by instruction index.
func predecessors(f *ir.Func) [][]int {
	n := len(f.Code)
	preds := make([][]int, n)
	addEdge := func(from, to int) {
		if to >= 0 && to < n {
			preds[to] = append(preds[to], from)
		}
	}
	for i := 0; i < n; i++ {
		in := &f.Code[i]
		switch in.Op {
		case ir.OpBr:
			addEdge(i, f.IndexOf(in.Target))
		case ir.OpCondBr:
			addEdge(i, f.IndexOf(in.Target))
			addEdge(i, f.IndexOf(in.Target2))
		case ir.OpRet:
			// no successor
		default:
			addEdge(i, i+1)
		}
	}
	return preds
}

package synth

import (
	"fmt"
	"sort"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/staticanalysis"
)

// verifyMutation re-verifies a program after a fence insertion. Every
// insertion path funnels through it so a synthesis step can never hand a
// corrupted program to the next round.
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
// clones share). Used to resume a journaled run, to rebuild a round's
// program for `dfence explain`, and to rebuild the validated result from
// the kept fences.
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

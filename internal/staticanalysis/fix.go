package staticanalysis

// Cost-aware static fence synthesis. Where core.Synthesize repairs a
// program by observing violating executions, Fix repairs it from the
// delay-set analysis alone: every delay pair [L ⊰ K] must be ordered by
// some fence placed directly after L (a fence there dominates every
// L → K path — L is a load or store, so it has a single successor), and
// the choice of fence kinds is a weighted hitting-set problem over the
// per-model fence cost table (memmodel.Model.FenceCost). Subset-minimal
// hitting sets are enumerated through the same SAT core the dynamic loop
// uses (one round of sat.Incremental over a monotone positive CNF), and
// the cheapest one wins — which is not always the smallest: under RMO, a ld-ld plus a
// st-st fence (cost 2+2) beats one full fence (cost 8) when a location
// has both load- and store-class delays.
//
// The result is sound by construction — each clause only admits kinds
// whose insertion kills the pair under the same rules Analyze applies —
// and Fix re-analyses the fenced clone as a defense-in-depth gate.

import (
	"fmt"
	"sort"
	"strings"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/sat"
)

// Placement is one fence chosen by the static synthesis: a fence of Kind
// inserted directly after the instruction labelled After.
type Placement struct {
	After ir.Label
	Kind  ir.FenceKind
	// Cost is the model's cost of this fence kind at synthesis time.
	Cost int
	// Func names the containing function, for reports.
	Func string
}

func (p Placement) String() string {
	return fmt.Sprintf("%v after L%d in %s (cost %d)", p.Kind, p.After, p.Func, p.Cost)
}

// FixResult is the outcome of one static synthesis.
type FixResult struct {
	// Analysis is the delay-set analysis of the input program.
	Analysis *Result
	// Placements is the chosen repair, sorted by (After, kind order).
	// Empty iff the program is already robust.
	Placements []Placement
	// TotalCost is the summed cost of Placements.
	TotalCost int
	// BaselineCost is the cost of the trivial repair — one full fence
	// after every distinct delay L. TotalCost never exceeds it.
	BaselineCost int
	// SolverStats records the hitting-set enumeration's effort.
	SolverStats sat.Stats
	// Truncated reports that the solver budget tripped: the enumeration
	// may have missed cheaper hitting sets.
	Truncated bool
	// Baseline reports that the full-fence baseline was used because the
	// truncated enumeration produced nothing cheaper.
	Baseline bool
}

// Report renders the synthesis human-readably — the output of
// `dfence analyze -fix`.
func (fr *FixResult) Report(p *ir.Program) string {
	var b strings.Builder
	if fr.Analysis.Robust() {
		b.WriteString("static fix: program already robust, no fences needed\n")
		return b.String()
	}
	fmt.Fprintf(&b, "static fix: %d fence(s), total cost %d (all-full-fence baseline %d)\n",
		len(fr.Placements), fr.TotalCost, fr.BaselineCost)
	for _, pl := range fr.Placements {
		fmt.Fprintf(&b, "  %v after %s\n", pl.Kind, fr.Analysis.describeAccess(p, pl.After))
	}
	if fr.Truncated {
		b.WriteString("solver enumeration truncated by budget (placement best-effort, not provably cheapest)\n")
	}
	if fr.Baseline {
		b.WriteString("fell back to the full-fence baseline\n")
	}
	return b.String()
}

// CoveringKinds returns the fence kinds that, inserted between a pending
// class-a access and a later instruction of opcode kop (OpLoad, OpStore,
// or OpCas), restore their order per the analysis's kill rules: the
// declared coverage Orders(a, class(kop)), except that a CAS K of a
// pending store requires a kind that drains the store buffers — the CAS
// write bypasses them, so only a drain orders the pending store before it
// (see killsBeforeCas). Returned in FenceKinds order; never empty, since
// FenceFull both orders every pair and drains.
func CoveringKinds(a ir.AccessClass, kop ir.Op) []ir.FenceKind {
	b, _ := ir.ClassOf(kop)
	var out []ir.FenceKind
	for _, k := range ir.FenceKinds() {
		if a == ir.ClassStore && kop == ir.OpCas {
			if k.DrainsStores() {
				out = append(out, k)
			}
			continue
		}
		if k.Orders(a, b) {
			out = append(out, k)
		}
	}
	return out
}

// fixSolverBudget bounds the hitting-set enumeration. Delay sets are
// litmus-sized (tens of pairs), so the cap exists as a backstop, not a
// tuning knob; hitting it degrades to the baseline repair.
var fixSolverBudget = sat.Budget{MaxModels: 4096}

// Fix computes a minimum-cost static fence placement for prog under
// model: a set of fences, each directly after a delay pair's L, that
// kills every delay pair, minimizing the summed per-model fence cost.
// The placement is deterministic — the same program and model always
// yield the identical result — and is verified by re-analysing a fenced
// clone before returning. prog itself is not modified.
func Fix(prog *ir.Program, model memmodel.Model) (*FixResult, error) {
	res, err := Analyze(prog, model)
	if err != nil {
		return nil, err
	}
	fr := &FixResult{Analysis: res}
	if res.Robust() {
		return fr, nil
	}

	// One variable per (L, kind) that covers at least one delay pair at
	// L; one clause per delay pair. Delays are sorted and FenceKinds is
	// fixed, so variable numbering — and with it the solver's model
	// order — is deterministic.
	type pvar struct {
		l    ir.Label
		kind ir.FenceKind
	}
	var vars []pvar
	varIdx := make(map[pvar]int)
	clauses := make([][]sat.Lit, 0, len(res.Delays))
	seenL := make(map[ir.Label]bool)
	var ls []ir.Label
	for _, d := range res.Delays {
		lin, kin := prog.InstrAt(d.L), prog.InstrAt(d.K)
		if lin == nil || kin == nil {
			return nil, fmt.Errorf("staticanalysis: delay pair %v references unknown labels", d)
		}
		la, ok := ir.ClassOf(lin.Op)
		if !ok {
			return nil, fmt.Errorf("staticanalysis: delay L%d is not a shared access", d.L)
		}
		if !seenL[d.L] {
			seenL[d.L] = true
			ls = append(ls, d.L)
		}
		var cl []sat.Lit
		for _, k := range CoveringKinds(la, kin.Op) {
			v := pvar{d.L, k}
			idx, ok := varIdx[v]
			if !ok {
				idx = len(vars) + 1 // SAT variables are 1-based
				varIdx[v] = idx
				vars = append(vars, v)
			}
			cl = append(cl, sat.Lit(idx))
		}
		clauses = append(clauses, cl)
	}
	fr.BaselineCost = len(ls) * model.FenceCost(ir.FenceFull)

	inc := sat.NewIncremental()
	inc.EnsureVars(len(vars))
	for _, cl := range clauses {
		inc.AddClause(cl)
	}
	models, truncated := inc.MinimalModels(fixSolverBudget, &fr.SolverStats)
	fr.Truncated = truncated

	// Pick the cheapest hitting set; the enumeration order (size, then
	// lexicographic) breaks cost ties deterministically.
	best := -1
	bestCost := 0
	for i, m := range models {
		c := 0
		for _, v := range m {
			c += model.FenceCost(vars[v-1].kind)
		}
		if best < 0 || c < bestCost {
			best, bestCost = i, c
		}
	}
	if best < 0 || bestCost > fr.BaselineCost {
		// Only reachable when truncation cut the enumeration before any
		// subset of the baseline solution appeared (every superset of a
		// hitting set contains a minimal one no costlier than itself).
		fr.Baseline = true
		for _, l := range ls {
			fr.Placements = append(fr.Placements, Placement{
				After: l, Kind: ir.FenceFull,
				Cost: model.FenceCost(ir.FenceFull),
				Func: prog.FuncOf(l).Name,
			})
		}
		fr.TotalCost = fr.BaselineCost
	} else {
		for _, v := range models[best] {
			pv := vars[v-1]
			fr.Placements = append(fr.Placements, Placement{
				After: pv.l, Kind: pv.kind,
				Cost: model.FenceCost(pv.kind),
				Func: prog.FuncOf(pv.l).Name,
			})
		}
		fr.TotalCost = bestCost
	}
	kindOrder := make(map[ir.FenceKind]int, len(ir.FenceKinds()))
	for i, k := range ir.FenceKinds() {
		kindOrder[k] = i
	}
	sort.Slice(fr.Placements, func(i, j int) bool {
		if fr.Placements[i].After != fr.Placements[j].After {
			return fr.Placements[i].After < fr.Placements[j].After
		}
		return kindOrder[fr.Placements[i].Kind] < kindOrder[fr.Placements[j].Kind]
	})

	// Defense-in-depth: the fenced program must verify and re-analyse as
	// robust. Fences only add kills, so candidates shrink and the hit
	// pairs vanish; a failure here is an internal invariant break.
	check := prog.Clone()
	if err := Apply(check, fr.Placements); err != nil {
		return nil, err
	}
	re, err := Analyze(check, model)
	if err != nil {
		return nil, err
	}
	if !re.Robust() {
		return nil, fmt.Errorf("staticanalysis: fix left %d delay pair(s) unordered (internal error): %v",
			len(re.Delays), re.Delays)
	}
	return fr, nil
}

// Apply inserts the placements into prog and verifies the result.
// Placements sharing an After label are inserted in reverse so their
// listed order is the resulting program order. Unlike the dynamic
// enforcement path, an existing adjacent fence does not suppress
// insertion: the placement's kind was chosen against the analysis of
// this exact program, which already accounted for existing fences.
func Apply(prog *ir.Program, placements []Placement) error {
	for i := len(placements) - 1; i >= 0; i-- {
		pl := placements[i]
		if _, err := prog.InsertFenceAfter(pl.After, pl.Kind); err != nil {
			return err
		}
	}
	if err := Verify(prog); err != nil {
		return fmt.Errorf("staticanalysis: program failed verification after static fix: %w", err)
	}
	return nil
}

// CheckNonRedundant verifies the placement's subset-minimality
// operationally: dropping any single placement must leave the program
// non-robust. It is meaningful only for solver-chosen placements —
// baseline fallbacks (fr.Baseline) carry no minimality claim, and the
// check reports them as such rather than failing.
func CheckNonRedundant(prog *ir.Program, model memmodel.Model, fr *FixResult) error {
	if fr.Baseline {
		return nil
	}
	for i := range fr.Placements {
		rest := make([]Placement, 0, len(fr.Placements)-1)
		rest = append(rest, fr.Placements[:i]...)
		rest = append(rest, fr.Placements[i+1:]...)
		trial := prog.Clone()
		if err := Apply(trial, rest); err != nil {
			return err
		}
		re, err := Analyze(trial, model)
		if err != nil {
			return err
		}
		if re.Robust() {
			return fmt.Errorf("staticanalysis: placement %v is redundant — program robust without it", fr.Placements[i])
		}
	}
	return nil
}

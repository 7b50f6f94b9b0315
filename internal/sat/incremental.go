package sat

import (
	"fmt"
	"sort"
)

// Budget bounds minimal-model enumeration. The zero value means unlimited
// (the paper's behaviour: enumerate every minimal model). When the bound
// trips, enumeration degrades gracefully: the models found so far are
// returned (sorted as usual) with truncated=true, so callers can proceed
// with the best repairs discovered instead of hanging on a pathological φ.
type Budget struct {
	// MaxModels stops enumeration after this many distinct minimal models
	// (<= 0: unlimited).
	MaxModels int
}

// Stats reports one enumeration's solver effort, for telemetry. All
// counters are per-enumeration deltas, even though the enumeration runs on
// a persistent solver.
type Stats struct {
	// Models is the number of distinct minimal models found.
	Models int
	// Conflicts is the CDCL conflict count across the enumeration's
	// Solve calls.
	Conflicts int64
	// Decisions is the number of branching decisions.
	Decisions int64
	// Propagations is the number of literals unit-propagated.
	Propagations int64
	// Restarts is the number of search restarts.
	Restarts int64
	// Clauses is the number of input clauses (blocking clauses excluded).
	Clauses int
}

// Incremental enumerates the minimal models of a *growing* sequence of
// monotone positive CNF rounds over one persistent CDCL solver. Each
// round's clauses are added under a fresh guard variable; enumeration
// solves under the assumption that the current round's guard is true, so
// blocking clauses (and any clause learnt from them) carry the guard's
// negation and become inert — but stay sound — once the round is retired
// by BeginRound. The payoff is MiniSAT-style solver persistence: learnt
// clauses, VSIDS activity, and saved phases survive from round to round
// instead of being rebuilt from scratch by every enumeration
// (internal/core's synthesis loop calls one enumeration per round with
// heavily overlapping predicate vocabularies).
//
// The minimal-model *set* of a monotone formula is unique, and the final
// sort is a total order, so a complete enumeration returns bit-identical
// output no matter what solver state was carried in — the property the
// tests pin against a brute-force enumerator and a new solver per round.
// A truncated enumeration (Budget) is a sound but search-order-dependent
// prefix.
//
// An Incremental is not safe for concurrent use.
type Incremental struct {
	s     *Solver
	nvars int   // highest problem variable introduced
	svar  []int // problem var -> solver var (1-based; guards interleave)

	clauses [][]Lit // current round's clauses, problem-var space (aliased)
	guard   int     // solver var guarding the current round (0: not yet allocated)

	// Enumeration scratch, reused across rounds.
	cur     []bool // candidate assignment during greedy shrink
	assump  [1]Lit
	litBuf  []Lit
	deadMin []int // backing for shrink results
}

// NewIncremental returns an enumerator with an empty persistent solver.
func NewIncremental() *Incremental {
	return &Incremental{s: NewSolver(), svar: make([]int, 1)}
}

// EnsureVars introduces problem variables up to n (idempotent).
func (inc *Incremental) EnsureVars(n int) {
	for inc.nvars < n {
		inc.nvars++
		inc.svar = append(inc.svar, inc.s.NewVar())
	}
}

// BeginRound retires the current round: its clauses — problem, blocking,
// and everything learnt strictly from them — are permanently deactivated
// by fixing the round guard false, and the clause list resets for the
// next round. Variables, activity, phases, and unconditionally-sound
// learnt clauses persist.
func (inc *Incremental) BeginRound() {
	if inc.guard != 0 {
		if err := inc.s.AddClause(Lit(-inc.guard)); err != nil {
			panic(err)
		}
		// Physically drop the retired round (problem, blocking, and
		// learnt clauses now satisfied at level 0 through ¬guard) so
		// later rounds' propagation never touches them. Behavior-neutral:
		// see Solver.Simplify.
		inc.s.Simplify()
		inc.guard = 0
	}
	inc.clauses = inc.clauses[:0]
}

// AddClause conjoins one positive clause (problem-var space) onto the
// current round's formula. The slice is retained (not copied); callers
// must not mutate it afterwards.
func (inc *Incremental) AddClause(c []Lit) {
	for _, l := range c {
		if l <= 0 || int(l) > inc.nvars {
			panic(fmt.Errorf("sat: literal %d references unknown variable", l))
		}
	}
	inc.ensureGuard()
	inc.clauses = append(inc.clauses, c)
	lits := append(inc.litBuf[:0], Lit(-inc.guard))
	for _, l := range c {
		lits = append(lits, Lit(inc.svar[l]))
	}
	inc.litBuf = lits[:0]
	if err := inc.s.AddClause(lits...); err != nil {
		panic(err)
	}
}

func (inc *Incremental) ensureGuard() {
	if inc.guard == 0 {
		inc.guard = inc.s.NewVar()
	}
}

// NumClauses returns the number of clauses in the current round.
func (inc *Incremental) NumClauses() int { return len(inc.clauses) }

// MinimalModels enumerates the minimal models of the current round's
// formula. Every clause is positive, so models are upward closed and the
// interesting solutions are the minimal sets of variables set to true.
// This is precisely the shape of DFENCE's repair formula φ — a
// conjunction, over violating executions, of disjunctions of ordering
// predicates — and this method implements the paper's §5.2 loop: "we call
// MiniSAT repeatedly to find out all solutions (when we find a solution,
// we adjust the formula to exclude that solution), and then we select the
// minimal ones."
//
// Each found model is first shrunk greedily to an irredundant model (try
// dropping each true variable in descending order; monotonicity makes the
// check a simple clause-coverage test), then blocked with the clause
// ¬(∧ its true vars), which eliminates that model and all its supersets.
// Every minimal model is eventually produced: a minimal model is never a
// strict superset of another model, so blocking cannot hide it.
//
// Each model is a sorted variable set, and the models are sorted by
// (size, lexicographic). When the budget trips before the enumeration is
// exhausted, the models found so far are returned with truncated=true;
// each is still irredundant (the shrink runs per model), so a truncated
// answer is a sound — merely possibly incomplete — repair set. The
// MaxModels cutoff is deterministic. st (ignored when nil) receives the
// solver effort of this call only (counter deltas, not lifetime totals).
func (inc *Incremental) MinimalModels(budget Budget, st *Stats) (models [][]int, truncated bool) {
	inc.ensureGuard()
	baseConfl := inc.s.Conflicts()
	baseDec := inc.s.Decisions()
	baseProp := inc.s.Propagations()
	baseRest := inc.s.Restarts()
	if cap(inc.cur) < inc.nvars+1 {
		inc.cur = make([]bool, inc.nvars+1)
	}
	inc.cur = inc.cur[:inc.nvars+1]
	var out [][]int
	inc.assump[0] = Lit(inc.guard)
	for {
		if err := inc.s.SolveUnderAssumptions(inc.assump[:]); err != nil {
			break // unsatisfiable under the guard: enumeration exhausted
		}
		// min is new: every earlier minimal model M was blocked, so the
		// solver's model lacks some variable of M, and so does its subset
		// min.
		min := inc.shrink()
		out = append(out, append([]int(nil), min...))
		if len(min) == 0 {
			break // empty model satisfies everything: stop
		}
		if budget.MaxModels > 0 && len(out) >= budget.MaxModels {
			truncated = true
			break
		}
		// Block this minimal model and all its supersets — for this round
		// only (the guard literal deactivates the clause at BeginRound).
		block := append(inc.litBuf[:0], Lit(-inc.guard))
		for _, v := range min {
			block = append(block, Lit(-inc.svar[v]))
		}
		inc.litBuf = block[:0]
		if err := inc.s.AddClause(block...); err != nil {
			panic(err)
		}
	}
	if st != nil {
		st.Models = len(out)
		st.Conflicts = inc.s.Conflicts() - baseConfl
		st.Decisions = inc.s.Decisions() - baseDec
		st.Propagations = inc.s.Propagations() - baseProp
		st.Restarts = inc.s.Restarts() - baseRest
		st.Clauses = len(inc.clauses)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out, truncated
}

// shrink greedily reduces the solver's current model to an irredundant
// model of the round's (monotone) clauses, dropping variables in
// descending order.
func (inc *Incremental) shrink() []int {
	cur := inc.cur
	for v := 1; v <= inc.nvars; v++ {
		cur[v] = inc.s.Value(inc.svar[v])
	}
	for v := inc.nvars; v >= 1; v-- {
		if !cur[v] {
			continue
		}
		cur[v] = false
		if !coversPositive(inc.clauses, cur) {
			cur[v] = true
		}
	}
	min := inc.deadMin[:0]
	for v := 1; v <= inc.nvars; v++ {
		if cur[v] {
			min = append(min, v)
		}
	}
	inc.deadMin = min
	return min
}

// coversPositive reports whether the true-set in cur satisfies every
// positive clause.
func coversPositive(clauses [][]Lit, cur []bool) bool {
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			if cur[int(l)] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

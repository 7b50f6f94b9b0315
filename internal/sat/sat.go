// Package sat is a small conflict-driven clause-learning (CDCL) SAT solver
// standing in for the MiniSAT dependency of the paper (§5.2). It supports
// incremental clause addition, solving, and the enumeration loop DFENCE
// uses to obtain all minimal repair assignments: solve, block the model,
// repeat until unsatisfiable.
//
// A literal is a signed variable number: variable v (v >= 1) appears as
// the literal +v, its negation as -v.
package sat

import (
	"errors"
	"fmt"
)

// Lit is a literal: +v or -v for variable v >= 1.
type Lit int

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// value of a variable in the trail.
type tribool int8

const (
	unassigned tribool = iota
	vtrue
	vfalse
)

// Solver is an incremental CDCL solver. Use NewSolver.
type Solver struct {
	numVars int
	clauses []*clause   // problem + learnt clauses
	watches [][]*clause // by litIndex: the clauses to visit when the literal becomes true

	assign   []tribool // 1-indexed by variable
	level    []int     // decision level per variable
	reason   []*clause // antecedent clause per variable
	trail    []Lit
	trailLim []int // trail index at each decision level
	qhead    int

	activity []float64 // per-variable VSIDS activity
	varInc   float64
	order    varOrder // unassigned variables by activity, for branching

	phase []bool // saved phases

	seen    []bool // analyze scratch, by variable; all false between calls
	litSeen []bool // AddClause dedupe scratch, by litIndex; all false between calls
	addBuf  []Lit  // AddClause scratch
	learnt  []Lit  // analyze scratch

	unsat bool // a top-level conflict was derived

	totalConflicts    int64 // conflicts across every Solve call (telemetry)
	totalDecisions    int64 // branch decisions across every Solve call
	totalPropagations int64 // literals propagated across every Solve call
	totalRestarts     int64 // search restarts across every Solve call
}

// Conflicts reports the number of conflicts the solver has analyzed
// across all Solve calls — the CDCL effort metric telemetry exports.
func (s *Solver) Conflicts() int64 { return s.totalConflicts }

// Decisions reports the number of branching decisions made across all
// Solve calls (assumption postings excluded).
func (s *Solver) Decisions() int64 { return s.totalDecisions }

// Propagations reports the number of literals unit-propagated across all
// Solve calls.
func (s *Solver) Propagations() int64 { return s.totalPropagations }

// Restarts reports the number of search restarts across all Solve calls.
func (s *Solver) Restarts() int64 { return s.totalRestarts }

// litIndex maps a literal to its slot in the per-literal tables: 2v for
// +v, 2v+1 for -v.
func litIndex(l Lit) int {
	if l < 0 {
		return int(-l)<<1 | 1
	}
	return int(l) << 1
}

type clause struct {
	lits    []Lit
	learnt  bool
	deleted bool
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	s := &Solver{varInc: 1}
	s.order.act = &s.activity
	return s
}

// NewVar introduces a fresh variable and returns its index (>= 1).
func (s *Solver) NewVar() int {
	if len(s.assign) == 0 {
		s.grow() // index 0 is padding so variables are 1-indexed
	}
	s.numVars++
	s.grow()
	s.order.push(s.numVars)
	return s.numVars
}

// grow appends one variable's slots to the per-variable and per-literal
// tables.
func (s *Solver) grow() {
	s.assign = append(s.assign, unassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.litSeen = append(s.litSeen, false, false)
}

func (s *Solver) valueLit(l Lit) tribool {
	v := s.assign[l.Var()]
	if v == unassigned {
		return unassigned
	}
	if (l > 0) == (v == vtrue) {
		return vtrue
	}
	return vfalse
}

// AddClause adds a clause over existing variables. Adding the empty clause
// (or a clause that simplifies to it) makes the formula unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) error {
	if s.unsat {
		return nil
	}
	// Deduplicate and drop tautologies.
	out, taut, err := s.dedupe(lits)
	if err != nil || taut {
		return err
	}
	// Remove literals already false at level 0; a clause true at level 0 is
	// dropped.
	filtered := out[:0]
	for _, l := range out {
		switch s.valueLit(l) {
		case vtrue:
			if s.level[l.Var()] == 0 {
				return nil
			}
			filtered = append(filtered, l)
		case vfalse:
			if s.level[l.Var()] != 0 {
				filtered = append(filtered, l)
			}
		default:
			filtered = append(filtered, l)
		}
	}
	out = filtered
	switch len(out) {
	case 0:
		s.unsat = true
		return nil
	case 1:
		// Must enqueue at level 0; requires backtracking to root first.
		s.backtrackTo(0)
		if !s.enqueue(out[0], nil) {
			s.unsat = true
		} else if s.propagate() != nil {
			s.unsat = true
		}
		return nil
	}
	c := &clause{lits: append([]Lit(nil), out...)}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return nil
}

// dedupe copies lits into s.addBuf without repeated literals, reporting
// an unknown variable as an error and a clause holding both l and ¬l as
// taut.
func (s *Solver) dedupe(lits []Lit) (out []Lit, taut bool, err error) {
	out = s.addBuf[:0]
	for _, l := range lits {
		if l == 0 || l.Var() > s.numVars {
			err = fmt.Errorf("sat: literal %d references unknown variable", l)
			break
		}
		if s.litSeen[litIndex(l.Neg())] {
			taut = true
			break
		}
		if i := litIndex(l); !s.litSeen[i] {
			s.litSeen[i] = true
			out = append(out, l)
		}
	}
	for _, l := range out {
		s.litSeen[litIndex(l)] = false
	}
	s.addBuf = out[:0]
	return out, taut, err
}

func (s *Solver) watch(c *clause) {
	i, j := litIndex(c.lits[0].Neg()), litIndex(c.lits[1].Neg())
	s.watches[i] = append(s.watches[i], c)
	s.watches[j] = append(s.watches[j], c)
}

func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.valueLit(l) {
	case vtrue:
		return true
	case vfalse:
		return false
	}
	v := l.Var()
	if l > 0 {
		s.assign[v] = vtrue
	} else {
		s.assign[v] = vfalse
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate runs unit propagation; returns a conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.totalPropagations++
		ws := s.watches[litIndex(l)]
		kept := ws[:0]
		var conflict *clause
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			if conflict != nil || c.deleted {
				kept = append(kept, c)
				continue
			}
			// Normalize: watched literal being falsified at index 1.
			if c.lits[0].Neg() == l {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.valueLit(c.lits[0]) == vtrue {
				kept = append(kept, c)
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.valueLit(c.lits[k]) != vfalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					w := litIndex(c.lits[1].Neg())
					s.watches[w] = append(s.watches[w], c)
					moved = true
					break
				}
			}
			if moved {
				continue // no longer watching l
			}
			kept = append(kept, c)
			// Clause is unit or conflicting.
			if !s.enqueue(c.lits[0], c) {
				conflict = c
			}
		}
		s.watches[litIndex(l)] = kept
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.numVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		// Scaling can round distinct activities to equal ones (or to 0),
		// which the tie-break on the variable index then orders anew.
		s.order.rebuild()
		return
	}
	s.order.raised(v)
}

// analyze derives a 1UIP learnt clause from the conflict; returns the
// clause and the backjump level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := append(s.learnt[:0], 0) // slot 0 for the asserting literal
	seen := s.seen
	counter := 0
	var p Lit
	idx := len(s.trail) - 1

	c := confl
	for {
		for _, q := range c.lits {
			if q == p || q.Neg() == p {
				continue
			}
			v := q.Var()
			if !seen[v] && s.level[v] > 0 {
				seen[v] = true
				s.bumpVar(v)
				if s.level[v] == s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Pick the next trail literal at the current level that is seen.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		counter--
		seen[p.Var()] = false
		if counter == 0 {
			break
		}
		c = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()
	for _, q := range learnt[1:] {
		seen[q.Var()] = false // the only entries left set
	}
	s.learnt = learnt[:0]

	// Backjump level = highest level among the other literals.
	bj := 0
	for i := 1; i < len(learnt); i++ {
		if lv := s.level[learnt[i].Var()]; lv > bj {
			bj = lv
		}
	}
	// Move a literal of the backjump level to position 1 for watching.
	for i := 1; i < len(learnt); i++ {
		if s.level[learnt[i].Var()] == bj {
			learnt[1], learnt[i] = learnt[i], learnt[1]
			break
		}
	}
	return learnt, bj
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == vtrue
		s.assign[v] = unassigned
		s.reason[v] = nil
		s.order.push(v)
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// pickBranchVar returns the unassigned variable of highest activity, the
// lowest-numbered one on ties, or 0 when every variable is assigned.
// Assigned variables leave the order lazily, when they reach its top;
// backtrackTo puts every variable it unassigns back.
func (s *Solver) pickBranchVar() int {
	for len(s.order.heap) > 0 {
		if v := s.order.pop(); s.assign[v] == unassigned {
			return v
		}
	}
	return 0
}

// ErrUnsat is returned by Solve when the formula is unsatisfiable.
var ErrUnsat = errors.New("sat: unsatisfiable")

// Solve searches for a satisfying assignment. On success it returns the
// model as a map from variable to boolean. The solver may be reused: add
// more clauses and call Solve again (the paper's enumeration loop).
// Simplify removes every clause satisfied at decision level 0 from the
// clause database and the watchlists. A clause with a literal fixed true
// at the root can never propagate or conflict again, so removal is
// behavior-neutral — the search visits the same assignments in the same
// order, it just stops wading through dead clauses. The round-incremental
// enumeration calls this when a round guard is fixed false, which
// retires the round's problem, blocking, and learnt clauses wholesale;
// without the sweep every retired blocking clause stays in two
// watchlists forever and each later round pays to skip it.
func (s *Solver) Simplify() {
	if s.unsat {
		return
	}
	s.backtrackTo(0)
	if s.propagate() != nil {
		s.unsat = true
		return
	}
	all := s.clauses
	kept := all[:0]
	for _, c := range all {
		if c.deleted {
			continue
		}
		sat0 := false
		for _, l := range c.lits {
			if s.valueLit(l) == vtrue && s.level[l.Var()] == 0 {
				sat0 = true
				break
			}
		}
		if sat0 {
			c.deleted = true
			continue
		}
		kept = append(kept, c)
	}
	if len(kept) == len(all) {
		return // nothing died: leave the watchlists alone
	}
	for i := len(kept); i < len(all); i++ {
		all[i] = nil
	}
	s.clauses = kept
	for l, ws := range s.watches {
		k := ws[:0]
		for _, c := range ws {
			if !c.deleted {
				k = append(k, c)
			}
		}
		for i := len(k); i < len(ws); i++ {
			ws[i] = nil
		}
		s.watches[l] = k
	}
}

func (s *Solver) Solve() (map[int]bool, error) {
	if err := s.SolveUnderAssumptions(nil); err != nil {
		return nil, err
	}
	model := make(map[int]bool, s.numVars)
	for i := 1; i <= s.numVars; i++ {
		model[i] = s.assign[i] == vtrue
	}
	return model, nil
}

// Value reports the value of variable v in the assignment found by the
// last successful SolveUnderAssumptions/Solve call. It is the
// allocation-free model accessor the enumeration hot path uses instead of
// Solve's map.
func (s *Solver) Value(v int) bool { return s.assign[v] == vtrue }

// restartBase is the conflict count of the first geometric restart;
// subsequent restart intervals grow by 3/2. Restarts redirect the search
// using the accumulated VSIDS activity; they never affect which models
// exist, only the order the search visits them.
const restartBase = 100

// SolveUnderAssumptions searches for a satisfying assignment under the
// given assumption literals (MiniSAT-style incremental interface). The
// assumptions are posted as pseudo-decisions ahead of the search; learnt
// clauses derived under them carry the corresponding guard literals and
// therefore remain sound for later calls with different assumptions — the
// mechanism the round-incremental enumeration builds on.
//
// On success the assignment is available through Value (no allocation).
// ErrUnsat means unsatisfiable *under these assumptions*; the solver
// remains usable, and only a conflict at decision level zero marks the
// formula itself permanently unsatisfiable.
func (s *Solver) SolveUnderAssumptions(assumps []Lit) error {
	if s.unsat {
		return ErrUnsat
	}
	s.backtrackTo(0)
	if s.propagate() != nil {
		s.unsat = true
		return ErrUnsat
	}
	conflictsAtRestart := s.totalConflicts
	restartLimit := int64(restartBase)
	for {
		confl := s.propagate()
		if confl != nil {
			if s.decisionLevel() == 0 {
				s.unsat = true
				return ErrUnsat
			}
			if s.decisionLevel() <= len(assumps) {
				// Conflict entirely under the assumptions: unsatisfiable for
				// this call only. The formula without the assumptions may
				// still be satisfiable, so the solver is not poisoned.
				s.backtrackTo(0)
				return ErrUnsat
			}
			s.totalConflicts++
			learnt, bj := s.analyze(confl)
			s.backtrackTo(bj)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], nil) {
					s.unsat = true
					return ErrUnsat
				}
			} else {
				c := &clause{lits: append([]Lit(nil), learnt...), learnt: true}
				s.clauses = append(s.clauses, c)
				s.watch(c)
				s.enqueue(learnt[0], c)
			}
			s.varInc *= 1.05 // decay others relative to recent bumps
			if s.totalConflicts-conflictsAtRestart >= restartLimit {
				conflictsAtRestart = s.totalConflicts
				restartLimit += restartLimit / 2
				s.totalRestarts++
				s.backtrackTo(0)
			}
			continue
		}
		if lvl := s.decisionLevel(); lvl < len(assumps) {
			// Post the next assumption as its own decision level.
			a := assumps[lvl]
			switch s.valueLit(a) {
			case vfalse:
				s.backtrackTo(0)
				return ErrUnsat
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.enqueue(a, nil)
			}
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			return nil // full assignment
		}
		s.totalDecisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		l := Lit(v)
		if !s.phase[v] {
			l = -l
		}
		s.enqueue(l, nil)
	}
}

// EvalClauses checks a full assignment against a clause set (testing aid).
func EvalClauses(clauses [][]Lit, model map[int]bool) bool {
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			if model[l.Var()] == (l > 0) {
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

// Package synth implements the repair machinery of DFENCE: ordering
// predicates, the instrumented-semantics collection of candidate repairs
// for an execution (paper Semantics 2 / the avoid function), accumulation
// of the global repair formula φ, computation of minimal satisfying
// assignments via the SAT solver, and enforcement of chosen predicates as
// fences (Algorithm 2).
package synth

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/sat"
)

// Predicate is an ordering predicate [L ⊰ K]: in any execution, the store
// at label L must take visible effect before the statement at label K
// executes (both labels in the same thread). Enforced by a fence after L.
type Predicate struct {
	L ir.Label // a store whose buffered value must be flushed
	K ir.Label // the later access that must observe it
}

func (p Predicate) String() string { return fmt.Sprintf("[L%d ⊰ L%d]", p.L, p.K) }

// less orders predicates deterministically.
func (p Predicate) less(q Predicate) bool {
	if p.L != q.L {
		return p.L < q.L
	}
	return p.K < q.K
}

// Collector implements interp.Observer, running the instrumented
// semantics of the paper online: at every shared access it records, for
// each store pending in the same thread's *other* buffers, the predicate
// that would order that store before the access. The union over the
// execution is the disjunction d of all single-predicate repairs for that
// execution.
//
// Model-specific filtering (paper §4.1, generalized to the reordering
// matrix): a pending access of class a generates a predicate at an access
// of class b only when the model relaxes (a, b). Under TSO only pending
// stores at loads qualify (the single FIFO preserves store-store order,
// and CAS drains it first); under PSO pending stores qualify at every
// access; under RMO deferred loads qualify too, on both sides of the
// matrix.
type Collector struct {
	model memmodel.Model
	preds map[Predicate]struct{}
}

// NewCollector returns an empty per-execution collector.
func NewCollector(model memmodel.Model) *Collector {
	return &Collector{model: model, preds: make(map[Predicate]struct{})}
}

// OnSharedAccess implements interp.Observer.
func (c *Collector) OnSharedAccess(thread int, label ir.Label, kind interp.AccessKind, addr int64, pending []interp.PendingStore) {
	// K's class: stores and CAS both write (ir.ClassOf treats OpCas as a
	// store); the pending entry's class comes from its IsLoad flag.
	kc := ir.ClassStore
	if kind == interp.AccLoad {
		kc = ir.ClassLoad
	}
	for _, p := range pending {
		pc := ir.ClassStore
		if p.IsLoad {
			pc = ir.ClassLoad
		}
		if !c.model.Relaxes(pc, kc) {
			continue
		}
		c.preds[Predicate{L: p.Label, K: label}] = struct{}{}
	}
}

// Reset clears the collector for reuse on the next execution.
func (c *Collector) Reset() { clear(c.preds) }

// TakeDisjunction returns the execution's disjunction (as Disjunction)
// and resets the collector in one step — the call the parallel batch
// runner makes between executions on a reused per-worker collector, so a
// worker is always clean before its next run regardless of outcome.
func (c *Collector) TakeDisjunction() []Predicate {
	out := c.Disjunction()
	c.Reset()
	return out
}

// Disjunction returns the candidate predicates gathered from the
// execution, sorted deterministically. Empty means the execution cannot
// be repaired by fences (Algorithm 1: "abort — cannot be fixed").
func (c *Collector) Disjunction() []Predicate {
	out := make([]Predicate, 0, len(c.preds))
	for p := range c.preds {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// Formula is the global repair formula φ: a conjunction over violating
// executions of the disjunction of that execution's candidate predicates.
// Identical clauses are deduplicated, as in the paper ("each non-repeated
// clause in the formula is assigned a unique integer").
//
// A Formula owns a persistent incremental SAT solver (sat.Incremental):
// BeginRound clears the clause set for the next synthesis round while the
// solver retains its learnt clauses, VSIDS activity, and saved phases,
// together with the predicate-to-variable vocabulary — so a long-lived
// Formula reused across rounds solves each round's φ without rebuilding
// CDCL state from scratch. The minimal-model set of each round is unique,
// so carried solver state never changes the solutions.
type Formula struct {
	vars   map[Predicate]int // predicate -> SAT variable (persists across rounds)
	byVar  []Predicate       // 1-based: variable -> predicate
	inc    *sat.Incremental  // owned persistent solver; holds the round's clauses
	seen   map[string]struct{}
	keyBuf []byte            // scratch for the clause-fingerprint probe
	freq   map[Predicate]int // #violating executions mentioning the predicate (per round)
}

// NewFormula returns φ = true.
func NewFormula() *Formula {
	return &Formula{
		vars:  make(map[Predicate]int),
		byVar: make([]Predicate, 1), // index 0 unused
		inc:   sat.NewIncremental(),
		seen:  make(map[string]struct{}),
		freq:  make(map[Predicate]int),
	}
}

// BeginRound resets φ to true for the next synthesis round while keeping
// the solver and the predicate vocabulary warm: learnt clauses and
// branching heuristics carry over (the previous round's clauses are
// deactivated inside the solver, so they cannot influence which models
// exist), and per-round bookkeeping — clause dedup and predicate
// support — starts fresh.
func (f *Formula) BeginRound() {
	f.inc.BeginRound()
	clear(f.seen)
	clear(f.freq)
}

// Empty reports whether no clause has been added (φ = true).
func (f *Formula) Empty() bool { return f.inc.NumClauses() == 0 }

// NumPredicates returns the number of distinct predicates mentioned this
// round (duplicated disjunctions mention no predicate a kept clause does
// not, so this equals the distinct-predicate count of the clause set).
func (f *Formula) NumPredicates() int { return len(f.freq) }

// NumClauses returns the number of distinct accumulated clauses.
func (f *Formula) NumClauses() int { return f.inc.NumClauses() }

// AddExecution conjoins the disjunction d (the repairs of one violating
// execution) onto φ. d must be non-empty.
func (f *Formula) AddExecution(d []Predicate) error {
	if len(d) == 0 {
		return fmt.Errorf("synth: execution has no candidate repairs (cannot be fixed by fences)")
	}
	// freq counts every occurrence, including duplicates of an existing
	// clause: support ordering in MinimalSolutions depends on it, so the
	// dedup below must not short-circuit these updates.
	for _, p := range d {
		f.freq[p]++
	}
	// Fingerprint the ordered predicate sequence into the reused scratch
	// buffer (varints are injective per field, so distinct disjunctions
	// cannot collide); the map[string(bytes)] probe allocates nothing, and
	// the key is materialized only for clauses actually inserted.
	buf := f.keyBuf[:0]
	for _, p := range d {
		buf = binary.AppendVarint(buf, int64(p.L))
		buf = binary.AppendVarint(buf, int64(p.K))
	}
	f.keyBuf = buf
	if _, dup := f.seen[string(buf)]; dup {
		return nil
	}
	f.seen[string(buf)] = struct{}{}
	clause := make([]sat.Lit, len(d))
	for i, p := range d {
		v, ok := f.vars[p]
		if !ok {
			v = len(f.byVar)
			f.byVar = append(f.byVar, p)
			f.vars[p] = v
		}
		clause[i] = sat.Lit(v)
	}
	f.inc.EnsureVars(len(f.byVar) - 1)
	f.inc.AddClause(clause)
	return nil
}

// MinimalSolutions returns the minimal sets of predicates satisfying φ,
// enumerated under the solver budget (see sat.Budget; the zero Budget
// enumerates all of them). They are ordered by (size, descending total
// support, lexicographic), where a predicate's support is the number of
// violating executions whose disjunction mentioned it — among equally
// small repairs, prefer the one backed by the most evidence. The first
// entry is the assignment Algorithm 2 enforces. truncated reports that
// the budget tripped and the solutions may be incomplete — the synthesis
// loop records this as Result.SolverTruncated and proceeds with the best
// repairs found. st (ignored when nil) receives the enumeration's solver
// effort.
func (f *Formula) MinimalSolutions(budget sat.Budget, st *sat.Stats) (solutions [][]Predicate, truncated bool) {
	if f.Empty() {
		return nil, false
	}
	models, truncated := f.inc.MinimalModels(budget, st)
	out := make([][]Predicate, len(models))
	for i, m := range models {
		ps := make([]Predicate, len(m))
		for j, v := range m {
			ps[j] = f.byVar[v]
		}
		sort.Slice(ps, func(a, b int) bool { return ps[a].less(ps[b]) })
		out[i] = ps
	}
	support := func(ps []Predicate) int {
		s := 0
		for _, p := range ps {
			s += f.freq[p]
		}
		return s
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		sa, sb := support(a), support(b)
		if sa != sb {
			return sa > sb
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k].less(b[k])
			}
		}
		return false
	})
	return out, truncated
}

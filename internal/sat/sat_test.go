package sat

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func newVars(s *Solver, n int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	return vs
}

func TestTriviallySat(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 2)
	if err := s.AddClause(Lit(v[0]), Lit(v[1])); err != nil {
		t.Fatal(err)
	}
	m, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !m[v[0]] && !m[v[1]] {
		t.Fatal("model does not satisfy the only clause")
	}
}

func TestTriviallyUnsat(t *testing.T) {
	s := NewSolver()
	v := s.NewVar()
	if err := s.AddClause(Lit(v)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClause(Lit(-v)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); !errors.Is(err, ErrUnsat) {
		t.Fatalf("want unsat, got %v", err)
	}
}

func TestUnitPropagationChain(t *testing.T) {
	// x1; x1->x2; x2->x3; x3->x4
	s := NewSolver()
	v := newVars(s, 4)
	s.AddClause(Lit(v[0]))
	s.AddClause(Lit(-v[0]), Lit(v[1]))
	s.AddClause(Lit(-v[1]), Lit(v[2]))
	s.AddClause(Lit(-v[2]), Lit(v[3]))
	m, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i, vi := range v {
		if !m[vi] {
			t.Errorf("x%d should be forced true", i+1)
		}
	}
}

func TestTautologyDropped(t *testing.T) {
	s := NewSolver()
	v := s.NewVar()
	if err := s.AddClause(Lit(v), Lit(-v)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatalf("tautology made formula unsat: %v", err)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := NewSolver()
	s.NewVar()
	if err := s.AddClause(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); !errors.Is(err, ErrUnsat) {
		t.Fatal("empty clause did not make formula unsat")
	}
}

func TestUnknownVariableRejected(t *testing.T) {
	s := NewSolver()
	if err := s.AddClause(Lit(3)); err == nil {
		t.Fatal("literal over unknown variable accepted")
	}
}

// Pigeonhole PHP(3,2): 3 pigeons into 2 holes — classically unsat and
// requires real search + learning.
func TestPigeonhole32Unsat(t *testing.T) {
	s := NewSolver()
	// p[i][j]: pigeon i in hole j
	p := make([][]int, 3)
	for i := range p {
		p[i] = newVars(s, 2)
	}
	for i := 0; i < 3; i++ {
		s.AddClause(Lit(p[i][0]), Lit(p[i][1])) // each pigeon somewhere
	}
	for j := 0; j < 2; j++ {
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				s.AddClause(Lit(-p[a][j]), Lit(-p[b][j]))
			}
		}
	}
	if _, err := s.Solve(); !errors.Is(err, ErrUnsat) {
		t.Fatal("PHP(3,2) reported satisfiable")
	}
}

func TestPigeonhole54Unsat(t *testing.T) {
	s := NewSolver()
	const P, H = 5, 4
	p := make([][]int, P)
	for i := range p {
		p[i] = newVars(s, H)
	}
	for i := 0; i < P; i++ {
		lits := make([]Lit, H)
		for j := 0; j < H; j++ {
			lits[j] = Lit(p[i][j])
		}
		s.AddClause(lits...)
	}
	for j := 0; j < H; j++ {
		for a := 0; a < P; a++ {
			for b := a + 1; b < P; b++ {
				s.AddClause(Lit(-p[a][j]), Lit(-p[b][j]))
			}
		}
	}
	if _, err := s.Solve(); !errors.Is(err, ErrUnsat) {
		t.Fatal("PHP(5,4) reported satisfiable")
	}
}

// brute force satisfiability for cross-checking
func bruteSat(nvars int, clauses [][]Lit) (map[int]bool, bool) {
	for mask := 0; mask < 1<<nvars; mask++ {
		m := make(map[int]bool, nvars)
		for v := 1; v <= nvars; v++ {
			m[v] = mask&(1<<(v-1)) != 0
		}
		if EvalClauses(clauses, m) {
			return m, true
		}
	}
	return nil, false
}

func randomCNF(rng *rand.Rand, nvars, nclauses, width int) [][]Lit {
	clauses := make([][]Lit, nclauses)
	for i := range clauses {
		w := 1 + rng.Intn(width)
		c := make([]Lit, 0, w)
		for k := 0; k < w; k++ {
			v := 1 + rng.Intn(nvars)
			l := Lit(v)
			if rng.Intn(2) == 0 {
				l = -l
			}
			c = append(c, l)
		}
		clauses[i] = c
	}
	return clauses
}

// Property: CDCL agrees with brute force on random small formulas, and the
// model it returns actually satisfies the clauses.
func TestQuickAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 2 + rng.Intn(9) // up to 10 vars
		clauses := randomCNF(rng, nvars, 2+rng.Intn(25), 3)
		s := NewSolver()
		for i := 0; i < nvars; i++ {
			s.NewVar()
		}
		for _, c := range clauses {
			if err := s.AddClause(c...); err != nil {
				return false
			}
		}
		model, err := s.Solve()
		_, want := bruteSat(nvars, clauses)
		if want {
			return err == nil && EvalClauses(clauses, model)
		}
		return errors.Is(err, ErrUnsat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalSolving(t *testing.T) {
	// Solve, add a blocking clause, solve again — DFENCE's enumeration use.
	s := NewSolver()
	v := newVars(s, 3)
	s.AddClause(Lit(v[0]), Lit(v[1]), Lit(v[2]))
	n := 0
	for {
		m, err := s.Solve()
		if errors.Is(err, ErrUnsat) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n > 20 {
			t.Fatal("runaway enumeration")
		}
		// Block this exact assignment.
		block := make([]Lit, 0, 3)
		for _, vi := range v {
			if m[vi] {
				block = append(block, Lit(-vi))
			} else {
				block = append(block, Lit(vi))
			}
		}
		if err := s.AddClause(block...); err != nil {
			t.Fatal(err)
		}
	}
	if n != 7 {
		t.Errorf("enumerated %d models of x|y|z, want 7", n)
	}
}

// --- minimal models ---

// minimalModels enumerates the minimal models of a positive CNF on a new
// Incremental under the budget.
func minimalModels(nvars int, clauses [][]Lit, budget Budget) ([][]int, bool) {
	inc := NewIncremental()
	inc.EnsureVars(nvars)
	for _, c := range clauses {
		inc.AddClause(c)
	}
	return inc.MinimalModels(budget, nil)
}

// bruteMinimalModels computes the minimal models of a positive CNF by
// brute force over every assignment, sorted like MinimalModels: by size,
// then lexicographically. A model of a monotone formula is minimal iff
// no single true variable can be dropped.
func bruteMinimalModels(nvars int, clauses [][]Lit) [][]int {
	masks := make([]uint32, len(clauses))
	for i, c := range clauses {
		for _, l := range c {
			masks[i] |= 1 << uint(l-1)
		}
	}
	sat := func(m uint32) bool {
		for _, c := range masks {
			if m&c == 0 {
				return false
			}
		}
		return true
	}
	var out [][]int
	for m := uint32(0); m < 1<<uint(nvars); m++ {
		if !sat(m) {
			continue
		}
		minimal := true
		for v := 0; v < nvars && minimal; v++ {
			if m&(1<<uint(v)) != 0 && sat(m&^(1<<uint(v))) {
				minimal = false
			}
		}
		if !minimal {
			continue
		}
		set := []int{}
		for v := 0; v < nvars; v++ {
			if m&(1<<uint(v)) != 0 {
				set = append(set, v+1)
			}
		}
		out = append(out, set)
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
	return out
}

func TestMinimalModelsSimple(t *testing.T) {
	// (1|2) & (2|3): minimal models {2}, {1,3}
	got, _ := minimalModels(3, [][]Lit{{1, 2}, {2, 3}}, Budget{})
	if want := [][]int{{2}, {1, 3}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("MinimalModels = %v, want %v", got, want)
	}
}

func TestMinimalModelsEmptyFormula(t *testing.T) {
	got, _ := minimalModels(3, nil, Budget{})
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty formula should have the empty minimal model, got %v", got)
	}
}

func TestMinimalModelsUnsatIsEmpty(t *testing.T) {
	// A positive formula is never unsat unless it has an empty clause.
	got, _ := minimalModels(2, [][]Lit{{}}, Budget{})
	if len(got) != 0 {
		t.Fatalf("formula with empty clause has models: %v", got)
	}
}

func TestQuickMinimalModelsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvars := 1 + rng.Intn(7)
		nclauses := 1 + rng.Intn(8)
		clauses := make([][]Lit, nclauses)
		for i := range clauses {
			w := 1 + rng.Intn(3)
			c := make([]Lit, 0, w)
			for k := 0; k < w; k++ {
				c = append(c, Lit(1+rng.Intn(nvars)))
			}
			clauses[i] = c
		}
		got, _ := minimalModels(nvars, clauses, Budget{})
		return fmt.Sprint(got) == fmt.Sprint(bruteMinimalModels(nvars, clauses))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinimalModelsDeterministic(t *testing.T) {
	clauses := [][]Lit{{3, 1}, {2, 1}, {3, 2}}
	a, _ := minimalModels(3, clauses, Budget{})
	b, _ := minimalModels(3, clauses, Budget{})
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("nondeterministic result: %v vs %v", a, b)
	}
}

func TestLitHelpers(t *testing.T) {
	if Lit(-5).Var() != 5 || Lit(5).Var() != 5 {
		t.Error("Var wrong")
	}
	if Lit(5).Neg() != Lit(-5) {
		t.Error("Neg wrong")
	}
}

// TestBranchOrderAfterRescale: rescaling activities can round distinct
// activities to equal ones, and the branching order must then fall back
// to the lowest variable, as a linear scan would.
func TestBranchOrderAfterRescale(t *testing.T) {
	s := NewSolver()
	newVars(s, 3)
	s.activity[2] = 1e-310 // above var 1 until scaled to 0
	s.order.raised(2)
	s.varInc = 2e100
	s.bumpVar(3) // crosses 1e100: every activity scales by 1e-100
	var got []int
	for v := s.pickBranchVar(); v != 0; v = s.pickBranchVar() {
		got = append(got, v)
	}
	if fmt.Sprint(got) != "[3 1 2]" {
		t.Fatalf("branching order after the rescale = %v, want [3 1 2]", got)
	}
}

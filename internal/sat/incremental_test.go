package sat

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// randMonotone generates a random positive CNF over nvars variables,
// shaped like a synthesis round's φ: clauses are disjunctions of 1..w
// distinct variables.
func randMonotone(rng *rand.Rand, nvars, nclauses, w int) [][]Lit {
	out := make([][]Lit, 0, nclauses)
	for i := 0; i < nclauses; i++ {
		k := 1 + rng.Intn(w)
		seen := map[int]bool{}
		var c []Lit
		for len(c) < k {
			v := 1 + rng.Intn(nvars)
			if !seen[v] {
				seen[v] = true
				c = append(c, Lit(v))
			}
		}
		out = append(out, c)
	}
	return out
}

// TestIncrementalMatchesFreshAcrossRounds is the solver-persistence
// check: a single Incremental carried across a staged sequence of rounds
// must enumerate, in every round, exactly the minimal models brute force
// finds and a new per-round Incremental finds — identical sets in
// identical order, regardless of the learnt clauses, activity, and saved
// phases the persistent solver accumulated in earlier rounds.
func TestIncrementalMatchesFreshAcrossRounds(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		nvars := 4 + rng.Intn(10)
		inc := NewIncremental()
		inc.EnsureVars(nvars)
		rounds := 2 + rng.Intn(4)
		for r := 0; r < rounds; r++ {
			if r > 0 {
				inc.BeginRound()
			}
			clauses := randMonotone(rng, nvars, 1+rng.Intn(8), 4)
			for _, c := range clauses {
				inc.AddClause(c)
			}
			var st Stats
			persistent, truncated := inc.MinimalModels(Budget{}, &st)
			fresh, _ := minimalModels(nvars, clauses, Budget{})
			brute := bruteMinimalModels(nvars, clauses)
			if fmt.Sprint(persistent) != fmt.Sprint(brute) || fmt.Sprint(fresh) != fmt.Sprint(brute) || truncated {
				t.Fatalf("trial %d round %d: enumerations diverged\npersistent: %v (trunc=%v)\nfresh:      %v\nbrute:      %v",
					trial, r, persistent, truncated, fresh, brute)
			}
			if st.Models != len(persistent) || st.Clauses != len(clauses) {
				t.Fatalf("trial %d round %d: stats %+v for %d models of %d clauses", trial, r, st, len(persistent), len(clauses))
			}
		}
	}
}

// TestIncrementalRetiredRoundsInert: clauses of retired rounds (including
// their blocking clauses) must not constrain later rounds — a round whose
// formula is a single unit clause has exactly one minimal model even if a
// previous round blocked that very assignment.
func TestIncrementalRetiredRoundsInert(t *testing.T) {
	inc := NewIncremental()
	inc.EnsureVars(3)
	inc.AddClause([]Lit{1})
	inc.AddClause([]Lit{2, 3})
	first, _ := inc.MinimalModels(Budget{}, nil)
	if len(first) != 2 {
		t.Fatalf("round 0: got %v, want two minimal models", first)
	}
	inc.BeginRound()
	inc.AddClause([]Lit{1})
	second, _ := inc.MinimalModels(Budget{}, nil)
	if len(second) != 1 || len(second[0]) != 1 || second[0][0] != 1 {
		t.Fatalf("round 1: got %v, want [[1]]", second)
	}
	// A later round may also relax: a formula satisfied by the empty model
	// after BeginRound must report it even though earlier rounds forced 1.
	inc.BeginRound()
	third, _ := inc.MinimalModels(Budget{}, nil)
	if len(third) != 1 || len(third[0]) != 0 {
		t.Fatalf("round 2 (empty formula): got %v, want [[]]", third)
	}
}

// TestMinimalModelsSearchPinned pins the search itself, not just the
// model sets the brute-force tests compare: five growing rounds of a
// seeded monotone formula, each cut by MaxModels, on one persistent
// solver. A truncated enumeration returns a search-order-dependent
// prefix, so the per-round Stats (conflicts, decisions, propagations) and
// the digest of the model list change with any change to branching order,
// watch order or conflict analysis. The fourth round runs past an
// activity rescale. The expected values were recorded with the solver
// that picked branch variables by a linear scan and kept watch lists in a
// map, so they also pin that the order heap and the literal-indexed watch
// lists search exactly as it did.
func TestMinimalModelsSearchPinned(t *testing.T) {
	want := []struct {
		st     Stats
		digest uint64
	}{
		{Stats{Models: 2000, Conflicts: 1150, Decisions: 157438, Propagations: 207460, Clauses: 50}, 0xc0c223931cd4539d},
		{Stats{Models: 2000, Conflicts: 1136, Decisions: 137754, Propagations: 207630, Clauses: 100}, 0x7c4f424fd8e2dd5c},
		{Stats{Models: 2000, Conflicts: 1445, Decisions: 131273, Propagations: 208988, Clauses: 150}, 0x92f71c3fd2402404},
		{Stats{Models: 2000, Conflicts: 1464, Decisions: 117317, Propagations: 209090, Clauses: 200}, 0x366930df6c251584},
		{Stats{Models: 2000, Conflicts: 1213, Decisions: 94385, Propagations: 207950, Clauses: 250}, 0x22b7781fde2accb1},
	}
	const nvars = 100
	rng := rand.New(rand.NewSource(7))
	inc := NewIncremental()
	inc.EnsureVars(nvars)
	var clauses [][]Lit
	for r, w := range want {
		if r > 0 {
			inc.BeginRound()
		}
		clauses = append(clauses, randMonotone(rng, nvars, 50, 5)...)
		for _, c := range clauses {
			inc.AddClause(c)
		}
		var st Stats
		models, truncated := inc.MinimalModels(Budget{MaxModels: 2000}, &st)
		h := fnv.New64a()
		fmt.Fprint(h, models)
		if st != w.st || h.Sum64() != w.digest || !truncated {
			t.Errorf("round %d: stats %+v, digest %#016x, truncated %v; want %+v, %#016x, true",
				r, st, h.Sum64(), truncated, w.st, w.digest)
		}
	}
}

package sat

import (
	"reflect"
	"testing"
)

// indepClauses builds n independent binary clauses (2i-1 ∨ 2i), whose
// minimal-model count is 2^n — a cheap enumeration blow-up.
func indepClauses(n int) (nvars int, clauses [][]Lit) {
	for i := 0; i < n; i++ {
		clauses = append(clauses, []Lit{Lit(2*i + 1), Lit(2*i + 2)})
	}
	return 2 * n, clauses
}

func TestBudgetUnlimitedMatchesBruteForce(t *testing.T) {
	nvars, clauses := indepClauses(4) // 16 minimal models
	full := bruteMinimalModels(nvars, clauses)
	got, truncated := minimalModels(nvars, clauses, Budget{})
	if truncated {
		t.Fatal("unlimited budget reported truncation")
	}
	if !reflect.DeepEqual(full, got) {
		t.Fatalf("budgeted(∞) diverges from brute force:\n%v\nvs\n%v", got, full)
	}
	if len(full) != 16 {
		t.Fatalf("expected 16 minimal models, got %d", len(full))
	}
}

func TestBudgetMaxModels(t *testing.T) {
	nvars, clauses := indepClauses(6) // 64 minimal models
	got, truncated := minimalModels(nvars, clauses, Budget{MaxModels: 5})
	if !truncated {
		t.Fatal("cap of 5 over 64 models did not report truncation")
	}
	if len(got) != 5 {
		t.Fatalf("cap of 5 returned %d models", len(got))
	}
	// Every returned model is a genuine minimal model: irredundant and
	// satisfying. For independent binary clauses, minimal ⇔ exactly one
	// variable per clause.
	for _, m := range got {
		if len(m) != 6 {
			t.Fatalf("truncated model %v is not minimal for 6 independent clauses", m)
		}
		asn := map[int]bool{}
		for _, v := range m {
			asn[v] = true
		}
		if !EvalClauses(clauses, asn) {
			t.Fatalf("truncated model %v does not satisfy the formula", m)
		}
	}
	// Determinism: the MaxModels cutoff is solver-order based, not timing.
	again, _ := minimalModels(nvars, clauses, Budget{MaxModels: 5})
	if !reflect.DeepEqual(got, again) {
		t.Fatal("MaxModels truncation is nondeterministic")
	}
}

func TestBudgetGenerousCapNotTruncated(t *testing.T) {
	nvars, clauses := indepClauses(3) // 8 minimal models
	got, truncated := minimalModels(nvars, clauses, Budget{MaxModels: 100})
	if truncated {
		t.Fatal("cap above the model count reported truncation")
	}
	if len(got) != 8 {
		t.Fatalf("got %d models, want 8", len(got))
	}
}

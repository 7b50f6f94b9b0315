package core

import (
	"testing"

	"dfence/internal/ir"
	"dfence/internal/lang"
	"dfence/internal/memmodel"
	"dfence/internal/spec"
)

// findStore returns the label of the nth shared store to global in fn.
func findStore(t *testing.T, p *ir.Program, fn, global string) ir.Label {
	t.Helper()
	f := p.Funcs[fn]
	if f == nil {
		t.Fatalf("no function %q", fn)
	}
	regGlobal := make(map[ir.Reg]string)
	for i := range f.Code {
		in := &f.Code[i]
		if in.Op == ir.OpGlobal {
			regGlobal[in.Dst] = in.Func
			continue
		}
		if in.Op == ir.OpStore && regGlobal[in.A] == global {
			return in.Label
		}
	}
	t.Fatalf("no store to %q in %s", global, fn)
	return ir.NoLabel
}

// A program whose only reordering is already fenced has an empty static
// delay set: with StaticPrune on, synthesis must converge in zero dynamic
// rounds via the fast path.
func TestStaticFastPathFencedProgram(t *testing.T) {
	p := lang.MustCompile(`
int data = 0; int flag = 0;
void producer() { data = 42; fence_ss(); flag = 1; }
void consumer() {
  while (!flag) { }
  assert(data == 42);
}
int main() {
  int t1 = fork producer();
  int t2 = fork consumer();
  join t1; join t2;
  return 0;
}
`)
	res, err := Synthesize(p, Config{
		Model:       memmodel.PSO,
		Criterion:   spec.MemorySafety,
		Seed:        1,
		StaticPrune: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StaticallyRobust {
		t.Fatalf("fenced program not reported statically robust: %s", res.Summary())
	}
	if res.Outcome != OutcomeConverged {
		t.Fatalf("fast path did not converge: %s", res.Summary())
	}
	if res.TotalExecutions != 0 || len(res.Rounds) != 0 {
		t.Fatalf("fast path ran %d executions over %d rounds, want 0", res.TotalExecutions, len(res.Rounds))
	}
	if len(res.Fences) != 0 {
		t.Fatalf("fast path inserted fences: %v", res.Fences)
	}
}

// A single-threaded program has no critical cycles at all — the other
// shape of the zero-round fast path.
func TestStaticFastPathSingleThreaded(t *testing.T) {
	p := lang.MustCompile(`
int x = 0; int y = 0;
int main() {
  x = 1;
  y = 2;
  print(x);
  print(y);
  return 0;
}
`)
	for _, model := range []memmodel.Model{memmodel.TSO, memmodel.PSO} {
		res, err := Synthesize(p, Config{
			Model:       model,
			Criterion:   spec.MemorySafety,
			Seed:        1,
			StaticPrune: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.StaticallyRobust || res.TotalExecutions != 0 {
			t.Fatalf("%v: single-threaded program not fast-pathed: %s", model, res.Summary())
		}
	}
}

// MP under TSO is statically robust without any fence (the producer never
// loads after its stores) — the fast path must prove it with zero
// executions where the plain loop would spend a full round.
func TestStaticFastPathMPTSOUnfenced(t *testing.T) {
	p := lang.MustCompile(`
int data = 0; int flag = 0;
void producer() { data = 42; flag = 1; }
void consumer() {
  while (!flag) { }
  assert(data == 42);
}
int main() {
  int t1 = fork producer();
  int t2 = fork consumer();
  join t1; join t2;
  return 0;
}
`)
	res, err := Synthesize(p, Config{
		Model:       memmodel.TSO,
		Criterion:   spec.MemorySafety,
		Seed:        1,
		StaticPrune: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StaticallyRobust || res.TotalExecutions != 0 {
		t.Fatalf("MP/TSO not fast-pathed: %s", res.Summary())
	}
}

// The co-traveler program: the writer's stores to a and b ride along with
// the x/y message-passing idiom, so violating executions propose
// predicates over all four globals — but only [x ⊰ y] lies on a static
// critical cycle. With StaticPrune on, the pruned formula must still
// converge to the same single fence, and the statistics must show the
// co-traveler predicates being discarded.
func TestStaticPrunePrunesCoTravelers(t *testing.T) {
	src := `
int x = 0; int y = 0; int a = 0; int b = 0;
void w() { a = 1; b = 1; x = 1; y = 1; }
void r() {
  while (!y) { }
  assert(x);
}
int main() {
  int t1 = fork w();
  int t2 = fork r();
  join t1; join t2;
  return 0;
}
`
	base := Config{
		Model:         memmodel.PSO,
		Criterion:     spec.MemorySafety,
		ExecsPerRound: 300,
		MaxRounds:     6,
		Seed:          7,
	}

	pruned := base
	pruned.StaticPrune = true
	p := lang.MustCompile(src)
	res, err := Synthesize(p, pruned)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeConverged {
		t.Fatalf("pruned synthesis did not converge: %s", res.Summary())
	}
	if res.StaticallyRobust {
		t.Fatal("buggy program reported statically robust")
	}
	if res.StaticDelayPairs != 1 {
		t.Errorf("static delay pairs = %d, want 1 ([x ⊰ y]): %s", res.StaticDelayPairs, res.Summary())
	}
	if res.StaticCandidates <= res.StaticDelayPairs {
		t.Errorf("candidates (%d) should exceed delay pairs (%d) on the co-traveler program",
			res.StaticCandidates, res.StaticDelayPairs)
	}
	if res.PrunedPredicates == 0 {
		t.Errorf("no predicates were pruned: %s", res.Summary())
	}
	wantAfter := findStore(t, p, "w", "x")
	if len(res.Fences) != 1 || res.Fences[0].After != wantAfter {
		t.Fatalf("pruned synthesis fences = %v, want exactly one after L%d (the x store)",
			res.Fences, wantAfter)
	}

	// The unpruned loop must converge to the same repair: pruning only
	// removes predicates the solver would not have needed.
	res2, err := Synthesize(lang.MustCompile(src), base)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome != OutcomeConverged {
		t.Fatalf("baseline synthesis did not converge: %s", res2.Summary())
	}
	if res2.PrunedPredicates != 0 || res2.StaticCandidates != 0 || res2.StaticallyRobust {
		t.Errorf("baseline run reports static statistics despite StaticPrune=false: %s", res2.Summary())
	}
}

package proggen

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/litmus"
	"dfence/internal/memmodel"
	"dfence/internal/staticanalysis"
)

func TestEnumerateSB(t *testing.T) {
	sb, err := litmus.ByName("SB")
	if err != nil {
		t.Fatal(err)
	}
	prog := sb.Program()
	var opts EnumOptions

	esc := Enumerate(prog, memmodel.SC, opts)
	if !esc.Complete {
		t.Fatalf("SC enumeration incomplete (%d states)", esc.States)
	}
	for _, o := range []string{"0,1|exit=0", "1,0|exit=0", "1,1|exit=0"} {
		if !esc.Outcomes[o] {
			t.Errorf("SC misses interleaving outcome %q (got %v)", o, esc.SortedOutcomes())
		}
	}
	if esc.Outcomes["0,0|exit=0"] {
		t.Errorf("SC reaches the store-buffering outcome 0,0: %v", esc.SortedOutcomes())
	}

	etso := Enumerate(prog, memmodel.TSO, opts)
	if !etso.Complete {
		t.Fatalf("TSO enumeration incomplete (%d states)", etso.States)
	}
	if !etso.Outcomes["0,0|exit=0"] {
		t.Errorf("TSO enumeration misses the store-buffering outcome 0,0: %v", etso.SortedOutcomes())
	}
	for o := range esc.Outcomes {
		if !etso.Outcomes[o] {
			t.Errorf("SC outcome %q not reachable under TSO", o)
		}
	}
}

// TestEnumerateVsLitmus replays the whole litmus conformance suite
// against the enumerator: every verdict the suite states (outcome
// forbidden under a model / distinguishing outcome the model allows) must
// hold of the exhaustively computed behavior set, not just of sampled
// schedules. Litmus outcomes lack the enumerator's exit suffix; all suite
// programs return 0.
func TestEnumerateVsLitmus(t *testing.T) {
	opts := EnumOptions{MaxStates: 400000, MaxSteps: 50000}
	for _, test := range litmus.All() {
		prog := test.Program()
		for _, model := range memmodel.Models() {
			v, ok := test.Results[model]
			if !ok {
				continue
			}
			r := Enumerate(prog, model, opts)
			if !r.Complete {
				t.Fatalf("%s under %v: enumeration incomplete (%d states)", test.Name, model, r.States)
			}
			if r.HasViolation() {
				t.Errorf("%s under %v: unexpected violation %v", test.Name, model, r.SortedViolations())
			}
			for _, f := range v.Forbidden {
				if r.Outcomes[string(f)+"|exit=0"] {
					t.Errorf("%s under %v: forbidden outcome %q is enumerable", test.Name, model, f)
				}
			}
			if v.Distinguishing != "" && !r.Outcomes[string(v.Distinguishing)+"|exit=0"] {
				t.Errorf("%s under %v: distinguishing outcome %q not enumerable (got %v)",
					test.Name, model, v.Distinguishing, r.SortedOutcomes())
			}
		}
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	p := Corpus(11, 3)[1] // a random program
	prog, err := p.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var opts EnumOptions
	a := Enumerate(prog, memmodel.PSO, opts)
	b := Enumerate(prog, memmodel.PSO, opts)
	if a.States != b.States || a.Paths != b.Paths {
		t.Errorf("state/path counts differ across runs: %d/%d vs %d/%d", a.States, a.Paths, b.States, b.Paths)
	}
	if !reflect.DeepEqual(a.SortedOutcomes(), b.SortedOutcomes()) {
		t.Errorf("outcome sets differ across runs:\n%v\n%v", a.SortedOutcomes(), b.SortedOutcomes())
	}
}

// TestEnumerateSpinLoop pins down that state dedup makes unbounded spin
// loops enumerable: MP's consumer busy-waits on a flag, so the naive
// schedule tree is infinite, but the spin revisits one machine state.
func TestEnumerateSpinLoop(t *testing.T) {
	mp, err := litmus.ByName("MP")
	if err != nil {
		t.Fatal(err)
	}
	r := Enumerate(mp.Program(), memmodel.PSO, EnumOptions{})
	if !r.Complete {
		t.Fatalf("MP enumeration incomplete (%d states) — spin-loop dedup broken?", r.States)
	}
	if !r.Outcomes["0|exit=0"] || !r.Outcomes["42|exit=0"] {
		t.Errorf("MP under PSO should reach both 0 and 42, got %v", r.SortedOutcomes())
	}
}

// reuseCell is one enumeration of the storage-reuse tests.
type reuseCell struct {
	name  string
	prog  *ir.Program
	model memmodel.Model
	opts  EnumOptions
}

// reuseCells is a sequence of enumerations that leaves every kind of
// stale storage behind for the next: a cell whose state budget trips,
// then a smaller program, a program with a different thread count, the
// same program under a different model, a cell whose step budget trips,
// and finally the first cell again.
func reuseCells(t *testing.T) []reuseCell {
	t.Helper()
	compile := func(p *Prog) *ir.Program {
		prog, err := p.Compile()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		return prog
	}
	litmusProg := func(name string) *ir.Program {
		test, err := litmus.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return test.Program()
	}
	rand2 := compile(Corpus(1, 3)[2])
	shapes := staticanalysis.CriticalCycleShapes(memmodel.RMO, 3)
	three := compile(TemplateProg(shapes[len(shapes)-1], VariantBare))
	budget := EnumOptions{MaxStates: 2000}
	return []reuseCell{
		{"rand-2 PSO, state budget", rand2, memmodel.PSO, budget},
		{"SB TSO", litmusProg("SB"), memmodel.TSO, EnumOptions{}},
		{"3-thread template RMO", three, memmodel.RMO, EnumOptions{}},
		{"3-thread template SC", three, memmodel.SC, EnumOptions{}},
		{"MP PSO, step budget", litmusProg("MP"), memmodel.PSO, EnumOptions{MaxSteps: 40}},
		{"rand-2 PSO again", rand2, memmodel.PSO, budget},
	}
}

// TestEnumeratorReuseMatchesFresh: an enumerator whose storage earlier
// enumerations left behind returns exactly what a fresh enumerator
// returns, cell after cell.
func TestEnumeratorReuseMatchesFresh(t *testing.T) {
	reused := newEnumerator()
	tripped := false
	for _, c := range reuseCells(t) {
		got := reused.walk(interp.Compile(c.prog), c.model, c.opts)
		want := newEnumerator().walk(interp.Compile(c.prog), c.model, c.opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused enumerator %s, fresh %s", c.name, enumDigest(got), enumDigest(want))
		}
		tripped = tripped || !want.Complete
	}
	if !tripped {
		t.Error("no cell tripped a budget")
	}
}

// TestEnumeratorSurvivesGC: an idle enumerator stays on the free list
// across garbage collections, so the next Enumerate reuses its storage
// instead of regrowing it from empty.
func TestEnumeratorSurvivesGC(t *testing.T) {
	test, err := litmus.ByName("SB")
	if err != nil {
		t.Fatal(err)
	}
	prog := test.Program()
	idle := func() *enumerator {
		enumFree.mu.Lock()
		defer enumFree.mu.Unlock()
		if len(enumFree.list) == 0 {
			return nil
		}
		return enumFree.list[len(enumFree.list)-1]
	}
	Enumerate(prog, memmodel.TSO, EnumOptions{})
	first := idle()
	if first == nil {
		t.Fatal("Enumerate left no idle enumerator")
	}
	runtime.GC()
	runtime.GC()
	Enumerate(prog, memmodel.TSO, EnumOptions{})
	if got := idle(); got != first {
		t.Errorf("Enumerate after two collections used enumerator %p, want the idle %p", got, first)
	}
}

// TestEnumerateConcurrent runs Enumerate from two goroutines at once, as
// the fuzz campaigns of a parallel benchmark do: with the enumerators
// shared through the free list, each result must still equal a fresh
// enumerator's. Run it under -race.
func TestEnumerateConcurrent(t *testing.T) {
	var cells []reuseCell
	for _, p := range Corpus(1, 6) {
		prog, err := p.Compile()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, m := range memmodel.Models() {
			cells = append(cells, reuseCell{p.Name + " " + m.String(), prog, m, EnumOptions{MaxStates: 2000}})
		}
	}
	cells = append(cells, reuseCells(t)...)
	want := make([]*EnumResult, len(cells))
	for i, c := range cells {
		want[i] = newEnumerator().walk(interp.Compile(c.prog), c.model, c.opts)
	}
	got := make([][]*EnumResult, 2)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cells {
				c := cells[(i+g*len(cells)/2)%len(cells)]
				got[g] = append(got[g], Enumerate(c.prog, c.model, c.opts))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, r := range got[g] {
			k := (i + g*len(cells)/2) % len(cells)
			if !reflect.DeepEqual(r, want[k]) {
				t.Errorf("goroutine %d, %s: %s, fresh %s", g, cells[k].name, enumDigest(r), enumDigest(want[k]))
			}
		}
	}
}

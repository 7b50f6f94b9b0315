package proggen

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dfence/internal/interp"
	"dfence/internal/memmodel"
)

// smokeConfig is a scaled-down campaign that still exercises every oracle
// phase (templates, injection, sampling, static analysis, synthesis).
func smokeConfig(seed int64, n int) FuzzConfig {
	return FuzzConfig{
		Seed:      seed,
		N:         n,
		Execs:     60,
		MaxRounds: 6,
	}
}

func TestFuzzClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential pass in -short mode")
	}
	rep := Fuzz(smokeConfig(1, 24))
	for _, d := range rep.Divergences {
		t.Errorf("divergence: %v\nsource:\n%s", d, d.Source)
		if d.Shrunk != nil {
			t.Logf("shrunk reproduction:\n%s", d.ShrunkSource)
		}
	}
	if rep.Programs != 24 {
		t.Errorf("Programs = %d, want 24", rep.Programs)
	}
	if rep.Templates == 0 || rep.Randoms == 0 {
		t.Errorf("corpus mix degenerate: %d templates, %d randoms", rep.Templates, rep.Randoms)
	}
	if rep.Violating == 0 {
		t.Errorf("no program enumerated a violation — templates and injection both inert")
	}
	if rep.Checked != rep.Programs*3 {
		t.Errorf("Checked = %d, want %d (three models per program)", rep.Checked, rep.Programs*3)
	}
}

// fingerprint summarizes a report for equality comparison.
func fingerprint(rep *FuzzReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "prog=%d tmpl=%d rand=%d inj=%d chk=%d viol=%d robust=%d\n",
		rep.Programs, rep.Templates, rep.Randoms, rep.Injected, rep.Checked, rep.Violating, rep.Robust)
	for _, n := range rep.Notes {
		fmt.Fprintf(&b, "note %s\n", n)
	}
	for _, d := range rep.Divergences {
		fmt.Fprintf(&b, "div %v\n", d)
	}
	return b.String()
}

func TestFuzzDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential pass in -short mode")
	}
	cfg := smokeConfig(99, 12)
	a := fingerprint(Fuzz(cfg))
	b := fingerprint(Fuzz(cfg))
	if a != b {
		t.Errorf("identically-seeded campaigns diverge:\n--- first\n%s--- second\n%s", a, b)
	}
}

// TestOracleGates is the harness self-test: with SkewEnum the enumeration
// phase sees an assert-stripped clone of each program, so on any
// violating template the dynamic phase observes a violation the
// enumerator claims unreachable. A harness that reports nothing here
// would also wave through a real interpreter/scheduler bug.
func TestOracleGates(t *testing.T) {
	cfg := smokeConfig(1, 1) // corpus entry 0 is a bare PSO template
	cfg.SkewEnum = true
	rep := Fuzz(cfg)
	var hit *Divergence
	for _, d := range rep.Divergences {
		if d.Kind == "phantom-violation" {
			hit = d
			break
		}
	}
	if hit == nil {
		var kinds []string
		for _, d := range rep.Divergences {
			kinds = append(kinds, d.Kind)
		}
		t.Fatalf("skewed oracle reported no phantom-violation (got %v) — the harness does not gate", kinds)
	}
	if hit.Shrunk == nil || hit.ShrunkSource == "" {
		t.Fatalf("divergence was not shrunk: %+v", hit)
	}
	if len(hit.Shrunk.Threads) > len(hit.Prog.Threads) {
		t.Errorf("shrunk program grew: %d threads from %d", len(hit.Shrunk.Threads), len(hit.Prog.Threads))
	}
	if _, err := hit.Shrunk.Compile(); err != nil {
		t.Errorf("shrunk reproduction does not compile: %v\n%s", err, hit.ShrunkSource)
	}
}

// TestInjectAddsAssert pins the assert-injection contract: a random
// program whose weak-model behaviors strictly exceed SC gains a Forbidden
// clause matching one of the extra outcomes, making it a synthesis target
// with known ground truth. A program left unchanged comes back compiled
// (to IR and to the interpreter's form) and with the enumerations inject
// computed, which check then reuses: both compiled forms must equal a
// fresh compile, and each enumeration a fresh enumeration of the program.
func TestInjectAddsAssert(t *testing.T) {
	f := &fuzzer{cfg: smokeConfig(5, 0), rep: &FuzzReport{}}
	f.cfg.Fill()
	injected, handed := 0, 0
	for idx := 0; idx < 40; idx++ {
		p := RandomProg(5, idx)
		q, handedProg, handedC, enums := f.inject(p, idx)
		if len(q.Forbidden) == 0 {
			if q != p {
				t.Errorf("rand-%d: inject replaced a program it did not change", idx)
			}
			prog, err := p.Compile()
			if err != nil {
				t.Fatalf("rand-%d: %v", idx, err)
			}
			if !reflect.DeepEqual(handedProg, prog) {
				t.Errorf("rand-%d: handed-over compiled program differs from a fresh compile", idx)
			}
			if handedC == nil || handedC.Fingerprint() != interp.Compile(prog).Fingerprint() {
				t.Errorf("rand-%d: handed-over interpreter program differs from a fresh compile", idx)
			}
			for _, r := range enums {
				handed++
				fresh := Enumerate(prog, r.Model, f.cfg.Enum)
				if enumDigest(r) != enumDigest(fresh) {
					t.Errorf("rand-%d %v: handed-over enumeration %s, fresh %s", idx, r.Model, enumDigest(r), enumDigest(fresh))
				}
			}
			continue
		}
		if handedProg != nil || handedC != nil || enums != nil {
			t.Errorf("rand-%d: inject handed over the program before its assert", idx)
		}
		injected++
		if len(q.Forbidden) != len(q.Observe) {
			t.Errorf("rand-%d: injected assert has %d conjuncts for %d observed globals",
				idx, len(q.Forbidden), len(q.Observe))
		}
		prog, err := q.Compile()
		if err != nil {
			t.Fatalf("rand-%d: injected program does not compile: %v", idx, err)
		}
		esc := Enumerate(prog, memmodel.SC, f.cfg.Enum)
		if !esc.Complete {
			t.Fatalf("rand-%d: SC enumeration incomplete", idx)
		}
		if esc.HasViolation() {
			t.Errorf("rand-%d: injected assert fires under SC: %v", idx, esc.SortedViolations())
		}
	}
	if injected == 0 {
		t.Error("no random program out of 40 earned an injected assert — generator too weak to exhibit relaxed behavior")
	}
	if handed == 0 {
		t.Error("inject handed over no enumeration")
	}
	if f.rep.Injected != injected {
		t.Errorf("report counts %d injections, saw %d", f.rep.Injected, injected)
	}
}

func TestOutcomeConds(t *testing.T) {
	conds, ok := outcomeConds([]string{"a", "b"}, "3,0|exit=0")
	if !ok || len(conds) != 2 || conds[0] != (Cond{Global: "a", Equals: 3}) || conds[1] != (Cond{Global: "b", Equals: 0}) {
		t.Errorf("outcomeConds = %v, %v", conds, ok)
	}
	if _, ok := outcomeConds([]string{"a"}, "1,2|exit=0"); ok {
		t.Error("arity mismatch accepted")
	}
	if _, ok := outcomeConds([]string{"a"}, "1"); ok {
		t.Error("missing exit suffix accepted")
	}
}

func TestShrinkMutations(t *testing.T) {
	p := &Prog{
		Name:    "m",
		Globals: []Global{{Name: "x"}, {Name: "y"}},
		Observe: []string{"x", "y"},
		Threads: []Thread{{Stmts: []Stmt{
			{Kind: SStoreConst, G: "x", Val: 1},
			{Kind: SLoop, Iters: 2, Body: []Stmt{
				{Kind: SStoreConst, G: "y", Val: 2},
			}},
		}}},
	}
	n := countStmts(p)
	if n != 3 {
		t.Fatalf("countStmts = %d, want 3", n)
	}
	// Deleting the loop (preorder index 1) drops its subtree.
	q := p.Clone()
	if !mutateNth(q, 1, false) {
		t.Fatal("delete of stmt 1 not applied")
	}
	if got := countStmts(q); got != 1 {
		t.Errorf("after loop deletion countStmts = %d, want 1", got)
	}
	// Unwrapping the loop splices its body into the parent.
	q = p.Clone()
	if !mutateNth(q, 1, true) {
		t.Fatal("unwrap of stmt 1 not applied")
	}
	if got := countStmts(q); got != 2 {
		t.Errorf("after loop unwrap countStmts = %d, want 2", got)
	}
	if q.Threads[0].Stmts[1].Kind != SStoreConst || q.Threads[0].Stmts[1].G != "y" {
		t.Errorf("unwrap did not splice the body: %+v", q.Threads[0].Stmts)
	}
	// Unwrap of a flat statement is inapplicable.
	q = p.Clone()
	if mutateNth(q, 0, true) {
		t.Error("unwrap of a flat store reported applicable")
	}
	// Every candidate of a corpus program must render and compile.
	for i, cand := range shrinkCandidates(Corpus(3, 2)[1]) {
		if _, err := cand.Compile(); err != nil {
			t.Errorf("shrink candidate %d does not compile: %v\n%s", i, err, cand.Render())
		}
	}
}

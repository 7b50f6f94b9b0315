package core

import (
	"testing"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/spec"
	"dfence/internal/synth"
)

// buildSB builds a store-buffering program whose assertion fails under
// TSO: each worker stores its flag then reads the other's; both reading 0
// is the non-SC outcome. The violating read is detected by asserting that
// at least one worker sees the other's store.
func buildSBAssert(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	for _, g := range []string{"x", "y", "r1", "r2"} {
		if err := p.AddGlobal(&ir.Global{Name: g, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(name, st, ld, out string) {
		b := ir.NewFuncBuilder(p, name, 0)
		sa := b.GlobalAddr(st)
		one := b.Const(1)
		b.Store(sa, one, st)
		la := b.GlobalAddr(ld)
		v, _ := b.Load(la, ld)
		oa := b.GlobalAddr(out)
		b.Store(oa, v, out)
		b.Ret()
		if _, err := b.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	mk("w1", "x", "y", "r1")
	mk("w2", "y", "x", "r2")
	b := ir.NewFuncBuilder(p, "main", 0)
	t1 := b.Fork("w1")
	t2 := b.Fork("w2")
	b.Join(t1)
	b.Join(t2)
	r1a := b.GlobalAddr("r1")
	r1, _ := b.Load(r1a, "r1")
	r2a := b.GlobalAddr("r2")
	r2, _ := b.Load(r2a, "r2")
	either := b.BinOp(ir.BinOr, r1, r2)
	b.Assert(either, "SB: both loads bypassed both stores")
	b.Ret()
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEnforceWithCASRepairsSBOnTSO(t *testing.T) {
	p := buildSBAssert(t)
	cfg := Config{
		Model:          memmodel.TSO,
		Criterion:      spec.MemorySafety,
		ExecsPerRound:  400,
		MaxRounds:      6,
		Seed:           3,
		EnforceWithCAS: true,
	}
	// Sanity: the bug exists.
	if v := CheckOnly(p, cfg, 400); v == 0 {
		t.Fatal("SB assertion never failed under TSO")
	}
	res, err := Synthesize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeConverged {
		t.Fatalf("CAS enforcement did not converge: %s", res.Summary())
	}
	if len(res.Fences) == 0 {
		t.Fatal("no enforcement inserted")
	}
	// The repaired program contains no fences — only dummy CAS sequences.
	if got := len(res.Program.Fences()); got != 0 {
		t.Errorf("CAS mode inserted %d fence instructions", got)
	}
	if res.Program.Global(synth.DummyCASGlobal) == nil {
		t.Error("dummy CAS global missing")
	}
	foundCas := false
	for _, name := range res.Program.FuncNames() {
		for _, in := range res.Program.Funcs[name].Code {
			if in.Op == ir.OpCas && in.Comment != "" && len(in.Comment) >= 5 && in.Comment[:5] == "dummy" {
				foundCas = true
			}
		}
	}
	if !foundCas {
		t.Error("no dummy CAS instruction found in repaired program")
	}
	// Repaired program is clean.
	clean := cfg
	clean.Seed = 12345
	if v := CheckOnly(res.Program, clean, 400); v != 0 {
		t.Errorf("repaired program still fails %d/400", v)
	}
}

func TestEnforceWithCASRejectsPSO(t *testing.T) {
	p := buildSBAssert(t)
	if _, err := synth.EnforceWithCAS(p, memmodel.PSO, []synth.Predicate{{L: 0, K: 1}}); err == nil {
		t.Fatal("CAS enforcement accepted PSO")
	}
}

func TestFenceAndCASEnforcementAgree(t *testing.T) {
	// Both enforcement modes must repair the same program.
	pf := buildSBAssert(t)
	cfgF := Config{
		Model: memmodel.TSO, Criterion: spec.MemorySafety,
		ExecsPerRound: 400, MaxRounds: 6, Seed: 3,
	}
	rf, err := Synthesize(pf, cfgF)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Outcome != OutcomeConverged {
		t.Fatalf("fence mode did not converge: %s", rf.Summary())
	}
	// Same predicates, hence same After labels, in both modes.
	pc := buildSBAssert(t)
	cfgC := cfgF
	cfgC.EnforceWithCAS = true
	rc, err := Synthesize(pc, cfgC)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Outcome != OutcomeConverged {
		t.Fatalf("CAS mode did not converge: %s", rc.Summary())
	}
	if len(rf.Fences) != len(rc.Fences) {
		t.Errorf("fence mode placed %d, CAS mode %d", len(rf.Fences), len(rc.Fences))
	}
}

func TestValidationSkippedInCASMode(t *testing.T) {
	p := buildSBAssert(t)
	cfg := Config{
		Model: memmodel.TSO, Criterion: spec.MemorySafety,
		ExecsPerRound: 400, MaxRounds: 6, Seed: 3,
		EnforceWithCAS: true, ValidateFences: true,
	}
	res, err := Synthesize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redundant != 0 {
		t.Error("validation ran in CAS mode")
	}
}

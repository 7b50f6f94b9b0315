package core

import (
	"testing"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/sched"
	"dfence/internal/spec"
)

// buildSPSC constructs a minimal single-producer queue exhibiting the
// paper's Fig. 2b bug under PSO:
//
//	operation put(v): items[T] = v; T = T + 1        (needs st-st fence)
//	operation take():  t = T; if t == 0 return EMPTY; return items[t-1]
//
// main forks one owner (put(7)) and one consumer (take()).
// Under PSO, T can become visible before items[T], so take returns the
// uninitialized 0 — a value never put, violating SC against the deque
// spec. A store-store fence after the items store repairs it. Under TSO
// the FIFO buffer already orders the two stores.
func buildSPSC(t *testing.T) (*ir.Program, ir.Label, ir.Label) {
	t.Helper()
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "T", Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddGlobal(&ir.Global{Name: "items", Size: 8}); err != nil {
		t.Fatal(err)
	}

	pb := ir.NewFuncBuilder(p, "put", 1).MarkOperation()
	v := pb.Param(0)
	ta := pb.GlobalAddr("T")
	tv, _ := pb.Load(ta, "T")
	ia := pb.GlobalAddr("items")
	at := pb.BinOp(ir.BinAdd, ia, tv)
	storeItems := pb.Store(at, v, "items[T]")
	one := pb.Const(1)
	t1 := pb.BinOp(ir.BinAdd, tv, one)
	storeT := pb.Store(ta, t1, "T")
	pb.Ret()
	if _, err := pb.Finish(); err != nil {
		t.Fatal(err)
	}

	tb := ir.NewFuncBuilder(p, "take", 0).MarkOperation()
	tta := tb.GlobalAddr("T")
	tt, _ := tb.Load(tta, "T")
	zero := tb.Const(0)
	isEmpty := tb.BinOp(ir.BinEq, tt, zero)
	emptyBr, haveBr := tb.CondBrF(isEmpty)
	haveBr.Here()
	tia := tb.GlobalAddr("items")
	onec := tb.Const(1)
	idx := tb.BinOp(ir.BinSub, tt, onec)
	at2 := tb.BinOp(ir.BinAdd, tia, idx)
	got, _ := tb.Load(at2, "items[t-1]")
	tb.RetVal(got)
	emptyBr.Here()
	empty := tb.Const(spec.EmptyVal)
	tb.RetVal(empty)
	if _, err := tb.Finish(); err != nil {
		t.Fatal(err)
	}

	ob := ir.NewFuncBuilder(p, "owner", 0)
	seven := ob.Const(7)
	ob.Call(ir.NoReg, "put", seven)
	ob.Ret()
	if _, err := ob.Finish(); err != nil {
		t.Fatal(err)
	}

	cb := ir.NewFuncBuilder(p, "consumer", 0)
	r := cb.NewReg()
	cb.Call(r, "take")
	cb.Ret()
	if _, err := cb.Finish(); err != nil {
		t.Fatal(err)
	}

	mb := ir.NewFuncBuilder(p, "main", 0)
	t1m := mb.Fork("owner")
	t2m := mb.Fork("consumer")
	mb.Join(t1m)
	mb.Join(t2m)
	mb.Ret()
	if _, err := mb.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	return p, storeItems, storeT
}

func TestCheckOnlyFindsPSOViolations(t *testing.T) {
	p, _, _ := buildSPSC(t)
	cfg := Config{Model: memmodel.PSO, Criterion: spec.SeqConsistency, NewSpec: spec.NewDeque, Seed: 1}
	if v := CheckOnly(p, cfg, 300); v == 0 {
		t.Fatal("no SC violations found under PSO in 300 runs")
	}
	cfgSC := cfg
	cfgSC.Model = memmodel.SC
	if v := CheckOnly(p, cfgSC, 300); v != 0 {
		t.Fatalf("%d violations under the SC memory model — program should be correct there", v)
	}
}

func TestSynthesizeInsertsStoreStoreFencePSO(t *testing.T) {
	p, storeItems, _ := buildSPSC(t)
	res, err := Synthesize(p, Config{
		Model:         memmodel.PSO,
		Criterion:     spec.SeqConsistency,
		NewSpec:       spec.NewDeque,
		ExecsPerRound: 300,
		MaxRounds:     6,
		Seed:          42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %s", res.Summary())
	}
	if res.Unfixable {
		t.Fatalf("marked unfixable: %s", res.Summary())
	}
	if len(res.Fences) != 1 {
		t.Fatalf("inserted %d fences, want exactly 1:\n%s", len(res.Fences), res.Summary())
	}
	f := res.Fences[0]
	if f.After != storeItems {
		t.Errorf("fence after L%d, want after the items store L%d", f.After, storeItems)
	}
	if f.Kind != ir.FenceStoreStore {
		t.Errorf("fence kind = %v, want store-store", f.Kind)
	}
	if f.Func != "put" {
		t.Errorf("fence in %s, want put", f.Func)
	}
	// Input program untouched.
	if len(p.Fences()) != 0 {
		t.Error("Synthesize mutated the input program")
	}
	// Repaired program no longer violates.
	cfg := Config{Model: memmodel.PSO, Criterion: spec.SeqConsistency, NewSpec: spec.NewDeque, Seed: 777}
	if v := CheckOnly(res.Program, cfg, 300); v != 0 {
		t.Errorf("repaired program still violates %d/300", v)
	}
}

func TestSynthesizeTSONeedsNoFence(t *testing.T) {
	p, _, _ := buildSPSC(t)
	res, err := Synthesize(p, Config{
		Model:         memmodel.TSO,
		Criterion:     spec.SeqConsistency,
		NewSpec:       spec.NewDeque,
		ExecsPerRound: 300,
		MaxRounds:     4,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Fences) != 0 {
		t.Fatalf("TSO run: converged=%v fences=%d, want converged with 0 fences\n%s",
			res.Converged, len(res.Fences), res.Summary())
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	p1, _, _ := buildSPSC(t)
	p2, _, _ := buildSPSC(t)
	cfg := Config{
		Model: memmodel.PSO, Criterion: spec.SeqConsistency, NewSpec: spec.NewDeque,
		ExecsPerRound: 200, MaxRounds: 5, Seed: 99,
	}
	a, err := Synthesize(p1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(p2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Fences) != len(b.Fences) || a.TotalExecutions != b.TotalExecutions {
		t.Fatalf("nondeterministic: %v vs %v", a.Summary(), b.Summary())
	}
	for i := range a.Fences {
		if a.Fences[i].After != b.Fences[i].After || a.Fences[i].Kind != b.Fences[i].Kind {
			t.Fatalf("fence %d differs: %v vs %v", i, a.Fences[i], b.Fences[i])
		}
	}
}

func TestSynthesizeUnfixable(t *testing.T) {
	// A program that fails its assertion on every execution regardless of
	// fences: no candidate predicates, must be flagged unfixable.
	p := ir.NewProgram()
	b := ir.NewFuncBuilder(p, "main", 0)
	z := b.Const(0)
	b.Assert(z, "always fails")
	b.Ret()
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(p, Config{
		Model:         memmodel.PSO,
		Criterion:     spec.MemorySafety,
		ExecsPerRound: 10,
		MaxRounds:     3,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unfixable {
		t.Fatalf("logic bug not flagged unfixable: %s", res.Summary())
	}
	if len(res.Fences) != 0 {
		t.Errorf("fences inserted for an unfixable bug: %v", res.Fences)
	}
}

func TestSynthesizeRequiresSpecForSC(t *testing.T) {
	p, _, _ := buildSPSC(t)
	if _, err := Synthesize(p, Config{Model: memmodel.PSO, Criterion: spec.SeqConsistency}); err == nil {
		t.Fatal("missing sequential spec accepted")
	}
}

func TestSynthesizeMemorySafetyOnlyIgnoresHistories(t *testing.T) {
	// Under the memory-safety criterion the SPSC SC violation (garbage
	// value) is NOT a violation — no fence should be inserted (the paper
	// §6.6: memory safety is usually too weak to trigger WSQ violations).
	p, _, _ := buildSPSC(t)
	res, err := Synthesize(p, Config{
		Model:         memmodel.PSO,
		Criterion:     spec.MemorySafety,
		ExecsPerRound: 200,
		MaxRounds:     3,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Fences) != 0 {
		t.Fatalf("memory-safety run inserted fences: %s", res.Summary())
	}
}

func TestWitnessCapturedAndReplayable(t *testing.T) {
	p, _, _ := buildSPSC(t)
	res, err := Synthesize(p, Config{
		Model:         memmodel.PSO,
		Criterion:     spec.SeqConsistency,
		NewSpec:       spec.NewDeque,
		ExecsPerRound: 300,
		MaxRounds:     6,
		Seed:          42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Witness == nil {
		t.Fatal("no witness captured despite violations")
	}
	if res.WitnessViolation == "" {
		t.Error("witness has no description")
	}
	// The witness replays against the ORIGINAL (unfenced) program and
	// reproduces a violating history.
	rep, ok := sched.Replay(p, nil, res.Witness)
	if !ok {
		t.Fatal("witness replay diverged on the original program")
	}
	ops := spec.CompleteOps(rep.History)
	if rep.Violation == nil && spec.Check(spec.SeqConsistency, ops, spec.NewDeque, false) {
		t.Error("witness replay did not reproduce the violation")
	}
}

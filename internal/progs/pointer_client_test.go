package progs_test

import (
	"testing"

	"dfence/internal/core"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
)

// The §6.6 future-work experiment: with a pointer-freeing client, pure
// memory-safety checking detects the duplicate-extraction bugs that plain
// clients only reveal under SC/linearizability.

func TestPointerClientRegistered(t *testing.T) {
	b, err := progs.ByName("chase-lev-ptr")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Program().Validate(); err != nil {
		t.Fatal(err)
	}
	if len(progs.Extras()) == 0 {
		t.Error("Extras() empty")
	}
	// Not part of the Table 2/3 set.
	for _, x := range progs.All() {
		if x.Name == "chase-lev-ptr" {
			t.Error("pointer client leaked into the Table 3 benchmark list")
		}
	}
}

func TestPointerClientCleanUnderSC(t *testing.T) {
	b, _ := progs.ByName("chase-lev-ptr")
	cfg := core.Config{Model: memmodel.SC, Criterion: spec.MemorySafety, Seed: 1}
	if v := core.CheckOnly(b.Program(), cfg, 300); v != 0 {
		t.Fatalf("%d/300 SC-machine violations — client itself is buggy", v)
	}
}

// TestPointerClientExposesDuplicatesViaMemorySafety is the paper's
// hypothesis: the plain chase-lev client shows NO memory-safety
// violations under TSO (§6.6: "memory safety specifications are almost
// always not sufficiently strong"), while the pointer-freeing client
// turns the duplicate extraction into a double free.
func TestPointerClientExposesDuplicatesViaMemorySafety(t *testing.T) {
	plain, _ := progs.ByName("chase-lev")
	ptr, _ := progs.ByName("chase-lev-ptr")

	count := func(b *progs.Benchmark, model memmodel.Model, fp float64) int {
		cfg := core.Config{
			Model: model, Criterion: spec.MemorySafety,
			FlushProb: fp, Seed: 13,
		}
		return core.CheckOnly(b.Program(), cfg, 1500)
	}

	if v := count(plain, memmodel.TSO, 0.15); v != 0 {
		t.Errorf("plain client: %d memory-safety violations on TSO — expected 0 (§6.6)", v)
	}
	if v := count(ptr, memmodel.TSO, 0.15); v == 0 {
		t.Error("pointer client: no memory-safety violations on TSO — the §6.6 trick failed")
	}
	if v := count(ptr, memmodel.PSO, 0.5); v == 0 {
		t.Error("pointer client: no memory-safety violations on PSO")
	}
}

// TestPointerClientSynthesis: memory safety alone now drives fence
// inference for Chase-Lev.
func TestPointerClientSynthesis(t *testing.T) {
	b, _ := progs.ByName("chase-lev-ptr")
	res, err := core.Synthesize(b.Program(), core.Config{
		Model:          memmodel.PSO,
		Criterion:      spec.MemorySafety,
		ExecsPerRound:  800,
		MaxRounds:      8,
		Seed:           2,
		ValidateFences: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %s", res.Summary())
	}
	if len(res.Fences) == 0 {
		t.Fatal("no fences inferred from memory safety with the pointer client")
	}
	// The repaired program must be clean.
	cfg := core.Config{Model: memmodel.PSO, Criterion: spec.MemorySafety, Seed: 555}
	if v := core.CheckOnly(res.Program, cfg, 500); v != 0 {
		t.Errorf("repaired program still violates %d/500", v)
	}
}

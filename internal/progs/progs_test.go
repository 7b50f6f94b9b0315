package progs_test

import (
	"strings"
	"testing"

	"dfence/internal/core"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/sched"
	"dfence/internal/spec"
)

func TestAllBenchmarksCompile(t *testing.T) {
	if len(progs.All()) != 13 {
		t.Fatalf("registry has %d benchmarks, want 13: %v", len(progs.All()), progs.Names())
	}
	for _, b := range progs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p := b.Program()
			if err := p.Validate(); err != nil {
				t.Fatalf("invalid IR: %v", err)
			}
			if p.CountStores() == 0 {
				t.Error("no insertion points — benchmark has no shared stores?")
			}
			// Sources carry no explicit fences; lock()/unlock() lower to
			// fence-wrapped CAS loops (§5.2), so lock-based benchmarks have
			// lock-induced fences only.
			if !strings.Contains(b.Source, "lock(") && len(p.Fences()) != 0 {
				t.Errorf("source ships %d fences; benchmarks must be fence-free", len(p.Fences()))
			}
		})
	}
}

// criterion returns the strongest criterion a benchmark is checked under.
func criterion(b *progs.Benchmark) spec.Criterion {
	if b.SkipSeqCheck {
		return spec.MemorySafety
	}
	return spec.SeqConsistency
}

// TestCorrectUnderSCMachine is the keystone sanity check: every benchmark,
// run on the SC memory model, must satisfy its specification on every
// explored schedule — the algorithms are correct, only relaxed memory
// breaks them.
func TestCorrectUnderSCMachine(t *testing.T) {
	const runs = 200
	for _, b := range progs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			cfg := core.Config{
				Model:            memmodel.SC,
				Criterion:        criterion(b),
				NewSpec:          b.NewSpec(),
				CheckGarbage:     b.CheckGarbage,
				RelaxStealAborts: b.RelaxStealAborts,
				Seed:             12345,
			}
			if v := core.CheckOnly(b.Program(), cfg, runs); v != 0 {
				t.Errorf("%d/%d SC-machine executions violate %v — the benchmark itself is buggy", v, runs, cfg.Criterion)
			}
		})
	}
}

// TestLinearizableUnderSCMachine documents which benchmarks satisfy
// linearizability on an SC machine (paper §6.6 examines this for THE).
func TestLinearizableUnderSCMachine(t *testing.T) {
	const runs = 200
	for _, b := range progs.All() {
		if b.SkipSeqCheck {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			cfg := core.Config{
				Model:            memmodel.SC,
				Criterion:        spec.Linearizability,
				NewSpec:          b.NewSpec(),
				RelaxStealAborts: b.RelaxStealAborts,
				Seed:             999,
			}
			v := core.CheckOnly(b.Program(), cfg, runs)
			if v != 0 {
				t.Logf("NOT linearizable on SC machine: %d/%d violations", v, runs)
			}
			// All our variants are expected linearizable under SC; a change
			// here is worth noticing.
			if v != 0 {
				t.Errorf("%s: %d/%d linearizability violations under SC", b.Name, v, runs)
			}
		})
	}
}

// TestRelaxedModelsExposeViolations checks the headline dynamic: the
// fence-free sources do violate their specs under the relaxed models the
// paper flags them for.
func TestRelaxedModelsExposeViolations(t *testing.T) {
	cases := []struct {
		bench string
		model memmodel.Model
		crit  spec.Criterion
		flush float64
	}{
		{"chase-lev", memmodel.TSO, spec.SeqConsistency, 0.1},
		{"chase-lev", memmodel.PSO, spec.SeqConsistency, 0.5},
		{"chase-lev", memmodel.PSO, spec.Linearizability, 0.5},
		{"msn-queue", memmodel.PSO, spec.SeqConsistency, 0.5},
		{"lifo-wsq", memmodel.PSO, spec.SeqConsistency, 0.5},
		{"fifo-iwsq", memmodel.PSO, spec.MemorySafety, 0.5},
		{"michael-alloc", memmodel.PSO, spec.MemorySafety, 0.5},
	}
	for _, c := range cases {
		c := c
		t.Run(c.bench+"/"+c.model.String()+"/"+c.crit.String(), func(t *testing.T) {
			t.Parallel()
			b, err := progs.ByName(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{
				Model:            c.model,
				Criterion:        c.crit,
				NewSpec:          b.NewSpec(),
				CheckGarbage:     b.CheckGarbage,
				RelaxStealAborts: b.RelaxStealAborts,
				FlushProb:        c.flush,
				Seed:             7,
			}
			if v := core.CheckOnly(b.Program(), cfg, 600); v == 0 {
				t.Errorf("no violations in 600 runs — expected the relaxed model to break this benchmark")
			}
		})
	}
}

// TestLockBasedNeedNoFences: the fully lock-protected algorithms must be
// clean even under PSO (the lock's own fences order everything) — the
// paper's MS2 and LazyList rows are all zeros.
func TestLockBasedNeedNoFences(t *testing.T) {
	for _, name := range []string{"ms2-queue", "lazylist-set"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := progs.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{
				Model:     memmodel.PSO,
				Criterion: spec.SeqConsistency,
				NewSpec:   b.NewSpec(),
				FlushProb: 0.5,
				Seed:      11,
			}
			if v := core.CheckOnly(b.Program(), cfg, 400); v != 0 {
				t.Errorf("%d/400 violations under PSO — lock fences should prevent all", v)
			}
		})
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := progs.ByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	b, err := progs.ByName("chase-lev")
	if err != nil || b.Paper != "Chase-Lev's WSQ" {
		t.Errorf("lookup broken: %v %v", b, err)
	}
}

func TestSourceLOC(t *testing.T) {
	for _, b := range progs.All() {
		if loc := b.SourceLOC(); loc < 20 {
			t.Errorf("%s: SourceLOC = %d, implausibly small", b.Name, loc)
		}
	}
}

func TestProgramReturnsClone(t *testing.T) {
	b, _ := progs.ByName("chase-lev")
	p1 := b.Program()
	p2 := b.Program()
	f := p1.Funcs["put"]
	var storeLbl = f.Code[0].Label
	for i := range f.Code {
		if f.Code[i].Op.String() == "store" {
			storeLbl = f.Code[i].Label
		}
	}
	if _, err := p1.InsertFenceAfter(storeLbl, 1); err != nil {
		t.Fatal(err)
	}
	if len(p2.Fences()) != 0 || len(b.Program().Fences()) != 0 {
		t.Error("Program() shares state across calls")
	}
}

// TestDeterministicScheduling: a benchmark run twice with one seed gives
// identical histories (the synthesis loop depends on this).
func TestDeterministicScheduling(t *testing.T) {
	b, _ := progs.ByName("chase-lev")
	p := b.Program()
	a := sched.Run(p, memmodel.PSO, nil, sched.DefaultOptions(3))
	c := sched.Run(p, memmodel.PSO, nil, sched.DefaultOptions(3))
	if len(a.History) != len(c.History) {
		t.Fatalf("histories differ: %v vs %v", a.History, c.History)
	}
	for i := range a.History {
		if a.History[i].String() != c.History[i].String() {
			t.Fatalf("event %d differs", i)
		}
	}
}

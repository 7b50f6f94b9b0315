package core

import (
	"reflect"
	"runtime"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
)

// chaseLevCfg builds a reduced-budget Chase-Lev synthesis configuration —
// the acceptance benchmark of the parallel engine.
func chaseLevCfg(t *testing.T, workers int) (*progs.Benchmark, Config) {
	t.Helper()
	b, err := progs.ByName("chase-lev")
	if err != nil {
		t.Fatal(err)
	}
	return b, Config{
		Model:            memmodel.PSO,
		Criterion:        spec.SeqConsistency,
		NewSpec:          b.NewSpec(),
		RelaxStealAborts: b.RelaxStealAborts,
		ExecsPerRound:    150,
		MaxRounds:        8,
		Seed:             3,
		Workers:          workers,
		ValidateFences:   true,
	}
}

// TestSynthesizeWorkersDeterministic is the engine's core guarantee: a
// fixed seed produces identical fences, round statistics, and witness for
// Workers=1 (the serial path) and Workers=8 (the worker pool), on the
// Chase-Lev benchmark under PSO. Running under `go test -race ./...` this
// also proves the shared *ir.Program is safely raced-over by the workers'
// machines.
func TestSynthesizeWorkersDeterministic(t *testing.T) {
	b, serialCfg := chaseLevCfg(t, 1)
	_, parallelCfg := chaseLevCfg(t, 8)

	serial, err := Synthesize(b.Program(), serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Synthesize(b.Program(), parallelCfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial.Fences) == 0 {
		t.Fatal("synthesis inferred no fences — benchmark budget too small to compare anything")
	}
	if !reflect.DeepEqual(serial.Fences, parallel.Fences) {
		t.Errorf("fences diverge:\n  workers=1: %v\n  workers=8: %v", serial.Fences, parallel.Fences)
	}
	if len(serial.Rounds) != len(parallel.Rounds) {
		t.Fatalf("round counts diverge: workers=1 ran %d, workers=8 ran %d", len(serial.Rounds), len(parallel.Rounds))
	}
	for i := range serial.Rounds {
		s, p := serial.Rounds[i], parallel.Rounds[i]
		if s.Executions != p.Executions || s.Violations != p.Violations ||
			s.DistinctClauses != p.DistinctClauses || s.Predicates != p.Predicates {
			t.Errorf("round %d stats diverge: workers=1 %+v, workers=8 %+v", i, s, p)
		}
	}
	if serial.TotalExecutions != parallel.TotalExecutions {
		t.Errorf("total executions diverge: %d vs %d", serial.TotalExecutions, parallel.TotalExecutions)
	}
	if serial.Outcome != parallel.Outcome || serial.Redundant != parallel.Redundant ||
		serial.SynthesizedFences != parallel.SynthesizedFences {
		t.Errorf("outcome diverges: workers=1 outcome=%v red=%d synth=%d, workers=8 outcome=%v red=%d synth=%d",
			serial.Outcome, serial.Redundant, serial.SynthesizedFences,
			parallel.Outcome, parallel.Redundant, parallel.SynthesizedFences)
	}
	switch {
	case (serial.Witness == nil) != (parallel.Witness == nil):
		t.Errorf("witness presence diverges: workers=1 %v, workers=8 %v", serial.Witness, parallel.Witness)
	case serial.Witness != nil && serial.Witness.String() != parallel.Witness.String():
		t.Errorf("witness schedules diverge:\n  workers=1: %s\n  workers=8: %s", serial.Witness, parallel.Witness)
	}
	if serial.WitnessViolation != parallel.WitnessViolation {
		t.Errorf("witness violations diverge: %q vs %q", serial.WitnessViolation, parallel.WitnessViolation)
	}
}

// TestCheckOnlyWorkersDeterministic: the violation count is exact (no
// early cancellation), so it must match across worker counts.
func TestCheckOnlyWorkersDeterministic(t *testing.T) {
	b, serialCfg := chaseLevCfg(t, 1)
	_, parallelCfg := chaseLevCfg(t, 8)
	s := CheckOnly(b.Program(), serialCfg, 300)
	p := CheckOnly(b.Program(), parallelCfg, 300)
	if s != p {
		t.Fatalf("CheckOnly diverges: workers=1 counted %d, workers=8 counted %d", s, p)
	}
	if s == 0 {
		t.Fatal("unfenced Chase-Lev produced no violations in 300 PSO runs — checker budget broken")
	}
}

// TestFindRedundantFencesWorkersDeterministic: the redundancy verdicts are
// boolean per fence, so they must match across worker counts even though
// the parallel trials early-cancel.
func TestFindRedundantFencesWorkersDeterministic(t *testing.T) {
	p, storeItems, storeT := buildSPSC(t)
	if _, err := p.InsertFenceAfter(storeItems, ir.FenceStoreStore); err != nil {
		t.Fatal(err)
	}
	if _, err := p.InsertFenceAfter(storeT, ir.FenceStoreStore); err != nil {
		t.Fatal(err)
	}
	mk := func(workers int) Config {
		return Config{
			Model:         memmodel.PSO,
			Criterion:     spec.SeqConsistency,
			NewSpec:       spec.NewDeque,
			ExecsPerRound: 300,
			Seed:          11,
			Workers:       workers,
		}
	}
	serial, err := FindRedundantFences(p, mk(1), 600)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := FindRedundantFences(p, mk(8), 600)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("redundant sets diverge: workers=1 %v, workers=8 %v", serial, parallel)
	}
}

// TestConfigFillDefaults pins the documented defaults: ValidateExecs is
// 3 * ExecsPerRound (the doc/code mismatch fixed in this revision) and
// Workers is runtime.NumCPU().
func TestConfigFillDefaults(t *testing.T) {
	cfg := Config{ExecsPerRound: 100}
	cfg.fill()
	if cfg.ValidateExecs != 3*cfg.ExecsPerRound {
		t.Errorf("ValidateExecs default = %d, want 3*ExecsPerRound = %d", cfg.ValidateExecs, 3*cfg.ExecsPerRound)
	}
	if cfg.Workers != runtime.NumCPU() {
		t.Errorf("Workers default = %d, want runtime.NumCPU() = %d", cfg.Workers, runtime.NumCPU())
	}
	// Explicit values survive fill.
	cfg = Config{ExecsPerRound: 100, ValidateExecs: 7, Workers: 3}
	cfg.fill()
	if cfg.ValidateExecs != 7 || cfg.Workers != 3 {
		t.Errorf("fill clobbered explicit values: ValidateExecs=%d Workers=%d", cfg.ValidateExecs, cfg.Workers)
	}
}

// The run description: how a telemetry.RunStart becomes a program and a
// Config.
//
// Algorithm 1 is a pure function of (program, specification, memory model,
// budgets), and RunStart records exactly those — so the record a journal
// opens with is also the input every front end runs from. `dfence` (fresh,
// -resume and explain), dfenced jobs and Table 3 cells all build a
// RunStart, hand it to Load, and journal that same value; there is no
// second mapping that could drift from the first.
package core

import (
	"fmt"

	"dfence/internal/ir"
	"dfence/internal/lang"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
	"dfence/internal/telemetry"
)

// EffectiveFlushProb resolves a requested flush probability the way a run
// uses it: 0 selects the model default (§6.5: 0.1 for TSO, 0.5
// otherwise) and a negative value means never flush early, which runs as
// probability 0. RunStart records the resolved value.
func EffectiveFlushProb(p float64, model memmodel.Model) float64 {
	switch {
	case p < 0:
		return 0
	case p > 0:
		return p
	case model == memmodel.TSO:
		return 0.1
	}
	return 0.5
}

// Load builds the program and Config that start describes. It
// canonicalizes start in place — the model and criterion names, and the
// sequential specification (a builtin's own; none for a memory-safety
// run) — so the caller journals exactly what runs.
//
// The program comes from start.Builtin (the benchmark also supplies the
// specification and its history-check flags) or from start.Source
// (compiled mini-C, specification by start.SeqSpec); start.Optimize runs
// ir.Optimize on it. start.FlushProb is the resolved probability
// (EffectiveFlushProb), so 0 loads as the never-flush sentinel.
//
// The Config carries every determinism-relevant field and Workers; the
// per-process wiring (Sink, Metrics, Tracer, Interrupt, Resume,
// Deadline) is left to the caller.
func Load(start *telemetry.RunStart) (*ir.Program, Config, error) {
	model, err := memmodel.ParseModel(start.Model)
	if err != nil {
		return nil, Config{}, err
	}
	crit, ok := spec.ParseCriterion(start.Criterion)
	if !ok {
		return nil, Config{}, fmt.Errorf("unknown criterion %q (want safety, sc, lin)", start.Criterion)
	}
	start.Model, start.Criterion = model.String(), crit.String()

	flush := start.FlushProb
	if flush == 0 {
		flush = -1
	}
	cfg := Config{
		Model:           model,
		Criterion:       crit,
		ExecsPerRound:   start.Execs,
		MaxRounds:       start.MaxRounds,
		FlushProb:       flush,
		Seed:            start.Seed,
		Workers:         start.Workers,
		ValidateFences:  start.Validate,
		StaticPrune:     start.Static,
		EnforceWithCAS:  start.CAS,
		MinConclusive:   start.MinConclusive,
		MaxModels:       start.MaxModels,
		MaxStepsPerExec: start.MaxSteps,
		MaxItersPerExec: start.MaxIters,
	}

	var prog *ir.Program
	switch {
	case start.Builtin != "":
		b, err := progs.ByName(start.Builtin)
		if err != nil {
			return nil, Config{}, err
		}
		prog = b.Program()
		cfg.NewSpec = b.NewSpec()
		cfg.CheckGarbage = b.CheckGarbage
		cfg.RelaxStealAborts = b.RelaxStealAborts
		start.SeqSpec = b.SpecName
	case start.Source != "":
		prog, err = lang.Compile(start.Source)
		if err != nil {
			return nil, Config{}, err
		}
		if crit == spec.MemorySafety {
			start.SeqSpec = ""
		} else if cfg.NewSpec, err = spec.ByName(start.SeqSpec); err != nil {
			return nil, Config{}, err
		}
	default:
		return nil, Config{}, fmt.Errorf("run description names neither a source program nor a builtin benchmark")
	}
	if start.Optimize {
		ir.Optimize(prog)
	}
	return prog, cfg, nil
}

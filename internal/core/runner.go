// Parallel execution engine for the synthesis loop: the glue between
// sched.RunBatch's worker pool and Algorithm 1's per-round bookkeeping.
// Seeds keep the serial assignment Seed + round*ExecsPerRound + i, every
// worker owns a synth.Collector, and per-execution outcomes come back as
// an index-ordered slice so the caller merges repair disjunctions into the
// shared synth.Formula deterministically (by execution index, never by
// completion order). Results are therefore bit-identical for any
// Config.Workers value (the Deadline, when set, is the one opt-in source
// of nondeterminism).
package core

import (
	"context"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/sched"
	"dfence/internal/synth"
	"dfence/internal/trace"
)

// execOutcome is the per-execution record the engine hands back to the
// synthesis loop: just enough to merge into φ and account for the
// three-valued verdict. The zero value means "never ran" (skipped).
type execOutcome struct {
	ran          bool
	violated     bool
	inconclusive bool
	// err is the structured panic report when the execution's interpreter
	// or observer panicked (such executions also count inconclusive).
	err *sched.ExecError
	// repairs is the execution's repair disjunction (violations only; an
	// empty disjunction means fences cannot avoid this execution).
	repairs []synth.Predicate
	// desc describes the violation when repairs is empty (the Unfixable
	// diagnostics of Result).
	desc string
}

// starveEagerFlush is the flush probability of the portfolio's most
// adversarial phase: with the victim's stores vowed away, every OTHER
// store should commit promptly, so the machine state at the end of the
// victim's delay window is as far from the victim's view as possible.
const starveEagerFlush = 0.9

// lazyResolve is the deferred-load resolution probability of the
// portfolio's load-buffering phases. ResolveProb's default couples
// resolution to FlushProb, which is exactly backwards for load-class
// reorderings: a load-buffering outcome wants stores committed eagerly
// but loads resolved as late as possible (resolution is the load's
// commit point — resolving early IS program order). Measured on the
// 2-thread LB litmus shape, eager-flush + lazy-resolve exposes the
// violation ~50x more often than the coupled default (21.8% vs 0.4%
// per execution).
const lazyResolve = 0.05

// portfolioPhases is the scheduler-portfolio cycle length for the given
// model: the four store-delay phases, plus two load-buffering phases on
// models that defer loads. Gating on DefersLoads keeps the option
// stream — and therefore every result — bit-identical to earlier
// versions on SC/TSO/PSO.
func portfolioPhases(cfg *Config) int {
	if cfg.Model.DefersLoads() {
		return 6
	}
	return 4
}

// portfolioPhase applies phase i%portfolioPhases to opts. The plain
// coin (phase 0) finds the common reorderings; the priority strategy
// races one thread far ahead of the others (3-thread critical cycles
// need a head start no uniform pick sequence is likely to produce); the
// starvation vow maximally delays one buffered store per run
// (2+2W-style write cycles need a store to outlive its thread); phase 3
// combines all three knobs — measured on the 3-thread write-cycle
// litmus family, it reaches residual violations of partially fenced
// programs ~50x more often than any single knob. Phases 4 and 5
// (load-deferring models only) commit stores eagerly while resolving
// deferred loads lazily and vowing to keep each deferral window open
// while other threads can run (sched.Options.StarveLoads) — the
// load-buffering analogue of the starve phase; the store-starvation
// vow is deliberately absent there, since vowing a store away blocks
// the commit an LB cycle needs. cfg must be filled: its FlushProb of 0
// is then the "never flush early" request, which every phase honors.
func portfolioPhase(cfg *Config, opts sched.Options, i int) sched.Options {
	phase := i % portfolioPhases(cfg)
	opts.Portfolio = uint8(phase) // trace attribution tag; observational
	switch phase {
	case 1:
		opts.Strategy = sched.Priority
	case 2:
		opts.Starve = true
	case 3:
		opts.Strategy = sched.Priority
		opts.Starve = true
		if cfg.FlushProb > 0 {
			// A filled FlushProb of 0 is the "never flush early"
			// request; the eager phases must not override it.
			opts.FlushProb = starveEagerFlush
		}
	case 4:
		if cfg.FlushProb > 0 {
			opts.FlushProb = starveEagerFlush
		}
		opts.ResolveProb = lazyResolve
		opts.StarveLoads = true
	case 5:
		opts.Strategy = sched.Priority
		if cfg.FlushProb > 0 {
			opts.FlushProb = starveEagerFlush
		}
		opts.ResolveProb = lazyResolve
		opts.StarveLoads = true
	}
	return opts
}

// roundOpts builds the scheduler options of execution i of the given
// round — the one place the seed schedule Seed + round*K + i is encoded.
// Config.OptionsHook gets the last word (the fault-injection seam).
func roundOpts(cfg *Config, round, i int) sched.Options {
	opts := portfolioPhase(cfg, sched.Options{
		Seed:      cfg.Seed + int64(round)*int64(cfg.ExecsPerRound) + int64(i),
		FlushProb: cfg.FlushProb,
		MaxSteps:  cfg.MaxStepsPerExec,
		MaxIters:  cfg.MaxItersPerExec,
		PORWindow: 64,
		Tracer:    cfg.Tracer,
	}, i)
	if cfg.OptionsHook != nil {
		opts = cfg.OptionsHook(round, i, opts)
	}
	return opts
}

// trialOpts builds the scheduler options of validation and redundancy
// trial executions. The fence-touch transfer keys trials on seed index,
// so every trial of one pass must see the same option stream. It applies
// the same scheduler portfolio as roundOpts on top of the trial
// flush-probability sweep: a missing fence's violation rate peaks at
// model- and shape-dependent scheduler settings (paper Fig. 5), so trying
// only the synthesis setting under-detects.
func trialOpts(cfg *Config, seedBase int64, i int) sched.Options {
	probs := [...]float64{0.1, 0.3, cfg.FlushProb}
	return portfolioPhase(cfg, sched.Options{
		Seed:      seedBase + int64(i),
		FlushProb: probs[i%len(probs)],
		MaxSteps:  cfg.MaxStepsPerExec,
		MaxIters:  cfg.MaxItersPerExec,
		PORWindow: 64,
		Tracer:    cfg.Tracer,
	}, i)
}

// runRound fans one round's ExecsPerRound executions of work across
// cfg.Workers goroutines and returns one outcome slot per execution, in
// execution order. work is shared read-only across the workers; each
// execution gets its own interp.Machine and each worker its own collector.
// Slots whose execution never started (ctx expired first) come back as
// the zero outcome with ran == false.
func runRound(ctx context.Context, work *ir.Program, cfg *Config, jcs []judgeCache, round int) []execOutcome {
	newObs := func(int) interp.Observer { return synth.NewCollector(cfg.Model) }
	reduce := func(i, worker int, obs interp.Observer, res *interp.Result, err *sched.ExecError) (execOutcome, bool) {
		coll := obs.(*synth.Collector)
		cfg.mv.Executions.Inc(worker)
		if err != nil {
			coll.Reset() // a panicked run may leave partial predicates behind
			err.Round = round
			cfg.mv.Panics.Inc(worker)
			cfg.mv.Inconclusive.Inc(worker)
			return execOutcome{ran: true, inconclusive: true, err: err}, false
		}
		cfg.mv.ExecSteps.Observe(worker, int64(res.Steps))
		switch judgeWorker(cfg, jcs, worker, res) {
		case verdictInconclusive:
			coll.Reset()
			cfg.mv.Inconclusive.Inc(worker)
			if res.TimedOut {
				cfg.mv.Timeouts.Inc(worker)
			}
			return execOutcome{ran: true, inconclusive: true}, false
		case verdictClean:
			coll.Reset()
			cfg.mv.Clean.Inc(worker)
			return execOutcome{ran: true}, false
		}
		cfg.mv.Violations.Inc(worker)
		cfg.Tracer.Instant(worker+1, trace.InstantViolation, round+1, roundOpts(cfg, round, i).Seed)
		out := execOutcome{ran: true, violated: true, repairs: coll.TakeDisjunction()}
		if len(out.repairs) == 0 {
			out.desc = describeViolation(cfg, res)
		}
		return out, false
	}
	return sched.RunBatch(ctx, work, cfg.Model, cfg.ExecsPerRound, cfg.Workers,
		newObs, func(i int) sched.Options { return roundOpts(cfg, round, i) }, reduce)
}

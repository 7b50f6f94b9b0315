package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"dfence/internal/core"
	"dfence/internal/interp"
	"dfence/internal/memmodel"
	"dfence/internal/proggen"
	"dfence/internal/sched"
	"dfence/internal/spec"
	"dfence/internal/staticanalysis"
	"dfence/internal/synth"
	"dfence/internal/telemetry"
	"dfence/internal/trace"
)

// synthAcc folds traced core.Synthesize runs into the core, sched and sat
// layer numbers: phase spans from each run's trace.Tracer snapshot, the
// exact per-portfolio scheduler aggregates, and the solver and cache
// counters of one shared telemetry.Metrics.
type synthAcc struct {
	m *telemetry.Metrics

	mu                  sync.Mutex
	runs                int
	runUS               float64
	phaseUS             map[string]float64
	solves              int
	agg                 trace.PhaseAgg
	dropped             int64
	execs, inconclusive int
}

func newSynthAcc(j int) *synthAcc {
	return &synthAcc{m: telemetry.NewMetrics(telemetry.NewRegistry(j)), phaseUS: map[string]float64{}}
}

func (a *synthAcc) metricsOrNil() *telemetry.Metrics {
	if a == nil {
		return nil
	}
	return a.m
}

// add folds one run: its trace and its execution and inconclusive counts.
func (a *synthAcc) add(d *trace.Data, execs, inconclusive int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	a.execs += execs
	a.inconclusive += inconclusive
	for _, ev := range d.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case trace.SpanRun.String():
			a.runUS += ev.Dur
		case trace.SpanSolve.String():
			a.solves++
			a.phaseUS[ev.Name] += ev.Dur
		case trace.SpanCollect.String(), trace.SpanValidate.String():
			a.phaseUS[ev.Name] += ev.Dur
		}
	}
	for _, ln := range d.Other.Lanes {
		a.dropped += ln.Dropped
		for _, p := range ln.Portfolio {
			a.agg.Execs += p.Execs
			a.agg.WallNS += p.WallNS
			a.agg.Iters += p.Iters
			a.agg.Spins += p.Spins
		}
	}
}

func (a *synthAcc) report(set func(string, float64)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	runs := float64(a.runs)
	set("core.collect_ms", ratio(a.phaseUS[trace.SpanCollect.String()]/1e3, runs))
	set("core.solve_ms", ratio(a.phaseUS[trace.SpanSolve.String()]/1e3, runs))
	set("core.validate_ms", ratio(a.phaseUS[trace.SpanValidate.String()]/1e3, runs))
	set("core.execs_per_s", ratio(float64(a.agg.Execs), a.runUS/1e6))
	hits, misses := float64(a.m.CacheHits.Value()), float64(a.m.CacheMisses.Value())
	set("core.verdict_cache_hit_ratio", ratio(hits, hits+misses))
	set("core.conclusive_ratio", 1-ratio(float64(a.inconclusive), float64(a.execs)))
	set("sched.ns_per_iter", ratio(float64(a.agg.WallNS), float64(a.agg.Iters)))
	set("sched.spin_ratio", ratio(float64(a.agg.Spins), float64(a.agg.Iters)))
	set("sched.iters_per_exec", ratio(float64(a.agg.Iters), float64(a.agg.Execs)))
	set("sat.solve_us_per_round", ratio(a.phaseUS[trace.SpanSolve.String()], float64(a.solves)))
	set("sat.conflicts_per_round", ratio(float64(a.m.SolverConflicts.Value()), float64(a.m.Rounds.Value())))
}

// probeLimits size the layer probes. Each timed loop repeats its calls
// until budget has passed; the serve probe runs serveOps jobs.
type probeLimits struct {
	budget   time.Duration
	serveOps int
	enumN    int // corpus programs enumerated under each model
}

// synthProbe synthesizes the targets one after another, traced, until the
// budget is spent: the core/sched/sat numbers of workloads whose own
// operations cannot carry a tracer.
func synthProbe(ts []target, e env, budget time.Duration, sp *spans) (*synthAcc, error) {
	acc := newSynthAcc(e.j)
	s := sp.begin("core.Synthesize", 0, 0)
	defer s.end()
	start := time.Now()
	for _, t := range ts {
		tr := trace.New(trace.Options{Lanes: e.j})
		cfg := t.cfg
		cfg.Seed, cfg.Workers, cfg.Tracer, cfg.Metrics = e.seed, e.j, tr, acc.m
		res, err := core.Synthesize(t.prog, cfg)
		if err != nil {
			return nil, fmt.Errorf("synthesize %s: %w", t.name, err)
		}
		acc.add(tr.Snapshot(), res.TotalExecutions, res.TotalInconclusive)
		if time.Since(start) > budget {
			break
		}
	}
	return acc, nil
}

// schedOpts are the scheduler options the probes execute a target with:
// the evaluation defaults at the target's flush probability, with the rmo
// iteration budget so no probe execution can spin unboundedly.
func schedOpts(t target, seed int64) sched.Options {
	opts := sched.DefaultOptions(seed)
	switch {
	case t.cfg.FlushProb > 0:
		opts.FlushProb = t.cfg.FlushProb
	case t.cfg.Model == memmodel.TSO:
		opts.FlushProb = 0.1
	}
	if t.cfg.MaxStepsPerExec > 0 {
		opts.MaxSteps = t.cfg.MaxStepsPerExec
	}
	opts.MaxIters = rmoMaxIters
	return opts
}

// distinctExecs keeps one target per (program, model): the probes that
// only execute programs do not care about the criterion.
func distinctExecs(ts []target) []target {
	seen := map[string]bool{}
	var out []target
	for _, t := range ts {
		k := fmt.Sprintf("%p/%v", t.prog, t.cfg.Model)
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// violates judges an execution as core does: a step-limited run has no
// verdict, a machine violation is one, and otherwise the history is
// checked against the target's criterion.
func violates(t target, chk *spec.Checker, res *interp.Result) bool {
	if res.StepLimitHit || res.TimedOut {
		return false
	}
	if res.Violation != nil {
		return true
	}
	ops := chk.CompleteOps(res.History)
	if t.cfg.RelaxStealAborts {
		ops = chk.RelaxStealAborts(ops)
	}
	return !chk.Check(t.cfg.Criterion, ops, t.cfg.NewSpec, t.cfg.CheckGarbage)
}

// interpProbe records two schedules per (program, model) with
// sched.RunTraced and times sched.Replay of them: machine cost per step
// with no scheduling decisions made.
func interpProbe(ts []target, seed int64, budget time.Duration, sp *spans) float64 {
	type rec struct {
		t  target
		tr *sched.Trace
	}
	var recs []rec
	for _, t := range distinctExecs(ts) {
		for k := int64(0); k < 2; k++ {
			_, tr := sched.RunTraced(t.prog, t.cfg.Model, nil, schedOpts(t, seed+k))
			recs = append(recs, rec{t, tr})
		}
	}
	s := sp.begin("sched.Replay", 0, 0)
	defer s.end()
	steps := 0
	start := time.Now()
	for steps == 0 || time.Since(start) < budget {
		for _, r := range recs {
			res, _ := sched.Replay(r.t.prog, nil, r.tr)
			steps += res.Steps
		}
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(steps))
}

// specProbe times a reused spec.Checker on histories from sched.Run of the
// SC and linearizability targets; completing the operations and relaxing
// steal aborts happen outside the timer.
func specProbe(ts []target, seed int64, budget time.Duration, sp *spans) float64 {
	type hist struct {
		t   target
		ops []spec.Op
	}
	var hs []hist
	for _, t := range ts {
		if t.cfg.Criterion == spec.MemorySafety {
			continue
		}
		for k := int64(0); k < 4; k++ {
			res := sched.Run(t.prog, t.cfg.Model, nil, schedOpts(t, seed+k))
			if res.Violation != nil || res.StepLimitHit || res.TimedOut {
				continue
			}
			ops := spec.CompleteOps(res.History)
			if t.cfg.RelaxStealAborts {
				ops = spec.RelaxStealAborts(ops)
			}
			hs = append(hs, hist{t, ops})
		}
	}
	if len(hs) == 0 {
		return math.NaN()
	}
	s := sp.begin("spec.Checker.Check", 0, 0)
	defer s.end()
	var chk spec.Checker
	checks := 0
	start := time.Now()
	for checks == 0 || time.Since(start) < budget {
		for _, h := range hs {
			chk.Check(h.t.cfg.Criterion, h.ops, h.t.cfg.NewSpec, h.t.cfg.CheckGarbage)
			checks++
		}
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(checks))
}

// collectProbe runs each target with a synth.Collector attached until it
// has seen a few violating executions, and times what the synthesis loop
// does with each: Collector.TakeDisjunction and Formula.AddExecution.
func collectProbe(ts []target, seed int64, budget time.Duration, sp *spans) (float64, error) {
	s := sp.begin("synth.Collector.TakeDisjunction+synth.Formula.AddExecution", 0, 0)
	defer s.end()
	var (
		timed time.Duration
		n     int
		chk   spec.Checker
	)
	start := time.Now()
	for _, t := range ts {
		col := synth.NewCollector(t.cfg.Model)
		f := synth.NewFormula()
		found := 0
		for k := int64(0); k < 64 && found < 8; k++ {
			res := sched.Run(t.prog, t.cfg.Model, col, schedOpts(t, seed+k))
			if !violates(t, &chk, res) {
				col.Reset()
				continue
			}
			t0 := time.Now()
			if d := col.TakeDisjunction(); len(d) > 0 {
				if err := f.AddExecution(d); err != nil {
					return 0, fmt.Errorf("%s: add execution: %w", t.name, err)
				}
			}
			timed += time.Since(t0)
			n++
			found++
		}
		if time.Since(start) > budget {
			break
		}
	}
	return ratio(float64(timed.Nanoseconds()), float64(n)), nil
}

// observeProbe runs the same seeds through sched.RunBatch with a
// synth.Collector observer and with none, alternating, and reports the
// difference per execution of the two sides' fastest repetitions: the
// instrumented semantics' cost, which is small next to an execution, so
// single timings would drown it in noise.
func observeProbe(ts []target, seed int64, budget time.Duration, sp *spans) float64 {
	s := sp.begin("sched.RunBatch", 0, 0)
	defer s.end()
	const n = 50
	pms := distinctExecs(ts)
	with := make([]time.Duration, len(pms))
	without := make([]time.Duration, len(pms))
	start := time.Now()
	for rep := 0; rep < 3 || time.Since(start) < budget; rep++ {
		for k, t := range pms {
			optsFor := func(i int) sched.Options { return schedOpts(t, seed+int64(i)) }
			t0 := time.Now()
			sched.RunBatch(context.Background(), t.prog, t.cfg.Model, n, 1, nil, optsFor,
				func(int, int, interp.Observer, *interp.Result, *sched.ExecError) (struct{}, bool) {
					return struct{}{}, false
				})
			if d := time.Since(t0); rep == 0 || d < without[k] {
				without[k] = d
			}
			t0 = time.Now()
			sched.RunBatch(context.Background(), t.prog, t.cfg.Model, n, 1,
				func(int) interp.Observer { return synth.NewCollector(t.cfg.Model) }, optsFor,
				func(_, _ int, obs interp.Observer, _ *interp.Result, _ *sched.ExecError) (struct{}, bool) {
					obs.(*synth.Collector).Reset()
					return struct{}{}, false
				})
			if d := time.Since(t0); rep == 0 || d < with[k] {
				with[k] = d
			}
		}
	}
	var diff time.Duration
	for k := range pms {
		diff += with[k] - without[k]
	}
	return ratio(float64(diff.Nanoseconds()), float64(n*len(pms)))
}

// staticProbe times staticanalysis.Analyze three times per (program,
// model) and returns the median in microseconds.
func staticProbe(ts []target, sp *spans) (float64, error) {
	s := sp.begin("staticanalysis.Analyze", 0, 0)
	defer s.end()
	var us []float64
	for _, t := range distinctExecs(ts) {
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := staticanalysis.Analyze(t.prog, t.cfg.Model); err != nil {
				return 0, fmt.Errorf("analyze %s: %w", t.name, err)
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return percentile(us, 50)
}

// enumProbe runs proggen.Enumerate on the seed's fuzz corpus under every
// model with the enum workload's state budget.
func enumProbe(seed int64, n int, sp *spans) (usPerState, statesP50 float64, err error) {
	s := sp.begin("proggen.Enumerate", 0, 0)
	defer s.end()
	var (
		wall   time.Duration
		states int
		per    []float64
	)
	for k, p := range proggen.Corpus(seed, n) {
		prog, err := p.Compile()
		if err != nil {
			return 0, 0, fmt.Errorf("compile corpus program %d: %w", k, err)
		}
		for _, m := range memmodel.Models() {
			t0 := time.Now()
			r := proggen.Enumerate(prog, m, proggen.EnumOptions{MaxStates: enumStates})
			wall += time.Since(t0)
			states += r.States
			per = append(per, float64(r.States))
		}
	}
	p50, err := percentile(per, 50)
	if err != nil {
		return 0, 0, err
	}
	return ratio(float64(wall.Nanoseconds())/1e3, float64(states)), p50, nil
}

// reportServe turns serveStats into the serve layer metrics.
func reportServe(st *serveStats, set func(string, float64), fail func(string, error)) {
	for _, m := range []struct {
		name string
		xs   []float64
	}{
		{"serve.run_ms_p50", st.runMS},
		{"serve.attempt_overhead_ms_p50", st.attemptMS},
		{"serve.overhead_ms_p50", st.overheadMS},
	} {
		v, err := percentile(m.xs, 50)
		if err != nil {
			fail(m.name, err)
			continue
		}
		set(m.name, v)
	}
	set("serve.memo_hit_ratio", ratio(float64(st.memo), float64(st.jobs)))
}

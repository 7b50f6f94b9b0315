// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
// measured-vs-paper results):
//
//	BenchmarkTable3Row/*      one Table 3 row per iteration (reduced K)
//	BenchmarkFig4/*           Figure 4 points (multi-round vs one-round)
//	BenchmarkFig5/*           Figure 5 points (flush-probability sweep)
//	BenchmarkSchedulerSweep/* §6.5 violation exposure per model
//	BenchmarkExecution/*      raw interpreter throughput per benchmark
//	BenchmarkExecutionEngine/* fresh vs pooled machine allocs per execution
//	BenchmarkSynthesizeCache/* synthesis with fence validation, caches hit
//	BenchmarkChecker/*        SC / linearizability checker throughput
//	BenchmarkSAT/*            repair-formula minimal-model extraction
//	BenchmarkStaticSynthesis/* static fix (analysis + hitting set) per model
//	BenchmarkAblation/*       design-choice ablations (DESIGN.md)
//
// Reported custom metrics: fences/op (inferred fences), violations/op
// (exposed violations), execs/op (executions to convergence).
package dfence_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dfence/internal/core"
	"dfence/internal/eval"
	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/sat"
	"dfence/internal/sched"
	"dfence/internal/spec"
	"dfence/internal/staticanalysis"
)

// benchCfg builds a reduced-budget synthesis configuration that still
// converges to the Table 3 answers for the given cell.
func benchCfg(b *progs.Benchmark, model memmodel.Model, crit spec.Criterion, seed int64) core.Config {
	fp := 0.5
	if model == memmodel.TSO {
		fp = 0.1
	}
	return core.Config{
		Model:            model,
		Criterion:        crit,
		NewSpec:          b.NewSpec(),
		CheckGarbage:     b.CheckGarbage,
		RelaxStealAborts: b.RelaxStealAborts,
		ExecsPerRound:    400,
		MaxRounds:        8,
		FlushProb:        fp,
		Seed:             seed,
		ValidateFences:   true,
	}
}

// BenchmarkTable3Row regenerates one Table 3 row per iteration.
func BenchmarkTable3Row(b *testing.B) {
	for _, bench := range progs.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			fences := 0
			for i := 0; i < b.N; i++ {
				crits := []spec.Criterion{spec.MemorySafety}
				if !bench.SkipSeqCheck {
					crits = append(crits, spec.SeqConsistency, spec.Linearizability)
				}
				for _, crit := range crits {
					for _, m := range []memmodel.Model{memmodel.TSO, memmodel.PSO} {
						res, err := core.Synthesize(bench.Program(), benchCfg(bench, m, crit, int64(i+1)))
						if err != nil {
							b.Fatal(err)
						}
						fences += len(res.Fences)
					}
				}
			}
			b.ReportMetric(float64(fences)/float64(b.N), "fences/op")
		})
	}
}

// BenchmarkFig4 regenerates Figure 4 points: executions-per-round K in
// multi-round vs one-round repair mode (Cilk THE, SC, PSO).
func BenchmarkFig4(b *testing.B) {
	subject, err := progs.ByName(eval.Fig4Subject)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{100, 500, 1000} {
		for _, oneRound := range []bool{false, true} {
			mode := "multi-round"
			if oneRound {
				mode = "one-round"
			}
			b.Run(fmt.Sprintf("K=%d/%s", k, mode), func(b *testing.B) {
				fences, execs := 0, 0
				for i := 0; i < b.N; i++ {
					cfg := benchCfg(subject, memmodel.PSO, spec.SeqConsistency, int64(i+1))
					cfg.ExecsPerRound = k
					cfg.ValidateFences = false
					if oneRound {
						cfg.MaxRounds = 1
					}
					res, err := core.Synthesize(subject.Program(), cfg)
					if err != nil {
						b.Fatal(err)
					}
					fences += res.SynthesizedFences
					execs += res.TotalExecutions
				}
				b.ReportMetric(float64(fences)/float64(b.N), "fences/op")
				b.ReportMetric(float64(execs)/float64(b.N), "execs/op")
			})
		}
	}
}

// BenchmarkFig5 regenerates Figure 5 points: fences synthesized vs flush
// probability, split into needed and redundant.
func BenchmarkFig5(b *testing.B) {
	subject, err := progs.ByName("chase-lev")
	if err != nil {
		b.Fatal(err)
	}
	for _, fp := range []float64{0.1, 0.5, 0.9} {
		b.Run(fmt.Sprintf("flush=%.1f", fp), func(b *testing.B) {
			synthesized, needed := 0, 0
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(subject, memmodel.PSO, spec.Linearizability, int64(i+1))
				cfg.FlushProb = fp
				res, err := core.Synthesize(subject.Program(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				synthesized += res.SynthesizedFences
				needed += len(res.Fences)
			}
			b.ReportMetric(float64(synthesized)/float64(b.N), "synthesized/op")
			b.ReportMetric(float64(needed)/float64(b.N), "needed/op")
		})
	}
}

// BenchmarkSchedulerSweep measures §6.5: violations exposed per 200 runs
// at the model's recommended flush probability vs a mismatched one.
func BenchmarkSchedulerSweep(b *testing.B) {
	subject, err := progs.ByName("chase-lev")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		model memmodel.Model
		fp    float64
	}{
		{memmodel.TSO, 0.1}, {memmodel.TSO, 0.9},
		{memmodel.PSO, 0.5}, {memmodel.PSO, 0.9},
	} {
		b.Run(fmt.Sprintf("%v/flush=%.1f", c.model, c.fp), func(b *testing.B) {
			viol := 0
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(subject, c.model, spec.SeqConsistency, int64(i+1))
				cfg.FlushProb = c.fp
				viol += core.CheckOnly(subject.Program(), cfg, 200)
			}
			b.ReportMetric(float64(viol)/float64(b.N), "violations/op")
		})
	}
}

// BenchmarkSynthesizeWorkers is the serial-vs-parallel pair for the
// execution engine: the same Chase-Lev PSO synthesis (fixed seed, so the
// fence sets are identical) at Workers=1 and Workers=NumCPU. The ratio of
// the two wall times is the engine's speedup; per-round throughput is also
// reported via execs/s.
func BenchmarkSynthesizeWorkers(b *testing.B) {
	subject, err := progs.ByName("chase-lev")
	if err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, w := range workerCounts {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			execs := 0
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(subject, memmodel.PSO, spec.SeqConsistency, 1)
				cfg.Workers = w
				cfg.ValidateFences = false
				res, err := core.Synthesize(subject.Program(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				execs += res.TotalExecutions
				for _, r := range res.Rounds {
					wall += r.Wall
				}
			}
			b.ReportMetric(float64(execs)/float64(b.N), "execs/op")
			if wall > 0 {
				b.ReportMetric(float64(execs)/wall.Seconds(), "execs/s")
			}
		})
	}
}

// BenchmarkExecutionEngine is the per-execution allocation comparison for
// the pooled engine: the same Chase-Lev PSO execution stream run through
// fresh one-shot machines (sched.Run allocates a machine, store buffers,
// and history per call) vs the pooled batch engine (one reused machine
// per worker, compiled dispatch, Reset between executions). allocs/op is
// the headline metric; the executions are bit-identical either way (see
// internal/core's determinism tests).
func BenchmarkExecutionEngine(b *testing.B) {
	subject, err := progs.ByName("chase-lev")
	if err != nil {
		b.Fatal(err)
	}
	p := subject.Program()
	optsFor := func(i int) sched.Options { return sched.DefaultOptions(int64(i)) }
	b.Run("fresh-machine", func(b *testing.B) {
		b.ReportAllocs()
		steps := 0
		for i := 0; i < b.N; i++ {
			steps += sched.Run(p, memmodel.PSO, nil, optsFor(i)).Steps
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	})
	b.Run("pooled-machine", func(b *testing.B) {
		b.ReportAllocs()
		steps := 0
		sched.RunBatch(context.Background(), p, memmodel.PSO, b.N, 1, nil, optsFor,
			func(i, _ int, _ interp.Observer, res *interp.Result, _ *sched.ExecError) (struct{}, bool) {
				steps += res.Steps
				return struct{}{}, false
			})
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	})
	// The struct-of-arrays engine at full fan-out: same execution stream
	// across NumCPU workers, each owning one machine whose thread table,
	// register arenas, and store buffers are machine-owned flat storage.
	// execs/s is the acceptance-throughput metric tracked in EXPERIMENTS.md.
	b.Run("soa-parallel", func(b *testing.B) {
		b.ReportAllocs()
		var steps atomic.Int64
		start := time.Now()
		sched.RunBatch(context.Background(), p, memmodel.PSO, b.N, runtime.NumCPU(), nil, optsFor,
			func(i, _ int, _ interp.Observer, res *interp.Result, _ *sched.ExecError) (struct{}, bool) {
				steps.Add(int64(res.Steps))
				return struct{}{}, false
			})
		wall := time.Since(start)
		b.ReportMetric(float64(steps.Load())/float64(b.N), "steps/op")
		if wall > 0 {
			b.ReportMetric(float64(b.N)/wall.Seconds(), "execs/s")
		}
	})
}

// BenchmarkIncrementalSAT measures cross-round solver persistence: a
// staged sequence of growing monotone formulas (shaped like a synthesis
// run's per-round φ over an overlapping predicate vocabulary) enumerated
// by one persistent sat.Incremental, which keeps its learnt clauses,
// VSIDS activity, and saved phases between rounds.
func BenchmarkIncrementalSAT(b *testing.B) {
	const (
		nvars  = 28
		rounds = 6
	)
	// Pre-generate the round clause sets once, outside the timer.
	perRound := make([][][]sat.Lit, rounds)
	rng := rand.New(rand.NewSource(17))
	for r := range perRound {
		n := 20 + 10*r // φ grows round over round
		clauses := make([][]sat.Lit, n)
		for i := range clauses {
			w := 2 + rng.Intn(5)
			c := make([]sat.Lit, w)
			for j := range c {
				c[j] = sat.Lit(1 + rng.Intn(nvars))
			}
			clauses[i] = c
		}
		perRound[r] = clauses
	}
	budget := sat.Budget{MaxModels: 512}
	b.Run("persistent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inc := sat.NewIncremental()
			inc.EnsureVars(nvars)
			for r, clauses := range perRound {
				if r > 0 {
					inc.BeginRound()
				}
				for _, c := range clauses {
					inc.AddClause(c)
				}
				inc.MinimalModels(budget, nil)
			}
		}
	})
}

// BenchmarkSpecAutomaton measures the compiled-spec sequentialization
// search on realistic Chase-Lev histories (interned states, table-lookup
// transitions, integer memo keys) on a reused Checker, as the engine
// uses it.
func BenchmarkSpecAutomaton(b *testing.B) {
	subject, err := progs.ByName("chase-lev")
	if err != nil {
		b.Fatal(err)
	}
	p := subject.Program()
	var histories [][]spec.Op
	for s := int64(0); s < 32; s++ {
		res := sched.Run(p, memmodel.PSO, nil, sched.DefaultOptions(s))
		ops := spec.RelaxStealAborts(spec.CompleteOps(res.History))
		histories = append(histories, ops)
	}
	b.Run("automaton", func(b *testing.B) {
		b.ReportAllocs()
		var c spec.Checker
		for i := 0; i < b.N; i++ {
			c.Check(spec.SeqConsistency, histories[i%len(histories)], spec.NewDeque, false)
		}
	})
}

// BenchmarkSynthesizeCache measures the cross-phase execution caching:
// Chase-Lev PSO synthesis with fence validation (the phase the
// fence-touch transfer accelerates), reporting cache hits per run.
func BenchmarkSynthesizeCache(b *testing.B) {
	subject, err := progs.ByName("chase-lev")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cache=on", func(b *testing.B) {
		b.ReportAllocs()
		execs, hits := 0, 0
		for i := 0; i < b.N; i++ {
			cfg := benchCfg(subject, memmodel.PSO, spec.SeqConsistency, 1)
			cfg.Workers = 1
			res, err := core.Synthesize(subject.Program(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			execs += res.TotalExecutions
			hits += res.CacheHits
		}
		b.ReportMetric(float64(execs)/float64(b.N), "execs/op")
		b.ReportMetric(float64(hits)/float64(b.N), "cachehits/op")
	})
}

// BenchmarkSynthesizePruned measures the static delay-set pruning on the
// two largest benchmarks: the same synthesis (fixed seed, identical seed
// schedule) with StaticPrune off and on. Reported metrics: executions to
// convergence, fences synthesized, and — for the pruned runs — the
// predicates discarded because they lie on no static critical cycle.
func BenchmarkSynthesizePruned(b *testing.B) {
	for _, name := range []string{"chase-lev", "michael-alloc"} {
		subject, err := progs.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		crit := spec.SeqConsistency
		if subject.SkipSeqCheck {
			crit = spec.MemorySafety
		}
		for _, prune := range []bool{false, true} {
			mode := "static=off"
			if prune {
				mode = "static=on"
			}
			b.Run(name+"/"+mode, func(b *testing.B) {
				execs, fences, pruned := 0, 0, 0
				for i := 0; i < b.N; i++ {
					cfg := benchCfg(subject, memmodel.PSO, crit, 1)
					cfg.ValidateFences = false
					cfg.StaticPrune = prune
					res, err := core.Synthesize(subject.Program(), cfg)
					if err != nil {
						b.Fatal(err)
					}
					execs += res.TotalExecutions
					fences += res.SynthesizedFences
					pruned += res.PrunedPredicates
				}
				b.ReportMetric(float64(execs)/float64(b.N), "execs/op")
				b.ReportMetric(float64(fences)/float64(b.N), "fences/op")
				if prune {
					b.ReportMetric(float64(pruned)/float64(b.N), "pruned/op")
				}
			})
		}
	}
}

// BenchmarkExecution measures raw interpreter throughput: one complete
// scheduled execution of each benchmark per iteration.
func BenchmarkExecution(b *testing.B) {
	for _, bench := range progs.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			p := bench.Program()
			steps := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := sched.Run(p, memmodel.PSO, nil, sched.DefaultOptions(int64(i)))
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkChecker measures the history checkers on realistic histories
// extracted from real executions.
func BenchmarkChecker(b *testing.B) {
	subject, err := progs.ByName("chase-lev")
	if err != nil {
		b.Fatal(err)
	}
	p := subject.Program()
	var histories [][]spec.Op
	for s := int64(0); s < 20; s++ {
		res := sched.Run(p, memmodel.PSO, nil, sched.DefaultOptions(s))
		histories = append(histories, spec.RelaxStealAborts(spec.CompleteOps(res.History)))
	}
	b.Run("sequential-consistency", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec.IsSequentiallyConsistent(histories[i%len(histories)], spec.NewDeque)
		}
	})
	b.Run("linearizability", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec.IsLinearizable(histories[i%len(histories)], spec.NewDeque)
		}
	})
}

// BenchmarkSAT measures minimal-model extraction on random monotone
// formulas shaped like accumulated repair formulas.
func BenchmarkSAT(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const nvars = 24
	var clauses [][]sat.Lit
	for i := 0; i < 60; i++ {
		w := 2 + rng.Intn(6)
		c := make([]sat.Lit, w)
		for j := range c {
			c[j] = sat.Lit(1 + rng.Intn(nvars))
		}
		clauses = append(clauses, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := sat.NewIncremental()
		inc.EnsureVars(nvars)
		for _, c := range clauses {
			inc.AddClause(c)
		}
		inc.MinimalModels(sat.Budget{}, nil)
	}
}

// BenchmarkAblation exercises the design choices called out in DESIGN.md.
func BenchmarkAblation(b *testing.B) {
	subject, err := progs.ByName("chase-lev")
	if err != nil {
		b.Fatal(err)
	}

	// 1. Minimal-model selection vs enforcing every mentioned predicate.
	b.Run("minimize=on", func(b *testing.B) {
		fences := 0
		for i := 0; i < b.N; i++ {
			cfg := benchCfg(subject, memmodel.PSO, spec.SeqConsistency, int64(i+1))
			cfg.ValidateFences = false
			res, err := core.Synthesize(subject.Program(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			fences += res.SynthesizedFences
		}
		b.ReportMetric(float64(fences)/float64(b.N), "fences/op")
	})
	b.Run("minimize=off", func(b *testing.B) {
		fences := 0
		for i := 0; i < b.N; i++ {
			cfg := benchCfg(subject, memmodel.PSO, spec.SeqConsistency, int64(i+1))
			cfg.ValidateFences = false
			cfg.NoMinimize = true
			res, err := core.Synthesize(subject.Program(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			fences += res.SynthesizedFences
		}
		b.ReportMetric(float64(fences)/float64(b.N), "fences/op")
	})

	// 2. Partial-order reduction on/off: raw execution cost.
	p := subject.Program()
	for _, por := range []int{64, 0} {
		b.Run(fmt.Sprintf("PORWindow=%d", por), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := sched.DefaultOptions(int64(i))
				opts.PORWindow = por
				sched.Run(p, memmodel.PSO, nil, opts)
			}
		})
	}

	// 3. Fence validation on/off: fence-count delta.
	for _, validate := range []bool{true, false} {
		b.Run(fmt.Sprintf("validate=%v", validate), func(b *testing.B) {
			fences := 0
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(subject, memmodel.PSO, spec.Linearizability, int64(i+1))
				cfg.ValidateFences = validate
				res, err := core.Synthesize(subject.Program(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				fences += len(res.Fences)
			}
			b.ReportMetric(float64(fences)/float64(b.N), "fences/op")
		})
	}
}

// BenchmarkStaticSynthesis measures the static fence-synthesis pipeline
// (delay-set analysis + weighted hitting-set placement, `dfence analyze
// -fix`) per corpus benchmark under each relaxed model. Reported metrics:
// fences placed, their summed cost, and the cost of the all-full-fence
// baseline the solver must beat. Wall time per op is the headline —
// EXPERIMENTS.md compares it against dynamic synthesis on the same cells.
func BenchmarkStaticSynthesis(b *testing.B) {
	for _, bench := range progs.All() {
		bench := bench
		p := bench.Program()
		for _, m := range []memmodel.Model{memmodel.TSO, memmodel.PSO, memmodel.RMO} {
			m := m
			b.Run(fmt.Sprintf("%s/%v", bench.Name, m), func(b *testing.B) {
				fences, cost, baseline := 0, 0, 0
				for i := 0; i < b.N; i++ {
					fr, err := staticanalysis.Fix(p, m)
					if err != nil {
						b.Fatal(err)
					}
					fences += len(fr.Placements)
					cost += fr.TotalCost
					baseline += fr.BaselineCost
				}
				b.ReportMetric(float64(fences)/float64(b.N), "fences/op")
				b.ReportMetric(float64(cost)/float64(b.N), "cost/op")
				b.ReportMetric(float64(baseline)/float64(b.N), "baseline/op")
			})
		}
	}
}

// BenchmarkOptimizer measures the IR optimizer's effect: compile time cost
// per pass and the interpretation speedup of optimized programs.
func BenchmarkOptimizer(b *testing.B) {
	subject, err := progs.ByName("michael-alloc")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pass", func(b *testing.B) {
		removed := 0
		for i := 0; i < b.N; i++ {
			p := subject.Program()
			removed += ir.Optimize(p)
		}
		b.ReportMetric(float64(removed)/float64(b.N), "removed/op")
	})
	raw := subject.Program()
	opt := subject.Program()
	ir.Optimize(opt)
	b.Run("exec-raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sched.Run(raw, memmodel.PSO, nil, sched.DefaultOptions(int64(i)))
		}
	})
	b.Run("exec-optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sched.Run(opt, memmodel.PSO, nil, sched.DefaultOptions(int64(i)))
		}
	})
}

// BenchmarkSchedulerStrategy compares the paper's random scheduler with
// the PCT-style priority strategy on violation exposure.
func BenchmarkSchedulerStrategy(b *testing.B) {
	subject, err := progs.ByName("chase-lev")
	if err != nil {
		b.Fatal(err)
	}
	p := subject.Program()
	newSpec := subject.NewSpec()
	for _, strat := range []sched.Strategy{sched.Random, sched.Priority} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			viol := 0
			for i := 0; i < b.N; i++ {
				for s := 0; s < 200; s++ {
					opts := sched.Options{
						Seed: int64(i*200 + s), FlushProb: 0.5,
						MaxSteps: 100000, PORWindow: 64, Strategy: strat,
					}
					res := sched.Run(p, memmodel.PSO, nil, opts)
					if res.Violation != nil || res.StepLimitHit {
						continue
					}
					ops := spec.RelaxStealAborts(spec.CompleteOps(res.History))
					if !spec.IsSequentiallyConsistent(ops, newSpec) {
						viol++
					}
				}
			}
			b.ReportMetric(float64(viol)/float64(b.N), "violations/op")
		})
	}
}

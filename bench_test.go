// The benchmarks behind the EXPERIMENTS.md tables that nothing else
// reproduces. The paper's Table 3 and figures come from cmd/experiments;
// every performance number, end to end and per layer, comes from the
// bench/ module (bench/README.md). These stay plain `go test -bench`
// benchmarks; `make bench` runs each once as a smoke test:
//
//	BenchmarkSynthesizePruned/* static delay-set pruning off vs on
//	BenchmarkAblation/*        design-choice ablations (DESIGN.md)
//	BenchmarkStaticSynthesis/* static fix (analysis + hitting set) per model
//	BenchmarkOptimizer/*       IR optimizer pass cost and execution speedup
//	BenchmarkSchedulerStrategy/* random vs priority scheduler exposure
//
// Reported custom metrics: fences/op (inferred fences), violations/op
// (exposed violations), execs/op (executions to convergence).
package dfence_test

import (
	"fmt"
	"testing"

	"dfence/internal/core"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
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

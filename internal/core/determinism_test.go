package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/litmus"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/sched"
	"dfence/internal/telemetry"
)

// The engine-determinism corpus tests: machine pooling (compiled
// dispatch + Reset reuse) must reproduce fresh one-shot runs exactly, and
// full synthesis — with its execution caches and persistent solver — must
// reproduce the golden digests (golden_test.go) at every worker count,
// also under -race (the CI race job runs this package).

// execKey summarizes one execution for bit-identity comparison.
func execKey(res *interp.Result) string {
	viol := ""
	if res.Violation != nil {
		viol = res.Violation.Error()
	}
	return fmt.Sprintf("steps=%d out=%v hist=%d/%s viol=%q limit=%v",
		res.Steps, res.Output, len(res.History), string(appendHistoryKey(nil, res.History)), viol, res.StepLimitHit)
}

// corpusPrograms returns every litmus test and benchmark program with a
// short name.
func corpusPrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	out := make(map[string]*ir.Program)
	for _, lt := range litmus.All() {
		out["litmus/"+lt.Name] = lt.Program()
	}
	for _, b := range progs.All() {
		out["bench/"+b.Name] = b.Program()
	}
	return out
}

// TestPooledBatchMatchesFreshRuns: for every corpus program and both
// models, the pooled batch engine (serial and parallel) reproduces the
// per-execution results of fresh one-shot sched.Run calls exactly.
func TestPooledBatchMatchesFreshRuns(t *testing.T) {
	const n = 12
	for name, prog := range corpusPrograms(t) {
		for _, model := range []memmodel.Model{memmodel.TSO, memmodel.PSO} {
			optsFor := func(i int) sched.Options {
				fp := 0.5
				if model == memmodel.TSO {
					fp = 0.1
				}
				return sched.Options{Seed: int64(100 + i), FlushProb: fp, MaxSteps: 100000, PORWindow: 64}
			}
			fresh := make([]string, n)
			for i := 0; i < n; i++ {
				fresh[i] = execKey(sched.Run(prog, model, nil, optsFor(i)))
			}
			for _, workers := range []int{1, 4} {
				got := sched.RunBatch(context.Background(), prog, model, n, workers, nil, optsFor,
					func(i, _ int, _ interp.Observer, res *interp.Result, err *sched.ExecError) (string, bool) {
						if err != nil {
							t.Errorf("%s/%v: exec %d panicked: %v", name, model, i, err)
							return "", false
						}
						return execKey(res), false
					})
				for i := range fresh {
					if got[i] != fresh[i] {
						t.Fatalf("%s/%v workers=%d exec %d: pooled diverged from fresh\npooled: %s\nfresh:  %s",
							name, model, workers, i, got[i], fresh[i])
					}
				}
			}
		}
	}
}

// resultKey summarizes a synthesis result's observable outcome (cache
// counters and wall-clock fields excluded by construction).
func resultKey(res *Result) string {
	s := fmt.Sprintf("outcome=%v fences=%v synth=%d redundant=%d empty=%d execs=%d",
		res.Outcome, res.Fences, res.SynthesizedFences, res.Redundant, res.EmptyRepairs, res.TotalExecutions)
	for _, r := range res.Rounds {
		s += fmt.Sprintf(" [execs=%d viol=%d inc=%d clauses=%d preds=%d ins=%v]",
			r.Executions, r.Violations, r.Inconclusive, r.DistinctClauses, r.Predicates, r.Inserted)
	}
	return s
}

// goldenSubjects are the representative benchmarks the named
// determinism tests below check against the golden file.
var goldenSubjects = []string{"chase-lev", "cilk-the", "ms2-queue", "lifo-iwsq"}

// subjectCell selects the synthesis cells of goldenSubjects under models.
func subjectCell(models ...memmodel.Model) func(key string) bool {
	return func(key string) bool {
		for _, name := range goldenSubjects {
			for _, m := range models {
				if key == fmt.Sprintf("synth %s %v", name, m) {
					return true
				}
			}
		}
		return false
	}
}

// TestSynthesizeCacheAndWorkerDeterminism: full synthesis with fence
// validation, where both execution caches engage, reproduces the golden
// digests at every worker count, and the caches actually see traffic.
func TestSynthesizeCacheAndWorkerDeterminism(t *testing.T) {
	if n := checkGolden(t, subjectCell(memmodel.TSO, memmodel.PSO)); n != 2*len(goldenSubjects) {
		t.Fatalf("checked %d cells, want %d", n, 2*len(goldenSubjects))
	}
	b, err := progs.ByName("chase-lev")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(b.Program(), goldenConfig(b, memmodel.PSO))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 || res.CacheMisses == 0 {
		t.Errorf("cache saw %d hits, %d misses; want both non-zero", res.CacheHits, res.CacheMisses)
	}
}

// TestIncrementalSolverMatchesFresh: the persistent cross-round SAT
// solver reproduces, under all four memory models, the golden digests
// pinned while a fresh-solver-per-round control still agreed with it.
// The minimal-model set of a monotone formula is unique and the solution
// order is a total sort, so no carried solver state may move a digest.
func TestIncrementalSolverMatchesFresh(t *testing.T) {
	if n := checkGolden(t, subjectCell(goldenModels...)); n != 4*len(goldenSubjects) {
		t.Fatalf("checked %d cells, want %d", n, 4*len(goldenSubjects))
	}
}

// TestFindRedundantCacheDeterminism: the redundancy scan, whose trials
// transfer outcomes from the all-fences baseline, reproduces the golden
// redundant sets — on chase-lev's synthesized fences and on a program
// carrying more fences than the touched mask can watch.
func TestFindRedundantCacheDeterminism(t *testing.T) {
	if n := checkGolden(t, func(key string) bool { return strings.HasPrefix(key, "redundant ") }); n != 2 {
		t.Fatalf("checked %d redundancy cells, want 2", n)
	}
}

// TestCacheLookupTotalWorkerIndependent: which worker's verdict memo
// answers an execution varies with the worker count and the timing, so
// the hit/miss split may too — but the number of lookups must be the
// serial run's, also for early-stopped validation trials, whose slots past
// the first violation run only when another worker had started them. The
// same holds for every other counter the run's metrics carry (executions,
// violations, panics, ...): only the hit/miss split may differ. Fences
// and round stats stay those of the golden digest.
func TestCacheLookupTotalWorkerIndependent(t *testing.T) {
	b, err := progs.ByName("michael-alloc")
	if err != nil {
		t.Fatal(err)
	}
	// Under the SC criterion at 300 executions per round, validation drops
	// fail and stop their trial batches early.
	cfg := goldenConfig(b, memmodel.PSO)
	cfg.ExecsPerRound, cfg.MaxRounds = 300, 10
	wantTotal, wantKey, wantMetrics := -1, "", ""
	for _, workers := range []int{1, 2, 4} {
		for rep := 0; rep < 5; rep++ {
			cfg.Workers = workers
			cfg.Metrics = telemetry.NewMetrics(telemetry.NewRegistry(workers))
			res, err := Synthesize(b.Program(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			total, key := res.CacheHits+res.CacheMisses, resultKey(res)
			metrics := workerIndependentMetrics(cfg.Metrics.Registry.Snapshot())
			if wantTotal < 0 {
				wantTotal, wantKey, wantMetrics = total, key, metrics
				continue
			}
			if total != wantTotal {
				t.Errorf("workers=%d run %d: %d cache lookups (%d hits, %d misses), want %d",
					workers, rep, total, res.CacheHits, res.CacheMisses, wantTotal)
			}
			if key != wantKey {
				t.Errorf("workers=%d run %d: result\n%s\nwant\n%s", workers, rep, key, wantKey)
			}
			if metrics != wantMetrics {
				t.Errorf("workers=%d run %d: metrics\n%s\nwant\n%s", workers, rep, metrics, wantMetrics)
			}
		}
	}
}

// workerIndependentMetrics renders the counters and gauges of a run's
// metrics with the cache hits and misses folded into their total, and
// the per-execution step histogram; the wall-time histograms are left
// out.
func workerIndependentMetrics(s telemetry.Snapshot) string {
	var b strings.Builder
	lookups := int64(0)
	for _, c := range s.Counters {
		switch c.Name {
		case "dfence_exec_cache_hits", "dfence_exec_cache_misses":
			lookups += c.Value
		default:
			fmt.Fprintf(&b, "%s=%d\n", c.Name, c.Value)
		}
	}
	fmt.Fprintf(&b, "cache lookups=%d\n", lookups)
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "%s=%d\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		if h.Name == "dfence_exec_steps" {
			fmt.Fprintf(&b, "%s count=%d sum=%d buckets=%v\n", h.Name, h.Count, h.Sum, h.Buckets)
		}
	}
	return b.String()
}

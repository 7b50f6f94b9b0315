package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"dfence/internal/ir"
	"dfence/internal/sched"
	"dfence/internal/synth"
)

// TestSummarySnapshot pins the unified renderer's layout. cmd/dfence and
// cmd/experiments both print Result.Summary verbatim, so this snapshot is
// the contract that keeps the two front-ends identical: extend the
// expectation here when adding lines to Summary.
func TestSummarySnapshot(t *testing.T) {
	res := &Result{
		Rounds: []Round{
			{
				Executions: 1000, Violations: 40, DistinctClauses: 3, Predicates: 5,
				Inserted: []synth.InsertedFence{{After: 2, Label: 90, Kind: ir.FenceStoreStore, Func: "put"}},
				Wall:     42 * time.Millisecond, ExecsPerSec: 23809,
			},
			{
				Executions: 990, Violations: 0, Inconclusive: 12, Errors: 2, Skipped: 10,
				Wall: 17 * time.Millisecond, ExecsPerSec: 58235,
				StaticDelayPairs: 4, PrunedPredicates: 3, PruneFallbacks: 1,
			},
		},
		Outcome:           OutcomeConverged,
		TotalExecutions:   1990,
		TotalInconclusive: 22,
		Fences:            []synth.InsertedFence{{After: 2, Label: 90, Kind: ir.FenceStoreStore, Func: "put"}},
		SynthesizedFences: 2,
		Redundant:         1,
		StaticCandidates:  9,
		StaticDelayPairs:  4,
		PrunedPredicates:  3,
		CacheHits:         1500,
		CacheMisses:       500,
		SolverTruncated:   true,
		WitnessViolation:  "assertion violation in thread 2 at L16",
	}
	want := strings.Join([]string{
		"rounds=2 executions=1990 converged=true outcome=converged inconclusive=22",
		"round 1: 40/1000 violations, 5 predicates, 3 clauses, 1 fences inserted in 42ms (23809 execs/s)",
		"round 2: 0/990 violations, 0 predicates, 0 clauses, 0 fences inserted in 17ms (58235 execs/s), 12 inconclusive (2 errored), 10 skipped, 98% conclusive, static: 4 delay pairs, 3 predicates pruned (1 fallbacks)",
		"static analysis: 9 candidate pairs, 4 on critical cycles; 3 dynamic predicates pruned",
		"fences inserted: 1 (synthesized 2, 1 pruned as redundant)",
		"  fence(st-st) in put after L2",
		"exec cache: 1500 hits, 500 misses (75% hit rate)",
		"solver enumeration truncated by budget (repairs best-effort, not provably minimal)",
		"witness violation: assertion violation in thread 2 at L16",
	}, "\n")
	if got := res.Summary(); got != want {
		t.Errorf("Summary drifted from the snapshot.\ngot:\n%s\n\nwant:\n%s", got, want)
	}
}

// TestSummaryUnfixable pins the unfixable/exec-error variant of the
// renderer, including the source-located fence description used when the
// Result carries its program.
func TestSummaryUnfixable(t *testing.T) {
	res := &Result{
		Rounds:           []Round{{Executions: 100, Violations: 100, Wall: time.Millisecond, ExecsPerSec: 100000}},
		Outcome:          OutcomeUnfixable,
		UnfixableExample: "history not accepted: t1:put(1)",
		TotalExecutions:  100,
		ExecErrors:       []*sched.ExecError{{Index: 7, Seed: 8, Panic: "boom"}},
	}
	got := res.Summary()
	for _, want := range []string{
		"outcome=unfixable",
		"UNFIXABLE (history not accepted: t1:put(1))",
		"fences inserted: 0",
		"exec error:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Summary missing %q:\n%s", want, got)
		}
	}
}

// TestExecRate is the regression test for the sub-millisecond-round bug:
// Round.ExecsPerSec used to report 0 (and the guard against it could
// yield +Inf) when a tiny round's measured wall time was 0. The rate must
// be finite and positive whenever executions ran.
func TestExecRate(t *testing.T) {
	cases := []struct {
		execs int
		wall  time.Duration
	}{
		{500, 0},                // coarse clock: measured zero
		{500, -time.Nanosecond}, // monotonic anomaly
		{1, time.Nanosecond},    // sub-microsecond round
		{1000, 500 * time.Nanosecond},
		{1000, time.Second},
	}
	for _, c := range cases {
		got := execRate(c.execs, c.wall)
		if got <= 0 || math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("execRate(%d, %v) = %v, want finite positive", c.execs, c.wall, got)
		}
	}
	if got := execRate(0, 0); got != 0 {
		t.Errorf("execRate(0, 0) = %v, want 0", got)
	}
	if got := execRate(1000, time.Second); got != 1000 {
		t.Errorf("execRate(1000, 1s) = %v, want 1000", got)
	}
	// The clamp bounds the rate at execs-per-microsecond.
	if got, max := execRate(500, 0), 500*1e6; got != max {
		t.Errorf("execRate(500, 0) = %v, want the 1µs-clamped %v", got, max)
	}
}

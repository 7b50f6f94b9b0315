package faultinject_test

import (
	"testing"
	"time"

	"dfence/internal/core"
	"dfence/internal/faultinject"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/spec"
	"dfence/internal/telemetry"
)

// buildSB builds the store-buffering litmus with an assertion that fails
// when both loads bypass both stores — the standard violating workload the
// resilience tests run synthesis on.
func buildSB(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	for _, g := range []string{"x", "y", "r1", "r2"} {
		if err := p.AddGlobal(&ir.Global{Name: g, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(name, st, ld, out string) {
		b := ir.NewFuncBuilder(p, name, 0)
		sa := b.GlobalAddr(st)
		one := b.Const(1)
		b.Store(sa, one, st)
		la := b.GlobalAddr(ld)
		v, _ := b.Load(la, ld)
		oa := b.GlobalAddr(out)
		b.Store(oa, v, out)
		b.Ret()
		if _, err := b.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	mk("w1", "x", "y", "r1")
	mk("w2", "y", "x", "r2")
	b := ir.NewFuncBuilder(p, "main", 0)
	t1 := b.Fork("w1")
	t2 := b.Fork("w2")
	b.Join(t1)
	b.Join(t2)
	r1a := b.GlobalAddr("r1")
	r1, _ := b.Load(r1a, "r1")
	r2a := b.GlobalAddr("r2")
	r2, _ := b.Load(r2a, "r2")
	either := b.BinOp(ir.BinOr, r1, r2)
	b.Assert(either, "SB: both loads bypassed both stores")
	b.Ret()
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	return p
}

// buildLoops builds a violation-free two-thread program whose workers loop
// long enough (>1024 machine steps) for the scheduler's periodic context
// check to observe a cancelled run.
func buildLoops(t *testing.T, iters int64) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	for _, g := range []string{"x", "y"} {
		if err := p.AddGlobal(&ir.Global{Name: g, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(name, st, ld string) {
		b := ir.NewFuncBuilder(p, name, 0)
		sa := b.GlobalAddr(st)
		la := b.GlobalAddr(ld)
		i := b.Const(0)
		lim := b.Const(iters)
		one := b.Const(1)
		head := b.NextLabel()
		c := b.BinOp(ir.BinLt, i, lim)
		body, exit := b.CondBrF(c)
		body.Here()
		b.Store(sa, i, st)
		b.Load(la, ld)
		b.BinTo(i, ir.BinAdd, i, one)
		b.Br(head)
		exit.Here()
		b.Ret()
		if _, err := b.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	mk("w1", "x", "y")
	mk("w2", "y", "x")
	b := ir.NewFuncBuilder(p, "main", 0)
	t1 := b.Fork("w1")
	t2 := b.Fork("w2")
	b.Join(t1)
	b.Join(t2)
	b.Ret()
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	return p
}

// sbConfig is the shared synthesis configuration: TSO with FlushProb -1
// (explicitly 0), so stores stay buffered until forced and every worker's
// load deterministically triggers the observer — injected observer faults
// then fire on every chosen execution, independent of schedule randomness.
func sbConfig(workers int) core.Config {
	return core.Config{
		Model:         memmodel.TSO,
		Criterion:     spec.MemorySafety,
		ExecsPerRound: 64,
		MaxRounds:     8,
		Seed:          3,
		FlushProb:     -1,
		Workers:       workers,
	}
}

// TestPlanKind: the fault decision is a pure function of coordinates; At
// overrides Rate; rate 0 and >=1 behave as never/always.
func TestPlanKind(t *testing.T) {
	p := faultinject.NewPlan(11).
		Rate(faultinject.ExhaustSteps, 0.5).
		At(2, 7, faultinject.Panic).
		At(2, 8, faultinject.None)
	if got := p.Kind(2, 7); got != faultinject.Panic {
		t.Errorf("At(2,7): got %v, want panic", got)
	}
	if got := p.Kind(2, 8); got != faultinject.None {
		t.Errorf("At(2,8) pinned to none, got %v", got)
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		k := p.Kind(0, i)
		if k != p.Kind(0, i) {
			t.Fatal("Kind is not deterministic")
		}
		if k == faultinject.ExhaustSteps {
			hits++
		}
	}
	if hits < 300 || hits > 700 {
		t.Errorf("rate 0.5 hit %d/1000 executions", hits)
	}
	always := faultinject.NewPlan(1).Rate(faultinject.Slow, 1.1)
	never := faultinject.NewPlan(1).Rate(faultinject.Slow, 0)
	for i := 0; i < 100; i++ {
		if always.Kind(0, i) != faultinject.Slow {
			t.Fatal("rate 1.1 missed an execution")
		}
		if never.Kind(0, i) != faultinject.None {
			t.Fatal("rate 0 injected a fault")
		}
	}
}

// TestPanicContained is the acceptance scenario: a panic injected into one
// synthesis execution is recovered into a structured error naming its
// round, index, and seed, the round's accounting shows it, and synthesis
// still converges on the same fences as a fault-free run — for any worker
// count.
func TestPanicContained(t *testing.T) {
	const round, index = 0, 5
	baseline, err := core.Synthesize(buildSB(t), sbConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Outcome != core.OutcomeConverged {
		t.Fatalf("baseline did not converge: %s", baseline.Summary())
	}
	plan := faultinject.NewPlan(0).At(round, index, faultinject.Panic)
	for _, workers := range []int{1, 4} {
		cfg := sbConfig(workers)
		cfg.OptionsHook = plan.Hook()
		res, err := core.Synthesize(buildSB(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ExecErrors) != 1 {
			t.Fatalf("workers=%d: %d exec errors, want 1: %s", workers, len(res.ExecErrors), res.Summary())
		}
		e := res.ExecErrors[0]
		wantSeed := cfg.Seed + int64(round)*int64(cfg.ExecsPerRound) + index
		if e.Round != round || e.Index != index || e.Seed != wantSeed {
			t.Errorf("workers=%d: error at round %d index %d seed %d, want %d/%d/%d",
				workers, e.Round, e.Index, e.Seed, round, index, wantSeed)
		}
		if e.Panic != faultinject.PanicPayload || e.Stack == "" {
			t.Errorf("workers=%d: error payload incomplete: %+v", workers, e)
		}
		if res.Rounds[0].Errors != 1 || res.Rounds[0].Inconclusive != 1 {
			t.Errorf("workers=%d: round 0 counted %d errors, %d inconclusive, want 1/1",
				workers, res.Rounds[0].Errors, res.Rounds[0].Inconclusive)
		}
		if res.Outcome != core.OutcomeConverged {
			t.Fatalf("workers=%d: faulted run did not converge: %s", workers, res.Summary())
		}
		if len(res.Fences) != len(baseline.Fences) {
			t.Fatalf("workers=%d: %d fences, baseline has %d", workers, len(res.Fences), len(baseline.Fences))
		}
		for i := range res.Fences {
			if res.Fences[i] != baseline.Fences[i] {
				t.Errorf("workers=%d: fence %d is %v, baseline %v", workers, i, res.Fences[i], baseline.Fences[i])
			}
		}
	}
}

// TestExhaustedRoundsAreInconclusive: when every execution exhausts its
// step budget, no round sees a violation — but the result must be
// OutcomeInconclusive, never vacuous convergence.
func TestExhaustedRoundsAreInconclusive(t *testing.T) {
	cfg := sbConfig(4)
	cfg.ExecsPerRound = 8
	cfg.MaxRounds = 3
	cfg.OptionsHook = faultinject.NewPlan(0).Rate(faultinject.ExhaustSteps, 1.1).Hook()
	res, err := core.Synthesize(buildSB(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.OutcomeInconclusive {
		t.Fatalf("all-exhausted run reported outcome=%v: %s", res.Outcome, res.Summary())
	}
	if len(res.Rounds) != cfg.MaxRounds {
		t.Errorf("ran %d rounds, want all %d (vacuous rounds must not terminate the loop)",
			len(res.Rounds), cfg.MaxRounds)
	}
	want := cfg.ExecsPerRound * cfg.MaxRounds
	if res.TotalInconclusive != want {
		t.Errorf("TotalInconclusive = %d, want %d", res.TotalInconclusive, want)
	}
	for i, r := range res.Rounds {
		if r.Violations != 0 || r.Inconclusive != cfg.ExecsPerRound || r.ConclusiveFraction() != 0 {
			t.Errorf("round %d: %+v, want all-inconclusive", i, r)
		}
	}
}

// TestDeadlineAborts: an already-expired deadline skips every execution,
// keeps the partial round's statistics, and reports OutcomeAborted.
func TestDeadlineAborts(t *testing.T) {
	cfg := sbConfig(4)
	cfg.ExecsPerRound = 16
	cfg.Deadline = time.Nanosecond
	res, err := core.Synthesize(buildSB(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.OutcomeAborted {
		t.Fatalf("expired deadline gave outcome=%v: %s", res.Outcome, res.Summary())
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("kept %d rounds, want the 1 partial round", len(res.Rounds))
	}
	r := res.Rounds[0]
	if r.Skipped != cfg.ExecsPerRound || r.Executions != 0 {
		t.Errorf("partial round: %d skipped, %d executed, want %d/0", r.Skipped, r.Executions, cfg.ExecsPerRound)
	}
	if res.TotalInconclusive != cfg.ExecsPerRound {
		t.Errorf("TotalInconclusive = %d, want %d", res.TotalInconclusive, cfg.ExecsPerRound)
	}
}

// TestSlowExecutionCutByDeadline: a stalled execution is cut when the
// run's Deadline expires and counted inconclusive, while every other
// execution of the round completes; the round is kept and the run
// reports OutcomeAborted.
func TestSlowExecutionCutByDeadline(t *testing.T) {
	// Margins: an unfaulted execution of the 200-iteration loop takes a few
	// ms (tens of ms under -race), so the other 15 finish well inside the
	// 400ms deadline; the stalled one sleeps 5ms per shared access, so by
	// the scheduler's first periodic context check (iteration 1024,
	// hundreds of shared accesses in) it has slept over a second — past
	// the deadline regardless of machine load, since sleeping needs no
	// CPU.
	plan := faultinject.NewPlan(0).At(0, 2, faultinject.Slow)
	plan.SlowDelay = 5 * time.Millisecond
	cfg := sbConfig(4)
	cfg.ExecsPerRound = 16
	cfg.MaxRounds = 2
	cfg.Deadline = 400 * time.Millisecond
	cfg.OptionsHook = plan.Hook()
	cfg.Metrics = telemetry.NewMetrics(telemetry.NewRegistry(cfg.Workers))
	res, err := core.Synthesize(buildLoops(t, 200), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.OutcomeAborted || len(res.Rounds) != 1 {
		t.Fatalf("deadline-cut run gave outcome=%v after %d rounds, want aborted after 1: %s",
			res.Outcome, len(res.Rounds), res.Summary())
	}
	r := res.Rounds[0]
	if r.Inconclusive != 1 || r.Errors != 0 || r.Skipped != 0 || r.Executions != cfg.ExecsPerRound {
		t.Fatalf("round 0: %d executed, %d inconclusive, %d errors, %d skipped; want %d/1/0/0: %s",
			r.Executions, r.Inconclusive, r.Errors, r.Skipped, cfg.ExecsPerRound, res.Summary())
	}
	if got := cfg.Metrics.Timeouts.Value(); got != 1 {
		t.Errorf("Metrics.Timeouts = %d, want the 1 stalled execution", got)
	}
}

// TestRateDeterministicAcrossWorkers: a sampled plan injects the same
// faults into the same executions for every worker count, so the entire
// synthesis transcript matches.
func TestRateDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *core.Result {
		cfg := sbConfig(workers)
		cfg.ExecsPerRound = 32
		cfg.OptionsHook = faultinject.NewPlan(9).Rate(faultinject.ExhaustSteps, 0.4).Hook()
		res, err := core.Synthesize(buildSB(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if a.Outcome != b.Outcome || a.TotalInconclusive != b.TotalInconclusive || len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("workers changed the outcome:\nserial:   %s\nparallel: %s", a.Summary(), b.Summary())
	}
	for i := range a.Rounds {
		ra, rb := a.Rounds[i], b.Rounds[i]
		if ra.Violations != rb.Violations || ra.Inconclusive != rb.Inconclusive || ra.Executions != rb.Executions {
			t.Errorf("round %d diverged: serial %+v, parallel %+v", i, ra, rb)
		}
	}
	if len(a.Fences) != len(b.Fences) {
		t.Fatalf("fences diverged: %d vs %d", len(a.Fences), len(b.Fences))
	}
	for i := range a.Fences {
		if a.Fences[i] != b.Fences[i] {
			t.Errorf("fence %d: %v vs %v", i, a.Fences[i], b.Fences[i])
		}
	}
}

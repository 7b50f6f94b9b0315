package sched

import (
	"fmt"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

// loadStarveOpts are the options of the portfolio's first load-buffering
// phase (core.portfolioPhase 4): eager flushes, lazy resolves, the
// load-starvation vow, and the iteration budget the rmo benchmark uses.
func loadStarveOpts(seed int64) Options {
	opts := DefaultOptions(seed)
	opts.FlushProb = 0.9
	opts.ResolveProb = 0.05
	opts.StarveLoads = true
	opts.MaxIters = 50000
	return opts
}

// buildFlagAfterLoad is the shape of the load-starve livelock: thread a
// loads x, uses the loaded value (a store to y, which force-resolves the
// deferred load), then raises flag; thread b spin-waits on flag. When a
// is the load vow's victim, b can always execute, so the vow never
// yields on liveness grounds — only its lifetime ends it.
func buildFlagAfterLoad(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	for _, g := range []string{"x", "y", "flag"} {
		if err := p.AddGlobal(&ir.Global{Name: g, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	a := ir.NewFuncBuilder(p, "a", 0)
	r, _ := a.Load(a.GlobalAddr("x"), "x")
	a.Store(a.GlobalAddr("y"), r, "y")
	a.Store(a.GlobalAddr("flag"), a.Const(1), "flag")
	a.Ret()
	finish(t, a)

	b := ir.NewFuncBuilder(p, "b", 0)
	fa := b.GlobalAddr("flag")
	head := b.NextLabel()
	fv, _ := b.Load(fa, "flag")
	spin, done := b.CondBrF(b.Not(fv))
	spin.Here()
	b.Br(head)
	done.Here()
	b.Ret()
	finish(t, b)

	mb := ir.NewFuncBuilder(p, "main", 0)
	t1 := mb.Fork("a")
	t2 := mb.Fork("b")
	mb.Join(t1)
	mb.Join(t2)
	mb.Ret()
	finish(t, mb)
	mustLink(t, p)
	return p
}

// TestLoadVowExpires: a load vow whose victim holds up a spinning thread
// is spent after vowLifetime machine steps, so every run finishes within
// the budget instead of spinning until MaxIters cuts it.
func TestLoadVowExpires(t *testing.T) {
	p := buildFlagAfterLoad(t)
	longest := 0
	for s := int64(0); s < 40; s++ {
		res := Run(p, memmodel.RMO, nil, loadStarveOpts(s))
		if res.Violation != nil {
			t.Fatalf("seed %d: unexpected violation: %v", s, res.Violation)
		}
		if res.StepLimitHit {
			t.Errorf("seed %d: hit the budget after %d iterations (%d spins)", s, res.SchedIters, res.SchedSpins)
		}
		if res.SchedIters >= 3*vowLifetime {
			t.Errorf("seed %d: %d iterations, want < %d", s, res.SchedIters, 3*vowLifetime)
		}
		longest = max(longest, res.Steps)
	}
	// Some seed must have made a the victim and held it for the vow's
	// whole lifetime; otherwise the test never reached the livelock.
	if longest < vowLifetime {
		t.Errorf("longest run took %d steps; no vow ran to its lifetime of %d", longest, vowLifetime)
	}
}

// buildLB is the 2-thread load-buffering litmus shape: each thread loads
// one variable, stores 1 to the other, then publishes the loaded value;
// main prints both published values.
func buildLB(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	for _, g := range []string{"x", "y", "p1", "p2"} {
		if err := p.AddGlobal(&ir.Global{Name: g, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(name, ld, st, pub string) {
		b := ir.NewFuncBuilder(p, name, 0)
		r, _ := b.Load(b.GlobalAddr(ld), ld)
		b.Store(b.GlobalAddr(st), b.Const(1), st)
		b.Store(b.GlobalAddr(pub), r, pub)
		b.Ret()
		finish(t, b)
	}
	mk("t1", "y", "x", "p1")
	mk("t2", "x", "y", "p2")

	mb := ir.NewFuncBuilder(p, "main", 0)
	h1 := mb.Fork("t1")
	h2 := mb.Fork("t2")
	mb.Join(h1)
	mb.Join(h2)
	v1, _ := mb.Load(mb.GlobalAddr("p1"), "p1")
	mb.Print(v1)
	v2, _ := mb.Load(mb.GlobalAddr("p2"), "p2")
	mb.Print(v2)
	mb.Ret()
	finish(t, mb)
	mustLink(t, p)
	return p
}

// lbRelaxed2000 is how many of seeds 0..1999 reach the load-buffering
// outcome of buildLB under loadStarveOpts. Litmus-length runs end long
// before a vow's lifetime, so bounding it leaves their schedules — and
// this count — exactly as they were with an unbounded load vow.
const lbRelaxed2000 = 1784

// TestLoadVowDetectsLB pins the load vow's detection power on the LB
// litmus shape.
func TestLoadVowDetectsLB(t *testing.T) {
	p := buildLB(t)
	relaxed := 0
	for s := int64(0); s < 2000; s++ {
		res := Run(p, memmodel.RMO, nil, loadStarveOpts(s))
		if res.Violation != nil || res.StepLimitHit {
			t.Fatalf("seed %d: violation %v, step limit %v", s, res.Violation, res.StepLimitHit)
		}
		if res.Output[0] == 1 && res.Output[1] == 1 {
			relaxed++
		}
	}
	if relaxed != lbRelaxed2000 {
		t.Errorf("LB outcome in %d of 2000 runs, want %d", relaxed, lbRelaxed2000)
	}
}

// TestStarveWinsOverStarveLoads: the store and load disciplines share one
// vow record, so with both options set only the store vow acts — every
// run is bit-identical to a Starve-only run.
func TestStarveWinsOverStarveLoads(t *testing.T) {
	p := buildLB(t)
	for s := int64(0); s < 200; s++ {
		both := loadStarveOpts(s)
		both.Starve = true
		storeOnly := both
		storeOnly.StarveLoads = false
		rb, tb := RunTraced(p, memmodel.RMO, nil, both)
		rs, ts := RunTraced(p, memmodel.RMO, nil, storeOnly)
		if tb.String() != ts.String() || fmt.Sprint(rb.Output) != fmt.Sprint(rs.Output) {
			t.Fatalf("seed %d: both vows gave schedule %v output %v, Starve alone %v output %v",
				s, tb, rb.Output, ts, rs.Output)
		}
	}
}

package core

import (
	"bytes"
	"testing"

	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/trace"
)

// TestTracingDisabledIdentical: span tracing is pure observation — a run
// with a tracer attached must produce a bit-identical Result to one
// without, at any worker count. (The telemetry twin of this test is
// TestTelemetryDisabledIdentical; the normalization notes there apply.)
func TestTracingDisabledIdentical(t *testing.T) {
	p, _, _ := buildSPSC(t)
	for _, workers := range []int{1, 4} {
		bare, err := Synthesize(p.Clone(), synthConfig(func(c *Config) {
			c.Workers = workers
		}))
		if err != nil {
			t.Fatal(err)
		}
		tracer := trace.New(trace.Options{Lanes: workers})
		traced, err := Synthesize(p.Clone(), synthConfig(func(c *Config) {
			c.Workers = workers
			c.Tracer = tracer
		}))
		if err != nil {
			t.Fatal(err)
		}
		if bt, tt := bare.CacheHits+bare.CacheMisses, traced.CacheHits+traced.CacheMisses; bt != tt {
			t.Errorf("workers=%d: total cache lookups differ: bare %d, traced %d", workers, bt, tt)
		}
		for _, res := range []*Result{bare, traced} {
			res.CacheHits, res.CacheMisses = 0, 0
			for i := range res.Rounds {
				res.Rounds[i].Wall, res.Rounds[i].ExecsPerSec = 0, 0
			}
		}
		if bare.Summary() != traced.Summary() {
			t.Errorf("workers=%d: tracing changed the result:\nbare:\n%s\n\ntraced:\n%s",
				workers, bare.Summary(), traced.Summary())
		}

		// The traced run must actually have recorded the span hierarchy,
		// and its export must survive the strict reader.
		d := tracer.Snapshot()
		var haveRun, haveRound, haveCollect, haveExecs bool
		for _, ev := range d.TraceEvents {
			switch ev.Name {
			case "run":
				haveRun = true
			case "round":
				haveRound = true
			case "collect":
				haveCollect = true
			}
		}
		for _, ln := range d.Other.Lanes {
			for _, agg := range ln.Portfolio {
				if agg.Execs > 0 {
					haveExecs = true
				}
			}
		}
		if !haveRun || !haveRound || !haveCollect || !haveExecs {
			t.Errorf("workers=%d: trace missing spans: run=%v round=%v collect=%v execs=%v",
				workers, haveRun, haveRound, haveCollect, haveExecs)
		}
		var buf bytes.Buffer
		if err := tracer.WriteJSON(&buf); err != nil {
			t.Fatalf("workers=%d: WriteJSON: %v", workers, err)
		}
		if _, err := trace.Read(bytes.NewReader(buf.Bytes())); err != nil {
			t.Errorf("workers=%d: exported trace fails the strict reader: %v", workers, err)
		}
	}
}

// TestTracingDisabledZeroAlloc: the per-execution trace hooks on the hot
// path must not allocate when no tracer is attached (nil receiver).
func TestTracingDisabledZeroAlloc(t *testing.T) {
	var tr *trace.Tracer
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.Begin(0, trace.SpanExec, 1)
		tr.ExecDone(1, 3, 0, 10, 8, 2, 99)
		tr.Instant(1, trace.InstantCacheHit, 0, 0)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per execution; want 0", allocs)
	}
}

// TestMaxItersDeterministicCutoff: MaxItersPerExec is part of the
// deterministic configuration — the same budget yields the same Result
// at different worker counts, and a budget small enough to trip turns
// executions inconclusive rather than changing verdicts.
func TestMaxItersDeterministicCutoff(t *testing.T) {
	p, _, _ := buildSPSC(t)
	var keys []string
	for _, workers := range []int{1, 4} {
		res, err := Synthesize(p.Clone(), synthConfig(func(c *Config) {
			c.Workers = workers
			c.MaxItersPerExec = 20
		}))
		if err != nil {
			t.Fatal(err)
		}
		res.CacheHits, res.CacheMisses = 0, 0
		for i := range res.Rounds {
			res.Rounds[i].Wall, res.Rounds[i].ExecsPerSec = 0, 0
		}
		keys = append(keys, res.Summary())
		var inconclusive int
		for _, r := range res.Rounds {
			inconclusive += r.Inconclusive
		}
		if inconclusive == 0 {
			t.Errorf("workers=%d: a 20-iteration budget tripped no executions", workers)
		}
	}
	if keys[0] != keys[1] {
		t.Errorf("MaxItersPerExec broke worker-count determinism:\nw=1:\n%s\n\nw=4:\n%s", keys[0], keys[1])
	}
}

// TestRMOLoadStarveConclusive: on the two benchmarks where a spinning
// thread waits on a lock the load vow's victim holds, the vow's lifetime
// ends the spin — every execution is conclusive under the iteration
// budget, and the load-starving phases 4 and 5 use at most 20x the plain
// phase's scheduler iterations per execution. The counts are exact, so
// the test is deterministic.
func TestRMOLoadStarveConclusive(t *testing.T) {
	for _, name := range []string{"ms2-queue", "lazylist-set"} {
		b, err := progs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tracer := trace.New(trace.Options{Lanes: 2})
		cfg := goldenConfig(b, memmodel.RMO)
		cfg.ExecsPerRound, cfg.MaxItersPerExec, cfg.Seed, cfg.Workers = 250, 50000, 1, 2
		cfg.Tracer = tracer
		res, err := Synthesize(b.Program(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalInconclusive != 0 {
			t.Errorf("%s: %d inconclusive executions, want 0", name, res.TotalInconclusive)
		}
		var execs, iters [6]int64
		for _, ln := range tracer.Snapshot().Other.Lanes {
			for _, a := range ln.Portfolio {
				execs[a.Phase] += a.Execs
				iters[a.Phase] += a.Iters
			}
		}
		if execs[0] == 0 {
			t.Fatalf("%s: no phase-0 executions traced", name)
		}
		base := float64(iters[0]) / float64(execs[0])
		for _, ph := range []int{4, 5} {
			if execs[ph] == 0 {
				t.Errorf("%s: no phase-%d executions traced", name, ph)
				continue
			}
			if per := float64(iters[ph]) / float64(execs[ph]); per > 20*base {
				t.Errorf("%s: phase %d uses %.0f iterations per execution, phase 0 %.0f; want at most 20x", name, ph, per, base)
			}
		}
	}
}

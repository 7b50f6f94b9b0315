package telemetry

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterShards(t *testing.T) {
	reg := NewRegistry(4)
	c := reg.NewCounter("test_counter", "")
	c.Inc(0)
	c.Add(3, 5)
	c.Add(7, 2) // wraps onto shard 3
	c.Add(1, 0) // no-op
	if got := c.Value(); got != 8 {
		t.Errorf("Value = %d, want 8", got)
	}
	var nilC *Counter
	nilC.Inc(0) // must not panic
	if nilC.Value() != 0 {
		t.Error("nil Counter Value != 0")
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry(1)
	g := reg.NewGauge("test_gauge", "")
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Errorf("Value = %d, want 42", got)
	}
	var nilG *Gauge
	nilG.Set(1)
	if nilG.Value() != 0 {
		t.Error("nil Gauge Value != 0")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry(1)
	h := reg.NewHistogram("test_hist", "", []int64{10, 100, 1000})
	for v := int64(1); v <= 100; v++ {
		h.Observe(0, v)
	}
	snap := reg.Snapshot()
	hs := snap.Histograms[0]
	if hs.Count != 100 || hs.Sum != 5050 {
		t.Errorf("count/sum = %d/%d, want 100/5050", hs.Count, hs.Sum)
	}
	// 1..10 land in the 10-bucket, 11..100 in the 100-bucket: p50 and p95
	// both resolve to bound 100, p05 to bound 10.
	if hs.P50 != 100 || hs.P95 != 100 {
		t.Errorf("p50/p95 = %d/%d, want 100/100", hs.P50, hs.P95)
	}
	var nilH *Histogram
	nilH.Observe(0, 5) // must not panic
}

func TestDuplicateNamePanics(t *testing.T) {
	reg := NewRegistry(1)
	reg.NewCounter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	reg.NewGauge("dup", "")
}

// TestHistogramMergeDeterminism is the satellite-3 test: concurrent
// workers hammer sharded counters and histograms with a fixed per-worker
// observation schedule; however the scheduler interleaves them (run with
// -race), the merged snapshot must be identical across runs and identical
// to the serial reference, because merging is a per-bucket sum.
func TestHistogramMergeDeterminism(t *testing.T) {
	const workers = 8
	const perWorker = 5000
	run := func(parallel bool) Snapshot {
		reg := NewRegistry(workers)
		c := reg.NewCounter("det_counter", "")
		h := reg.NewHistogram("det_hist", "", []int64{10, 50, 100, 500, 1000, 5000})
		work := func(w int) {
			rng := rand.New(rand.NewSource(int64(w) + 1)) // fixed seed per worker
			for i := 0; i < perWorker; i++ {
				v := rng.Int63n(6000)
				h.Observe(w, v)
				c.Add(w, v%7)
			}
		}
		if parallel {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					work(w)
				}(w)
			}
			wg.Wait()
		} else {
			for w := 0; w < workers; w++ {
				work(w)
			}
		}
		return reg.Snapshot()
	}
	serial := run(false)
	for i := 0; i < 3; i++ {
		got := run(true)
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("concurrent snapshot %d differs from serial reference:\ngot  %+v\nwant %+v", i, got, serial)
		}
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	reg := NewRegistry(2)
	m := NewMetrics(reg)
	m.Executions.Add(0, 10)
	m.Executions.Add(1, 5)
	m.CurrentRound.Set(3)
	m.ExecSteps.Observe(0, 75)
	m.ExecSteps.Observe(1, 120)
	var b strings.Builder
	if err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dfence_executions counter",
		"dfence_executions_total 15",
		"dfence_current_round 3",
		`dfence_exec_steps_bucket{le="100"} 1`,
		`dfence_exec_steps_bucket{le="+Inf"} 2`,
		"dfence_exec_steps_sum 195",
		"dfence_exec_steps_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Error("output does not end with # EOF")
	}
}

// TestNilMetricsView: the all-nil view every disabled-telemetry hot path
// records into must be inert.
func TestNilMetricsView(t *testing.T) {
	var m *Metrics
	v := m.View()
	v.Executions.Inc(0)
	v.CurrentRound.Set(5)
	v.ExecSteps.Observe(0, 100)
	// Nothing to assert beyond "did not panic": all handles are nil no-ops.
}

// TestMetricsEmitFold: each fence action feeds its counter, and the /runz
// solve-time list stops at maxRoundWallSamples while the solver counters
// and the wall histogram keep counting every solve.
func TestMetricsEmitFold(t *testing.T) {
	m := NewMetrics(NewRegistry(1))
	fence := Fence{After: 1, Label: 2, Kind: "fence(st-st)", Func: "f"}
	m.Emit(FenceChange{Round: 1, Action: "insert", Fences: []Fence{fence, fence}})
	m.Emit(FenceChange{Action: "drop-redundant", Fences: []Fence{fence}})
	for i := 1; i <= maxRoundWallSamples+2; i++ {
		m.Emit(RoundStart{Round: i})
		m.Emit(SolverResult{Round: i, Models: 1, WallUS: int64(i)})
		m.Emit(RoundEnd{Round: i, Executions: 10, WallUS: 5})
	}
	m.Emit(Converged{Outcome: "converged"})

	if m.FencesInserted.Value() != 2 || m.FencesRemoved.Value() != 1 {
		t.Errorf("fences inserted/removed = %d/%d, want 2/1", m.FencesInserted.Value(), m.FencesRemoved.Value())
	}
	run := m.Run()
	n := maxRoundWallSamples + 2
	if run.Round != n || run.Rounds != n || run.Executions != 10*n || run.Outcome != "converged" {
		t.Errorf("run = %+v", run)
	}
	if s := run.Solver; s.Rounds != n || s.Models != n || len(s.RoundWallUS) != maxRoundWallSamples || s.Truncated != 2 {
		t.Errorf("solver = %+v", s)
	}
	for _, h := range m.Registry.Snapshot().Histograms {
		if h.Name == "dfence_solver_wall_us" && (h.Count != int64(n) || h.Sum != int64(n*(n+1)/2)) {
			t.Errorf("solver wall histogram count/sum = %d/%d", h.Count, h.Sum)
		}
	}
}

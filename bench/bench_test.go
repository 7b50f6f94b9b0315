package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	// By symmetry the Harrell–Davis median of 1..100 is 50.5.
	if got, err := percentile(xs, 50); err != nil || !near(got, 50.5) {
		t.Errorf("p50 of 1..100 = %v, %v; want 50.5", got, err)
	}
	if got, err := percentile(xs, 90); err != nil || got < 89 || got > 92 {
		t.Errorf("p90 of 1..100 = %v, %v; want about 90.9", got, err)
	}
	same := []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	if got, err := percentile(same, 50); err != nil || !near(got, 7) {
		t.Errorf("p50 of a constant sample = %v, %v; want 7", got, err)
	}
	// Two clusters with the median rank at the gap: the nearest rank would
	// report one edge of the gap or the other; the estimate lies between.
	var gap []float64
	for i := 0; i < 50; i++ {
		gap = append(gap, 5, 9)
	}
	if got, _ := percentile(gap, 50); !near(got, 7) {
		t.Errorf("p50 of half 5s, half 9s = %v; want 7", got)
	}
	// Too few samples beyond the rank: null, never an estimate.
	if _, err := percentile(xs, 95); err == nil {
		t.Error("p95 of 100 samples has 5 beyond it; want an error")
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it; want an error")
	}
	if _, err := percentile(xs[:20], 50); err != nil {
		t.Errorf("p50 of 20 samples: %v", err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("no samples: want an error")
	}
}

func TestBetaInc(t *testing.T) {
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},
		{5.5, 5.5, 0.5, 0.5},
		{2, 3, 0.4, 0.5248}, // Σ_{j=2..4} C(4,j) 0.4^j 0.6^(4-j)
		{2, 3, 0.9, 0.9963}, // the same sum at 0.9, past the mean
	} {
		if got := betaInc(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("I_%g(%g, %g) = %v; want %v", c.x, c.a, c.b, got, c.want)
		}
	}
	// I_x(a, b) = 1 − I_{1−x}(b, a), across the switch between branches.
	for _, x := range []float64{0.1, 0.45, 0.55, 0.9} {
		if got := betaInc(90.9, 10.1, x) + betaInc(10.1, 90.9, 1-x); math.Abs(got-1) > 1e-9 {
			t.Errorf("symmetry at x=%g: sum %v", x, got)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which
// is how spreads of the printed results are computed elsewhere.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3, 10, 7}, 2, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, p := range parent {
			out[i] = p + d
		}
		return out
	}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{shift(-20), "improved"},
		{shift(0), "unchanged"},
		{shift(5), "unchanged"},
		{shift(15), "regressed"},
	} {
		if got := verdict(lower, parent, c.change); got != c.want {
			t.Errorf("change %v: %s, want %s", c.change, got, c.want)
		}
	}
	// Three pairs cannot show a gain, however clear.
	if got := verdict(lower, parent[:3], shift(-20)[:3]); got != "unchanged" {
		t.Errorf("three pairs, change 20%% faster: %s, want unchanged", got)
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got := verdict(lower, noisy, noisy); got != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}
}

func TestCompareRefusesMismatchedRuns(t *testing.T) {
	base := header{J: 2, GOMAXPROCS: 2, Seed: 1, Seconds: 20}
	for _, c := range []struct {
		name   string
		change func(*header)
	}{
		{"j", func(h *header) { h.J = 1 }},
		{"gomaxprocs", func(h *header) { h.GOMAXPROCS = 1 }},
		{"seed", func(h *header) { h.Seed = 2 }},
		{"seconds", func(h *header) { h.Seconds = 10 }},
	} {
		other := base
		c.change(&other)
		dir := t.TempDir()
		var paths []string
		for k, h := range []header{base, other} {
			data, err := json.Marshal(fullRun{Header: h, Correct: true})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("run%d.json", k))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
		if code := compareMain(paths, io.Discard); code != 2 {
			t.Errorf("runs differing in %s: exit %d, want 2 (refused)", c.name, code)
		}
		if code := compareMain([]string{paths[0], paths[0]}, io.Discard); code != 0 {
			t.Errorf("identical runs: exit %d, want 0", code)
		}
	}
}

// benchmarkJSON is the repository root's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n BENCHMARK.json %+v\n benchmark      %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer:\n BENCHMARK.json %+v\n benchmark      %+v", b.PerLayer, perLayer)
	}
}

// TestSmoke runs every workload on tiny inputs, untraced and traced, and
// checks that what it emits is exactly what BENCHMARK.json declares. With
// so few operations some percentiles are rightly null (with a reason).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	units := func(defs []metricDef) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
		return m
	}
	ops := map[string]int{"table3": 3, "rmo": 2, "enum": 2, "service": 8}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{
				workload: w.name, seed: 1, trace: traced, j: 2, ops: ops[w.name], workDir: t.TempDir(),
				probes: probeLimits{budget: 5 * time.Millisecond, serveOps: 8, enumN: 1},
			}
			start := time.Now()
			detail, res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			t.Logf("%s traced=%v: %d ops in %v", w.name, traced, res.Attempted, time.Since(start).Round(time.Millisecond))
			if res.Attempted != ops[w.name]*detail.Passes || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d; failures %v", w.name, traced, res.Attempted, res.Failed, detail.Failures)
			}
			want := units(b.EndToEnd)
			if traced {
				want = units(b.PerLayer)
				if detail.TracedDigest != detail.Digest {
					t.Errorf("%s: traced digest %s, untraced %s", w.name, detail.TracedDigest, detail.Digest)
				}
			}
			got := map[string]string{}
			for name, mv := range res.Metrics {
				got[name] = mv.Unit
				if mv.Value == nil && mv.Reason == "" {
					t.Errorf("%s traced=%v: %s is null without a reason", w.name, traced, name)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: emitted %v, declared %v", w.name, traced, sortedKeys(got), sortedKeys(want))
			}
		}
	}
}

func sortedKeys(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" "+v)
	}
	sort.Strings(out)
	return out
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snapshot writes a benchjson document holding the given benchmarks and
// returns its path.
func snapshot(t *testing.T, benches ...benchmark) string {
	t.Helper()
	data, err := json.Marshal(document{Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func bench(name string, nsPerOp float64) benchmark {
	return benchmark{Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": nsPerOp}}
}

// gate runs benchgate on two snapshots and returns its exit status and
// standard output.
func gate(t *testing.T, oldPath, newPath string, extra ...string) (int, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(append([]string{"-old", oldPath, "-new", newPath}, extra...), &stdout, &stderr)
	t.Logf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	return code, stdout.String()
}

// TestSuffixedAndUnsuffixedCompare: a baseline recorded at GOMAXPROCS=1
// (no suffix) compares with a run at GOMAXPROCS=2, whose names carry
// "-2", and with one at GOMAXPROCS=1.
func TestSuffixedAndUnsuffixedCompare(t *testing.T) {
	old := snapshot(t, bench("BenchmarkExecutionEngine/pooled-machine", 7000))
	for _, name := range []string{"BenchmarkExecutionEngine/pooled-machine-2", "BenchmarkExecutionEngine/pooled-machine"} {
		code, out := gate(t, old, snapshot(t, bench(name, 7100)), "-bench", "BenchmarkExecutionEngine")
		if code != 0 {
			t.Fatalf("%s: exit %d, want 0", name, code)
		}
		if !strings.Contains(out, "BenchmarkExecutionEngine/pooled-machine ") {
			t.Fatalf("%s: the benchmark was not compared:\n%s", name, out)
		}
	}
}

// TestRegressionStillFails: stripping the suffix does not hide a real
// regression past the threshold.
func TestRegressionStillFails(t *testing.T) {
	old := snapshot(t, bench("BenchmarkExecutionEngine/pooled-machine", 7000))
	cur := snapshot(t, bench("BenchmarkExecutionEngine/pooled-machine-2", 7000*1.5))
	code, out := gate(t, old, cur, "-threshold", "1.3")
	if code != 1 || !strings.Contains(out, "REGRESSED") {
		t.Fatalf("exit %d, want 1 with a REGRESSED line:\n%s", code, out)
	}
}

// TestDigitNamesKept: a name whose own last segment ends in digits keeps
// them; only a trailing "-N" is the GOMAXPROCS suffix.
func TestDigitNamesKept(t *testing.T) {
	m, err := load(snapshot(t,
		bench("BenchmarkSynthesizeWorkers/workers=1", 1),
		bench("BenchmarkSynthesizeWorkers/workers=4-2", 2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BenchmarkSynthesizeWorkers/workers=1", "BenchmarkSynthesizeWorkers/workers=4"} {
		if _, ok := m[name]; !ok {
			t.Errorf("load lost %q; names: %v", name, m)
		}
	}
	if len(m) != 2 {
		t.Errorf("load returned %d names, want 2: %v", len(m), m)
	}
}

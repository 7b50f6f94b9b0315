// Command benchgate compares two benchmark snapshots produced by
// cmd/benchjson and fails (exit 1) when the new run regressed past a
// threshold ratio. It is the stdlib-only gating half of the benchmark
// pipeline: benchstat (when installed) renders the human-readable
// comparison artifact, benchgate renders the verdict CI acts on.
//
//	benchgate -old BENCH_pr9.json -new /tmp/new.json \
//	    -bench 'BenchmarkExecutionEngine' -threshold 1.3
//
// For every benchmark whose name matches -bench and that appears in both
// snapshots, the gated metrics are compared directionally:
//
//   - ns/op (lower is better): fail if new > old * threshold;
//   - execs/s (higher is better): fail if new < old / threshold.
//
// Other metrics (B/op, allocs/op, steps/op, ...) are reported for
// context but never gate — allocation counts are exact and drift
// legitimately with code changes, and the deterministic counters are
// covered by tests, not benchmarks. The threshold is deliberately loose
// (default 1.3x) because CI machines are noisy; the gate exists to catch
// step-function regressions (a pooling path lost, an index gone
// quadratic), not percent-level drift.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type document struct {
	Benchmarks []benchmark `json:"benchmarks"`
}

// procsSuffix matches the "-N" GOMAXPROCS suffix go test -bench appends
// to every benchmark name when GOMAXPROCS > 1.
var procsSuffix = regexp.MustCompile(`-[0-9]+$`)

// load reads a benchjson document and averages duplicate benchmark names
// (repeated -count runs) into one metric set per name. Names are keyed
// without their GOMAXPROCS suffix, so snapshots recorded at different
// GOMAXPROCS compare (BenchmarkX/pooled-machine-2 is BenchmarkX/pooled-machine).
func load(path string) (map[string]map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sums := make(map[string]map[string]float64)
	counts := make(map[string]map[string]int)
	for _, b := range doc.Benchmarks {
		name := procsSuffix.ReplaceAllString(b.Name, "")
		if sums[name] == nil {
			sums[name] = make(map[string]float64)
			counts[name] = make(map[string]int)
		}
		for unit, v := range b.Metrics {
			sums[name][unit] += v
			counts[name][unit]++
		}
	}
	for name, m := range sums {
		for unit := range m {
			m[unit] /= float64(counts[name][unit])
		}
	}
	return sums, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns
// the exit status: 0 within the threshold, 1 on a regression or when no
// benchmark is in both snapshots, 2 on a usage or input error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oldPath := fs.String("old", "", "baseline benchjson snapshot (committed)")
	newPath := fs.String("new", "", "fresh benchjson snapshot to gate")
	benchRe := fs.String("bench", ".", "regexp selecting which benchmarks gate")
	threshold := fs.Float64("threshold", 1.3, "maximum tolerated regression ratio")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "benchgate: -old and -new are required")
		return 2
	}
	re, err := regexp.Compile(*benchRe)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	oldB, err := load(*oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	newB, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}

	var names []string
	for name := range newB {
		if _, ok := oldB[name]; ok && re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(stderr, "benchgate: no benchmark matches %q in both snapshots\n", *benchRe)
		return 1
	}

	failed := 0
	for _, name := range names {
		o, n := oldB[name], newB[name]
		for _, g := range []struct {
			unit        string
			lowerBetter bool
		}{{"ns/op", true}, {"execs/s", false}} {
			ov, okO := o[g.unit]
			nv, okN := n[g.unit]
			if !okO || !okN || ov == 0 || nv == 0 {
				continue
			}
			ratio := nv / ov
			verdict := "ok"
			bad := (g.lowerBetter && ratio > *threshold) ||
				(!g.lowerBetter && ratio < 1 / *threshold)
			if bad {
				verdict = "REGRESSED"
				failed++
			}
			fmt.Fprintf(stdout, "%-60s %-10s old=%-14.4g new=%-14.4g ratio=%.3f %s\n",
				name, g.unit, ov, nv, ratio, verdict)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "benchgate: %d metric(s) regressed past %.2fx\n", failed, *threshold)
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: all gated metrics within %.2fx of baseline\n", *threshold)
	return 0
}

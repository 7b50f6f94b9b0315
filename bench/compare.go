package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// compareMain implements "bench compare PARENT.json... CHANGE.json...":
// the first half of the files are runs of the parent, the second half runs
// of the change, paired by position. Each file is what a run of every
// workload prints; all must have run with the same -j, GOMAXPROCS, seed
// and -seconds. It exits 1 when any (workload, metric) regressed.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) < 2 || len(args)%2 != 0 {
		fmt.Fprintln(os.Stderr, "usage: bench compare PARENT.json... CHANGE.json... (equal counts, paired by position)")
		return 2
	}
	runs := make([]fullRun, len(args))
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		if err := json.Unmarshal(data, &runs[i]); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", path, err)
			return 2
		}
	}
	h0 := runs[0].Header
	for i, r := range runs {
		h := r.Header
		if h.J != h0.J || h.GOMAXPROCS != h0.GOMAXPROCS || h.Seed != h0.Seed || h.Seconds != h0.Seconds {
			fmt.Fprintf(os.Stderr, "bench compare: refusing: %s ran with -j %d, GOMAXPROCS %d, seed %d, -seconds %g; %s with -j %d, GOMAXPROCS %d, seed %d, -seconds %g\n",
				args[0], h0.J, h0.GOMAXPROCS, h0.Seed, h0.Seconds, args[i], h.J, h.GOMAXPROCS, h.Seed, h.Seconds)
			return 2
		}
	}
	half := len(runs) / 2
	rows, details, regressed := compareRuns(runs[:half], runs[half:])

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	head := []string{"workload"}
	for _, d := range endToEnd {
		head = append(head, d.Name)
	}
	fmt.Fprintln(tw, strings.Join(head, "\t"))
	for _, row := range rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(stdout)
	for _, d := range details {
		fmt.Fprintln(stdout, d)
	}
	if regressed {
		return 1
	}
	return 0
}

// compareRuns judges every (workload, end-to-end metric): one row of
// verdicts per workload, plus one line of medians per cell.
func compareRuns(parent, change []fullRun) (rows [][]string, details []string, regressed bool) {
	for _, fw := range parent[0].Workloads {
		row := []string{fw.Name}
		for _, def := range endToEnd {
			p, c := values(parent, fw.Name, def.Name), values(change, fw.Name, def.Name)
			v := "unresolved"
			if len(p) == len(parent) && len(c) == len(change) {
				v = verdict(def, p, c)
			}
			regressed = regressed || v == "regressed"
			row = append(row, v)
			q1, q3 := quartiles(p)
			details = append(details, fmt.Sprintf("%s %s: parent median %.6g [q1 %.6g, q3 %.6g], change median %.6g, change better in %d/%d pairs: %s",
				fw.Name, def.Name, median(p), q1, q3, median(c), wins(def, p, c), min(len(p), len(c)), v))
		}
		rows = append(rows, row)
	}
	return rows, details, regressed
}

// values collects one metric of one workload across runs; runs that did
// not measure it are skipped.
func values(runs []fullRun, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		for _, fw := range r.Workloads {
			if fw.Name != workload {
				continue
			}
			if mv, ok := fw.Untraced.Result.Metrics[metric]; ok && mv.Value != nil {
				out = append(out, *mv.Value)
			}
		}
	}
	return out
}

func better(def metricDef, a, b float64) bool {
	if def.Better == "higher" {
		return a > b
	}
	return a < b
}

// wins counts the pairs in which the change read better (ties count for
// neither side).
func wins(def metricDef, parent, change []float64) int {
	n := 0
	for i := range parent {
		if i < len(change) && better(def, change[i], parent[i]) {
			n++
		}
	}
	return n
}

// minPairs is the fewest pairs that can show an improvement: with fewer,
// a drift in the machine's speed between the two sets passes for a gain.
const minPairs = 10

// verdict applies the paired rule. Improved: at least minPairs pairs, the
// change wins at least nine tenths of them and the medians differ by more
// than the parent's interquartile range. Regressed: the change's median is
// worse than the parent's by more than the metric's bound. Unresolved:
// neither, but the parent's own spread is wider than the bound, unless
// every change run beats every parent run. Otherwise unchanged.
func verdict(def metricDef, parent, change []float64) string {
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	n := len(parent)
	if n >= minPairs && float64(wins(def, parent, change)) >= 0.9*float64(n) && math.Abs(cm-pm) > q3-q1 {
		return "improved"
	}
	worse := cm - pm
	if def.Better == "higher" {
		worse = pm - cm
	}
	allowed := def.Bound * math.Abs(pm)
	if worse > allowed {
		return "regressed"
	}
	if q3-q1 > allowed && !allBetter(def, parent, change) {
		return "unresolved"
	}
	return "unchanged"
}

func allBetter(def metricDef, parent, change []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(def, c, p) {
				return false
			}
		}
	}
	return true
}

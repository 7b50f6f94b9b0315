// The terminal summarizer behind `dfence trace` and /tracez: folds a
// trace's coordinator spans into a per-phase and per-round wall
// breakdown, the lane aggregates into worker utilization, and the exact
// portfolio aggregates into per-phase attribution — including the
// deferral-loop spin counts that make scheduler starvation (the
// ms2-queue × RMO pathology) measurable from the artifact alone.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// portfolioLabels mirrors core.portfolioPhase's cycle (runner.go); the
// summarizer names phases so the attribution table reads without
// cross-referencing the source.
var portfolioLabels = [maxPortfolio]string{
	0: "random",
	1: "priority",
	2: "starve",
	3: "priority+starve+eager-flush",
	4: "eager-flush+lazy-resolve+starve-loads",
	5: "priority+lazy-resolve+starve-loads",
	6: "phase 6",
	7: "phase 7",
}

func durUS(us float64) time.Duration {
	return time.Duration(us * float64(time.Microsecond)).Round(10 * time.Microsecond)
}

// Summarize renders the terminal report for one trace.
func Summarize(d *Data) string {
	var b strings.Builder

	// Wall basis: the run span when present (job span for service
	// traces), otherwise the tracer's whole lifetime.
	wallUS := d.Other.DurationUS
	for _, ev := range d.TraceEvents {
		if ev.Ph == "X" && (ev.Name == SpanRun.String() || ev.Name == SpanJob.String()) && ev.Dur > wallUS {
			wallUS = ev.Dur
		}
	}
	var dropped int64
	for _, ln := range d.Other.Lanes {
		dropped += ln.Dropped
	}
	workers := len(d.Other.Lanes) - 1
	if workers < 0 {
		workers = 0
	}
	fmt.Fprintf(&b, "trace: %s wall, %d worker lane(s), exec spans sampled 1-in-%d, %d ring event(s) dropped\n",
		durUS(wallUS), workers, d.Other.SampleEvery, dropped)

	// Per-phase wall breakdown from the coordinator's phase spans.
	type phaseSum struct {
		n  int
		us float64
	}
	phases := map[string]*phaseSum{}
	type roundSum struct {
		round              int
		us, collect, solve float64
	}
	rounds := map[int]*roundSum{}
	var instants []string
	instantCounts := map[string]int64{}
	for _, ev := range d.TraceEvents {
		switch ev.Ph {
		case "X":
			switch ev.Name {
			case SpanCollect.String(), SpanSolve.String(), SpanValidate.String():
				ps := phases[ev.Name]
				if ps == nil {
					ps = &phaseSum{}
					phases[ev.Name] = ps
				}
				ps.n++
				ps.us += ev.Dur
				if ev.Args != nil && ev.Args.Round > 0 {
					rs := rounds[ev.Args.Round]
					if rs == nil {
						rs = &roundSum{round: ev.Args.Round}
						rounds[ev.Args.Round] = rs
					}
					if ev.Name == SpanCollect.String() {
						rs.collect += ev.Dur
					} else if ev.Name == SpanSolve.String() {
						rs.solve += ev.Dur
					}
				}
			case SpanRound.String():
				if ev.Args != nil && ev.Args.Round > 0 {
					rs := rounds[ev.Args.Round]
					if rs == nil {
						rs = &roundSum{round: ev.Args.Round}
						rounds[ev.Args.Round] = rs
					}
					rs.us += ev.Dur
				}
			}
		case "i":
			instantCounts[ev.Name]++
		}
	}
	if len(phases) > 0 {
		b.WriteString("\nphase breakdown (coordinator wall):\n")
		for _, name := range []string{SpanCollect.String(), SpanSolve.String(), SpanValidate.String()} {
			ps := phases[name]
			if ps == nil {
				continue
			}
			pct := 0.0
			if wallUS > 0 {
				pct = 100 * ps.us / wallUS
			}
			fmt.Fprintf(&b, "  %-9s %3d span(s)  %10s  %5.1f%%\n", name, ps.n, durUS(ps.us), pct)
		}
	}
	if len(rounds) > 0 {
		keys := make([]int, 0, len(rounds))
		for r := range rounds {
			keys = append(keys, r)
		}
		sort.Ints(keys)
		b.WriteString("\nrounds:\n")
		for _, r := range keys {
			rs := rounds[r]
			total := rs.us
			if total == 0 {
				total = rs.collect + rs.solve
			}
			fmt.Fprintf(&b, "  round %-3d %10s  (collect %s, solve %s)\n",
				rs.round, durUS(total), durUS(rs.collect), durUS(rs.solve))
		}
	}

	// Worker utilization and portfolio attribution from the exact lane
	// aggregates.
	var total [maxPortfolio]PhaseAgg
	busyAny := false
	var util strings.Builder
	for _, ln := range d.Other.Lanes {
		if ln.Lane == 0 {
			continue
		}
		var busyNS, execs int64
		for _, a := range ln.Portfolio {
			busyNS += a.WallNS
			execs += a.Execs
			t := &total[a.Phase%maxPortfolio]
			t.Execs += a.Execs
			t.WallNS += a.WallNS
			t.Iters += a.Iters
			t.Steps += a.Steps
			t.Spins += a.Spins
		}
		if execs == 0 {
			continue
		}
		busyAny = true
		pct := 0.0
		if wallUS > 0 {
			pct = 100 * float64(busyNS) / us / wallUS
		}
		fmt.Fprintf(&util, "  %-12s %10s busy (%5.1f%%)  %d exec(s)\n",
			ln.Label, time.Duration(busyNS).Round(10*time.Microsecond), pct, execs)
	}
	if busyAny {
		b.WriteString("\nworker utilization (execution wall / trace wall):\n")
		b.WriteString(util.String())
		b.WriteString("\nportfolio attribution (exact, all lanes):\n")
		for p := range total {
			a := total[p]
			if a.Execs == 0 {
				continue
			}
			spinsPer := float64(a.Spins) / float64(a.Execs)
			spinShare := 0.0
			if a.Iters > 0 {
				spinShare = 100 * float64(a.Spins) / float64(a.Iters)
			}
			fmt.Fprintf(&b, "  phase %d %-38s %6d exec(s)  %10s  %7.0f iters/exec  %8.1f spins/exec (%4.1f%% of iters)\n",
				p, portfolioLabels[p], a.Execs,
				time.Duration(a.WallNS).Round(10*time.Microsecond),
				float64(a.Iters)/float64(a.Execs), spinsPer, spinShare)
		}
	}
	if len(instantCounts) > 0 {
		for _, name := range []string{InstantViolation.String(), InstantCheckpoint.String(), InstantCacheHit.String(), InstantSolverRestarts.String()} {
			if n := instantCounts[name]; n > 0 {
				instants = append(instants, fmt.Sprintf("%s ×%d", name, n))
			}
		}
		if len(instants) > 0 {
			fmt.Fprintf(&b, "\ninstants: %s\n", strings.Join(instants, ", "))
		}
	}
	return b.String()
}

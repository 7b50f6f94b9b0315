package telemetry

import (
	"strings"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/litmus"
	"dfence/internal/memmodel"
	"dfence/internal/sched"
)

// TestExplainWitnessRendersResolves: an RMO schedule's deferred loads
// render as issued-then-resolved, with one resolve line per recorded
// resolve, and the schedule survives the journal's trace encoding.
func TestExplainWitnessRendersResolves(t *testing.T) {
	lt, err := litmus.ByName("LB")
	if err != nil {
		t.Fatal(err)
	}
	p := lt.Program().Clone()
	ir.Optimize(p)
	for seed := int64(0); seed < 200; seed++ {
		opts := sched.Options{Seed: seed, FlushProb: 0.9, ResolveProb: 0.05, MaxSteps: 100000, PORWindow: 64}
		_, tr := sched.RunTraced(p, memmodel.RMO, nil, opts)
		resolves := 0
		for _, d := range tr.Decisions {
			if d.Resolve {
				resolves++
			}
		}
		if resolves == 0 {
			continue
		}
		txt, err := ExplainWitness(p, TraceFrom(TraceOf(tr), memmodel.RMO), ExplainOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(txt, "DEFERRED") {
			t.Errorf("seed %d: no deferred load rendered:\n%s", seed, txt)
		}
		if got := strings.Count(txt, "\u27f2 resolve load") - strings.Count(txt, "forced by a dependent instruction"); got != resolves {
			t.Errorf("seed %d: %d scheduled resolve lines, trace records %d:\n%s", seed, got, resolves, txt)
		}
		return
	}
	t.Fatal("no seed scheduled a resolve")
}

package sched_test

import (
	"testing"

	"dfence/internal/ir"
	"dfence/internal/litmus"
	"dfence/internal/memmodel"
	"dfence/internal/proggen"
	"dfence/internal/progs"
	"dfence/internal/sched"
)

// TestRunTracedRecordsEveryStep runs the litmus suite, the benchmarks and
// the first 60 programs of the seed-1 fuzz corpus under every model, with
// and without the load-starvation vow, and checks that each trace holds
// exactly Result.Steps transitions — a partial-order-reduction window is
// recorded as the number of steps it ran — and that replaying the trace
// reproduces the execution's violation and, unless the step budget cut
// it (a replay drains what is left), its step count.
func TestRunTracedRecordsEveryStep(t *testing.T) {
	var names []string
	var programs []*ir.Program
	for _, lt := range litmus.All() {
		names, programs = append(names, "litmus "+lt.Name), append(programs, lt.Program())
	}
	for _, b := range progs.All() {
		names, programs = append(names, b.Name), append(programs, b.Program())
	}
	for i, p := range proggen.Corpus(1, 60) {
		prog, err := p.Compile()
		if err != nil {
			t.Fatalf("corpus[%d] %s: %v", i, p.Name, err)
		}
		names, programs = append(names, p.Name), append(programs, prog)
	}
	bursts := 0
	for i, prog := range programs {
		for _, model := range memmodel.Models() {
			for _, starveLoads := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					opts := sched.DefaultOptions(seed)
					opts.StarveLoads = starveLoads
					opts.MaxSteps = 5000
					res, tr := sched.RunTraced(prog, model, nil, opts)
					steps := 0
					for _, d := range tr.Decisions {
						steps += d.Steps
						if d.Steps > opts.PORWindow+1 {
							bursts++
						}
					}
					if steps != res.Steps {
						t.Fatalf("%s/%v starveLoads=%v seed %d: trace holds %d transitions, the execution took %d",
							names[i], model, starveLoads, seed, steps, res.Steps)
					}
					replayed, ok := sched.Replay(prog, nil, tr)
					if !ok || (replayed.Violation == nil) != (res.Violation == nil) ||
						!res.StepLimitHit && replayed.Steps != res.Steps {
						t.Fatalf("%s/%v starveLoads=%v seed %d: replay gave %d steps (violation %v, ok %v), the execution %d (violation %v)",
							names[i], model, starveLoads, seed, replayed.Steps, replayed.Violation, ok, res.Steps, res.Violation)
					}
				}
			}
		}
	}
	if bursts == 0 {
		t.Error("no decision merged consecutive windows of one thread: the traces never exercised merging")
	}
}

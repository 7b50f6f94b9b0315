package interp_test

import (
	"bytes"
	"math/rand"
	"testing"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/litmus"
	"dfence/internal/memmodel"
	"dfence/internal/proggen"
	"dfence/internal/progs"
)

// referenceWindow is the partial-order-reduction loop RunLocal replaces:
// one StepThread, then further StepThread calls while the last step was
// local, at most window of them, each preceded by the violation,
// step-budget, CanExec and (with guard) NextForcesResolve checks.
func referenceWindow(m *interp.Machine, tid, window, maxSteps int, guard bool) (int, interp.StepKind) {
	kind := m.StepThread(tid)
	n := 1
	for local := 0; kind == interp.StepLocal && local < window; local++ {
		if m.Violation() != nil || m.Steps() >= maxSteps || !m.CanExec(tid) {
			break
		}
		if guard && m.NextForcesResolve(tid) {
			break
		}
		kind = m.StepThread(tid)
		n++
	}
	return n, kind
}

// runLocalPrograms is the program set the RunLocal reference test walks:
// the litmus suite, the benchmarks and the first 60 programs of the
// seed-1 fuzz corpus.
func runLocalPrograms(t *testing.T) (names []string, out []*ir.Program) {
	t.Helper()
	for _, lt := range litmus.All() {
		names, out = append(names, "litmus "+lt.Name), append(out, lt.Program())
	}
	for _, b := range progs.All() {
		names, out = append(names, b.Name), append(out, b.Program())
	}
	for i, p := range proggen.Corpus(1, 60) {
		prog, err := p.Compile()
		if err != nil {
			t.Fatalf("corpus[%d] %s: %v", i, p.Name, err)
		}
		names, out = append(names, p.Name), append(out, prog)
	}
	return names, out
}

// TestRunLocalMatchesReferenceLoop walks random schedules on two machines
// in lockstep. Each execution pick runs RunLocal on one machine and
// referenceWindow on the other, with a random window and, now and then, a
// step budget a few steps ahead; flushes and resolves apply to both. After
// every pick the two must agree on the number of transitions, the last
// step kind, the step count and the state key.
func TestRunLocalMatchesReferenceLoop(t *testing.T) {
	const walks, picks = 2, 300
	windows := []int{0, 1, 3, 64}
	var fast, ref interp.Machine
	var trs []transition
	var long, capped, budgetStops, guardStops int
	names, programs := runLocalPrograms(t)
	for i, prog := range programs {
		name, c := names[i], interp.Compile(prog)
		for _, model := range memmodel.Models() {
			for _, guard := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(i)*8 + int64(model)*2 + int64(len(name))))
				for w := 0; w < walks; w++ {
					fast.Reset(c, model, nil)
					ref.Reset(c, model, nil)
					for pick := 0; pick < picks && !fast.Done(); pick++ {
						trs = transitions(&fast, trs[:0])
						if len(trs) == 0 {
							break // deadlock
						}
						tr := trs[rng.Intn(len(trs))]
						if tr.flush || tr.resolve {
							tr.apply(&fast)
							tr.apply(&ref)
						} else {
							window := windows[rng.Intn(len(windows))]
							maxSteps := 1 << 30
							if rng.Intn(4) == 0 {
								maxSteps = fast.Steps() + 1 + rng.Intn(8)
							}
							gotN, gotKind := fast.RunLocal(tr.tid, window, maxSteps, guard)
							wantN, wantKind := referenceWindow(&ref, tr.tid, window, maxSteps, guard)
							if gotN != wantN || gotKind != wantKind {
								t.Fatalf("%s/%v guard=%v walk %d pick %d: RunLocal(t%d, %d, %d) = (%d, %v), reference loop (%d, %v)",
									name, model, guard, w, pick, tr.tid, window, maxSteps, gotN, gotKind, wantN, wantKind)
							}
							switch {
							case gotKind != interp.StepLocal || ref.Violation() != nil || !ref.CanExec(tr.tid):
							case gotN == window+1:
								capped++
							case ref.Steps() >= maxSteps:
								budgetStops++
							case guard && ref.NextForcesResolve(tr.tid):
								guardStops++
							}
							if gotN > 2 {
								long++
							}
						}
						if fast.Steps() != ref.Steps() || !bytes.Equal(stateKey(&fast), stateKey(&ref)) {
							t.Fatalf("%s/%v guard=%v walk %d pick %d: %+v left RunLocal's machine in another state than the reference loop's",
								name, model, guard, w, pick, tr)
						}
					}
				}
			}
		}
	}
	// The walks must reach every way a window can stop while its last
	// step was local.
	if long == 0 || capped == 0 || budgetStops == 0 || guardStops == 0 {
		t.Errorf("walks ran %d windows over 2 steps and stopped %d local windows at the window cap, %d at the step budget, "+
			"%d at the load-starvation guard: want all > 0", long, capped, budgetStops, guardStops)
	}
}

package sched

import (
	"context"
	"testing"
	"time"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

// countObs is a trivial observer used to check per-worker ownership.
type countObs struct{ id int }

func (*countObs) OnSharedAccess(thread int, label ir.Label, kind interp.AccessKind, addr int64, pending []interp.PendingStore) {
}

// batchOutcome is what the RunBatch tests record per execution.
type batchOutcome struct {
	steps  int
	output []int64
}

func batchOptsFor(i int) Options {
	opts := DefaultOptions(int64(i))
	opts.FlushProb = 0.3
	return opts
}

// TestRunBatchMatchesSerial: the same n executions produce identical
// per-slot results for any worker count — the bit-identity claim the
// synthesis loop relies on.
func TestRunBatchMatchesSerial(t *testing.T) {
	p := buildSB(t)
	run := func(workers int) []batchOutcome {
		return RunBatch(context.Background(), p, memmodel.PSO, 64, workers, nil, batchOptsFor,
			func(i, _ int, _ interp.Observer, res *interp.Result, err *ExecError) (batchOutcome, bool) {
				if err != nil {
					t.Errorf("slot %d: unexpected exec error: %v", i, err)
					return batchOutcome{}, false
				}
				// res.Output aliases the pooled worker machine (see the
				// worker-ownership invariant); copy before retaining.
				return batchOutcome{steps: res.Steps, output: append([]int64(nil), res.Output...)}, false
			})
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 8} {
		parallel := run(workers)
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d slots, want %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if serial[i].steps != parallel[i].steps {
				t.Fatalf("workers=%d slot %d: steps %d != serial %d", workers, i, parallel[i].steps, serial[i].steps)
			}
			if len(serial[i].output) != len(parallel[i].output) {
				t.Fatalf("workers=%d slot %d: output length differs", workers, i)
			}
			for j := range serial[i].output {
				if serial[i].output[j] != parallel[i].output[j] {
					t.Fatalf("workers=%d slot %d: output[%d] %d != serial %d",
						workers, i, j, parallel[i].output[j], serial[i].output[j])
				}
			}
		}
	}
}

// TestRunBatchEarlyStop: a stop verdict cancels the batch. With one
// worker the cut is exact; with many workers the stopping slot must still
// be filled and the batch must terminate.
func TestRunBatchEarlyStop(t *testing.T) {
	p := buildSB(t)
	const stopAt = 5
	serial := RunBatch(context.Background(), p, memmodel.PSO, 32, 1, nil, batchOptsFor,
		func(i, _ int, _ interp.Observer, res *interp.Result, err *ExecError) (bool, bool) {
			return true, i == stopAt
		})
	for i, ran := range serial {
		if want := i <= stopAt; ran != want {
			t.Fatalf("serial early stop: slot %d ran=%v, want %v", i, ran, want)
		}
	}
	parallel := RunBatch(context.Background(), p, memmodel.PSO, 32, 4, nil, batchOptsFor,
		func(i, _ int, _ interp.Observer, res *interp.Result, err *ExecError) (bool, bool) {
			return true, i == stopAt
		})
	if !parallel[stopAt] {
		t.Fatal("parallel early stop: stopping slot was not recorded")
	}
}

// TestRunBatchCancelledContext: a pre-cancelled context runs nothing.
func TestRunBatchCancelledContext(t *testing.T) {
	p := buildSB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := RunBatch(ctx, p, memmodel.PSO, 16, workers, nil, batchOptsFor,
			func(i, _ int, _ interp.Observer, res *interp.Result, err *ExecError) (bool, bool) {
				return true, false
			})
		for i, r := range ran {
			if r {
				t.Fatalf("workers=%d: slot %d ran under a cancelled context", workers, i)
			}
		}
	}
}

// TestRunBatchObserverPerWorker: every worker gets its own observer and
// reduce receives the observer of the worker that ran the execution.
func TestRunBatchObserverPerWorker(t *testing.T) {
	p := buildSB(t)
	made := make(chan int, 16)
	RunBatch(context.Background(), p, memmodel.PSO, 16, 4,
		func(w int) interp.Observer { made <- w; return &countObs{id: w} },
		batchOptsFor,
		func(i, _ int, obs interp.Observer, res *interp.Result, err *ExecError) (struct{}, bool) {
			if _, ok := obs.(*countObs); !ok {
				t.Errorf("slot %d: reduce got observer %T, want *countObs", i, obs)
			}
			return struct{}{}, false
		})
	close(made)
	seen := map[int]bool{}
	for w := range made {
		if seen[w] {
			t.Fatalf("worker %d got two observers", w)
		}
		seen[w] = true
	}
	if len(seen) == 0 {
		t.Fatal("no observers constructed")
	}
}

// panicObs panics on the nth shared access it sees.
type panicObs struct{ n, seen int }

func (o *panicObs) OnSharedAccess(thread int, label ir.Label, kind interp.AccessKind, addr int64, pending []interp.PendingStore) {
	o.seen++
	if o.seen >= o.n {
		panic("injected observer panic")
	}
}

// TestRunBatchPanicIsolation is the containment guarantee: an injected
// panic in slot i is recovered into a structured ExecError naming the
// execution's index and seed, and every other slot is bit-identical to a
// serial run without the fault.
func TestRunBatchPanicIsolation(t *testing.T) {
	p := buildSB(t)
	const n, poisoned = 48, 17
	// FlushProb 0 keeps both stores buffered until each thread's load, so
	// every execution performs exactly two observed shared accesses and the
	// injected panic (on the second) fires deterministically.
	optsFor := func(i int) Options {
		opts := batchOptsFor(i)
		opts.FlushProb = 0
		return opts
	}
	clean := RunBatch(context.Background(), p, memmodel.PSO, n, 1, nil, optsFor,
		func(i, _ int, _ interp.Observer, res *interp.Result, err *ExecError) (batchOutcome, bool) {
			if err != nil {
				t.Fatalf("clean run: slot %d errored: %v", i, err)
			}
			// res.Output aliases the pooled worker machine (see the
			// worker-ownership invariant); copy before retaining.
			return batchOutcome{steps: res.Steps, output: append([]int64(nil), res.Output...)}, false
		})
	faultyOptsFor := func(i int) Options {
		opts := optsFor(i)
		if i == poisoned {
			opts.Wrap = func(obs interp.Observer) interp.Observer { return &panicObs{n: 2} }
		}
		return opts
	}
	for _, workers := range []int{1, 4, 8} {
		var gotErr *ExecError
		faulty := RunBatch(context.Background(), p, memmodel.PSO, n, workers, nil, faultyOptsFor,
			func(i, _ int, _ interp.Observer, res *interp.Result, err *ExecError) (batchOutcome, bool) {
				if err != nil {
					if i != poisoned {
						t.Errorf("workers=%d: unexpected error in slot %d: %v", workers, i, err)
					}
					gotErr = err
					return batchOutcome{}, false
				}
				// res.Output aliases the pooled worker machine (see the
				// worker-ownership invariant); copy before retaining.
				return batchOutcome{steps: res.Steps, output: append([]int64(nil), res.Output...)}, false
			})
		if gotErr == nil {
			t.Fatalf("workers=%d: injected panic was not reported", workers)
		}
		if gotErr.Index != poisoned || gotErr.Seed != batchOptsFor(poisoned).Seed {
			t.Errorf("workers=%d: ExecError names index %d seed %d, want %d/%d",
				workers, gotErr.Index, gotErr.Seed, poisoned, batchOptsFor(poisoned).Seed)
		}
		if gotErr.Panic != "injected observer panic" || gotErr.Stack == "" {
			t.Errorf("workers=%d: ExecError payload incomplete: panic=%v stackLen=%d",
				workers, gotErr.Panic, len(gotErr.Stack))
		}
		for i := range clean {
			if i == poisoned {
				continue
			}
			if clean[i].steps != faulty[i].steps || len(clean[i].output) != len(faulty[i].output) {
				t.Fatalf("workers=%d: slot %d diverged from serial clean run", workers, i)
			}
			for j := range clean[i].output {
				if clean[i].output[j] != faulty[i].output[j] {
					t.Fatalf("workers=%d: slot %d output diverged from serial clean run", workers, i)
				}
			}
		}
	}
}

// TestRunSafeRecoversPanic: the serial entry point reports the panic too.
func TestRunSafeRecoversPanic(t *testing.T) {
	p := buildSB(t)
	opts := batchOptsFor(7)
	opts.Wrap = func(obs interp.Observer) interp.Observer { return &panicObs{n: 1} }
	res, err := RunSafe(p, memmodel.PSO, nil, opts)
	if err == nil || res != nil {
		t.Fatalf("RunSafe did not report the panic: res=%v err=%v", res, err)
	}
	if err.Seed != opts.Seed || err.Index != -1 || err.Round != -1 {
		t.Errorf("ExecError = %+v, want seed %d and -1 round/index", err, opts.Seed)
	}
	if err.Error() == "" {
		t.Error("ExecError.Error is empty")
	}
	// Without the fault the same options succeed.
	opts.Wrap = nil
	res, err = RunSafe(p, memmodel.PSO, nil, opts)
	if err != nil || res == nil {
		t.Fatalf("clean RunSafe failed: res=%v err=%v", res, err)
	}
}

// TestRunTimeout: an infinite loop with a tiny wall-clock budget stops and
// reports TimedOut instead of spinning until the step limit.
func TestRunTimeout(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewFuncBuilder(p, "main", 0)
	head := b.NextLabel()
	b.Br(head)
	finish(t, b)
	mustLink(t, p)
	opts := DefaultOptions(1)
	opts.MaxSteps = 1 << 30 // effectively unbounded: the timeout must cut first
	opts.Timeout = time.Millisecond
	res := Run(p, memmodel.TSO, nil, opts)
	if !res.TimedOut {
		t.Fatal("execution did not report TimedOut")
	}
	if res.StepLimitHit || res.Violation != nil {
		t.Fatalf("timeout misclassified: stepLimit=%v violation=%v", res.StepLimitHit, res.Violation)
	}
}

// Batch execution: the worker-pool engine that fans a block of
// independent, seed-determined executions across OS threads. DFENCE's
// synthesis loop (Algorithm 1) gathers K executions per repair round; each
// execution is fully determined by its sched.Options (in particular the
// seed) and only reads the shared compiled program — so a round
// parallelizes embarrassingly. The engine preserves the serial semantics
// exactly: execution i always runs with optsFor(i), results land in slot i
// of the returned slice, and callers merge slots in index order, making
// the outcome bit-identical for any worker count.
//
// # Worker-ownership invariant
//
// Everything mutable in the hot path is owned by exactly one worker
// goroutine for the lifetime of the batch and reused across the
// executions that worker performs:
//
//   - the interp.Machine (with its pooled memory image, thread/frame/
//     register pools, history, and scratch buffers), Reset — not
//     reallocated — between executions;
//   - the rand.Rand, re-seeded — not reconstructed — per execution
//     (re-seeding restarts the exact stream a fresh Source would produce,
//     so pooling cannot perturb schedules);
//   - the scheduler's scratch slices (enabled-thread list, priorities);
//   - the observer obtained from newObs(worker).
//
// Nothing owned by one worker is ever touched by another, which is what
// makes the steady-state hot path allocation-free without locks. The cost
// is a lifetime rule: the *interp.Result handed to reduce (and its
// History/Output slices) aliases the worker's machine and is valid ONLY
// for the duration of that reduce call — the worker Resets the machine for
// its next execution as soon as reduce returns. Reducers must extract what
// they need (judge the run, drain the collector, copy events) before
// returning; retaining res is a bug the -race corpus tests catch.
//
// The one-shot entry points (Run, RunSafe, RunTraced) construct a private
// worker per call and discard it, so their Results have no aliasing hazard
// and the pre-pooling contract is preserved for external callers.
package sched

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

// RunBatch executes n independent runs of prog across workers goroutines
// (workers <= 0 selects runtime.NumCPU; workers == 1 runs serially on the
// calling goroutine). It compiles prog once and delegates to
// RunBatchCompiled; callers that already hold a Compiled (or need a
// watched compile for the execution cache) use RunBatchCompiled directly.
//
// The shared prog must not be mutated while the batch runs. Interpretation
// never writes to it (every worker's interp.Machine owns its memory
// image), which is what makes the fan-out safe — see the -race tests in
// internal/core.
func RunBatch[T any](ctx context.Context, prog *ir.Program, model memmodel.Model, n, workers int,
	newObs func(worker int) interp.Observer,
	optsFor func(i int) Options,
	reduce func(i, worker int, obs interp.Observer, res *interp.Result, err *ExecError) (T, bool),
) []T {
	return RunBatchCompiled(ctx, interp.Compile(prog), model, n, workers, newObs, optsFor, reduce)
}

// RunBatchCompiled is RunBatch over an already-compiled program. Execution
// i runs with optsFor(i). Each worker owns one observer from newObs (nil
// newObs means no observation) and one pooled interp.Machine; both are
// reused for every execution the worker performs, so reduce must
// drain/reset any per-execution observer state — and must not retain res,
// which aliases the worker's machine — before returning (see the
// worker-ownership invariant in the package comment).
//
// Panic isolation: every execution runs under recover. A panic in the
// interpreter or an observer does not kill the batch (or the process) —
// reduce is invoked for that slot with res == nil and a structured
// *ExecError carrying the execution's index, seed, panic value, and stack,
// so one poisoned seed is reported while the remaining slots complete
// normally. Exactly one of res/err is non-nil. The panicked worker's
// machine is Reset before its next execution, which re-arms it from any
// intermediate state.
//
// reduce is called once per execution, from the worker goroutine that ran
// it, and receives that worker's index (0 <= worker < workers) so callers
// can maintain per-worker reducer state (e.g. the core verdict cache)
// without locks; calls are concurrent across workers but slot i is written
// by exactly one worker, so reduce must only touch the observer it was
// handed, its own worker-indexed state, and the values it returns. Its T
// result is stored at out[i]. Returning stop=true ends the batch: no
// worker starts another execution (unstarted slots keep T's zero value,
// and reduce is never called for them), but executions already in flight
// run to completion and are reduced. Slots are started in index order, so
// every slot below a stopping slot is reduced from a complete execution,
// as in the serial run. The surrounding ctx cancels the batch externally;
// an execution in flight when it dies stops at its next budget check and
// reports TimedOut.
func RunBatchCompiled[T any](ctx context.Context, c *interp.Compiled, model memmodel.Model, n, workers int,
	newObs func(worker int) interp.Observer,
	optsFor func(i int) Options,
	reduce func(i, worker int, obs interp.Observer, res *interp.Result, err *ExecError) (T, bool),
) []T {
	out := make([]T, n)
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	obsFor := func(w int) interp.Observer {
		if newObs == nil {
			return nil
		}
		return newObs(w)
	}
	exec := func(st *worker, w, i int, obs interp.Observer) (T, bool) {
		opts := optsFor(i)
		opts.traceLane = w + 1 // lane 0 is the coordinator
		res, err := st.runSafe(ctx, c, model, obs, opts)
		if err != nil {
			err.Index = i
		}
		return reduce(i, w, obs, res, err)
	}
	if workers <= 1 {
		// Label the serial path too, so CPU profiles separate execution
		// time from solve/check phases regardless of worker count.
		pprof.Do(ctx, pprof.Labels("dfence_phase", "execute", "dfence_worker", "0"), func(ctx context.Context) {
			var st worker
			obs := obsFor(0)
			for i := 0; i < n; i++ {
				if ctx.Err() != nil {
					break
				}
				t, stop := exec(&st, 0, i, obs)
				out[i] = t
				if stop {
					break
				}
			}
		})
		return out
	}

	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker pprof labels: samples attribute to the batch
			// execution phase and to the individual worker goroutine.
			pprof.Do(ctx, pprof.Labels("dfence_phase", "execute", "dfence_worker", strconv.Itoa(w)), func(ctx context.Context) {
				var st worker
				obs := obsFor(w)
				for ctx.Err() == nil && !stopped.Load() {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					t, stop := exec(&st, w, i, obs)
					out[i] = t
					if stop {
						stopped.Store(true)
						return
					}
				}
			})
		}(w)
	}
	wg.Wait()
	return out
}

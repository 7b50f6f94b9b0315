// Package sched implements DFENCE's flush-delaying demonic scheduler
// (paper §5.2). At every step it picks an enabled thread at random; if the
// chosen thread has pending buffered stores, a coin weighted by the flush
// probability decides between flushing one store to main memory and letting
// the thread execute its next instruction. Small flush probabilities keep
// stores buffered longer, which is what exposes relaxed-memory violations;
// large ones make the execution look sequentially consistent.
//
// The scheduler also applies the paper's partial-order reduction: a thread
// that keeps accessing only its registers is not context-switched. The
// window is bounded by PORWindow so that local infinite loops still
// yield: a pick runs one transition and at most
// PORWindow more, each only while the one before it was local, so up to
// PORWindow+1 local steps can follow one scheduling decision.
package sched

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/trace"
)

// Strategy selects how the demonic scheduler picks among enabled threads.
type Strategy uint8

const (
	// Random picks uniformly at random each step — the paper's scheduler.
	Random Strategy = iota
	// Priority is a PCT-style scheduler (the paper's "more advanced
	// demonic schedulers" future work): every thread carries a random
	// priority, the highest-priority enabled thread always runs, and at
	// random change points the running thread's priority is demoted. Long
	// uninterrupted windows plus rare, adversarial preemptions expose a
	// different class of interleavings than uniform choice.
	Priority
)

// changePoints is the Priority strategy's expected number of priority
// demotions per 1000 steps.
const changePoints = 30

func (s Strategy) String() string {
	switch s {
	case Random:
		return "random"
	case Priority:
		return "priority"
	}
	return "strategy(?)"
}

// Options configures one execution.
type Options struct {
	// Seed drives the pseudo-random choices; equal seeds give identical
	// executions.
	Seed int64
	// Strategy selects the thread-choice discipline (default Random).
	Strategy Strategy
	// FlushProb is the probability that a thread with pending buffered
	// stores flushes one instead of executing (paper §6.5: ~0.1 for TSO,
	// ~0.5 for PSO).
	FlushProb float64
	// ResolveProb is the probability that a thread with deferred loads
	// (load-deferring models such as RMO) resolves one — at a uniformly
	// random queue position, which is what realizes load-load/load-store
	// reordering — instead of executing. 0 means "use FlushProb", keeping
	// the two delay disciplines aligned by default.
	ResolveProb float64
	// MaxSteps bounds the execution; runs that exceed it are reported with
	// StepLimitHit and treated as inconclusive.
	MaxSteps int
	// PORWindow bounds the steps a picked thread takes after the picked
	// one without a scheduling decision: each further step runs only
	// while the step before it was local, so a pick runs at most
	// PORWindow+1 steps, all of them local except possibly the last. 0
	// disables partial-order reduction.
	PORWindow int
	// Starve enables the starvation discipline: the first buffered store
	// the scheduler is asked to flush names a per-execution victim
	// (thread, variable) whose buffer entries are never flushed
	// voluntarily afterwards — only a fence, a CAS, or global lack of
	// progress forces them out. Under the plain coin a store survives k
	// flush opportunities with probability (1-FlushProb)^k, so witnesses
	// that need one store to land very late (2+2W-style write cycles,
	// where a finished thread's buffered store must outlive another
	// thread's whole run) are exponentially unlikely; the vow makes the
	// maximal delay of one store a certainty per execution. Victim choice
	// is seed-deterministic.
	Starve bool
	// StarveLoads enables the load-starvation discipline (meaningful only
	// under load-deferring models): the first thread the scheduler picks
	// whose next instruction would force-resolve a pending deferred load
	// names a per-execution victim; the victim is not executed while
	// another thread can make real progress — it may still flush and
	// resolve by coin, but its dependent instruction waits. This is the
	// load-class analogue of Starve. A deferred load's window typically
	// ends one instruction after it opens (the loaded register is used
	// almost immediately, which force-resolves), so witnesses that need
	// one thread's load to out-defer another thread's entire run
	// (one-sided load-buffering residuals) require the scheduler to avoid
	// the deferring thread for the whole window — exponentially unlikely
	// under uniform picks; the vow makes it a certainty. A single victim,
	// not all deferring threads: vowing everyone blocks every thread's
	// progress at once and the witness's ordering dissolves into coin
	// noise. Victim choice is seed-deterministic, and the vow is released
	// (and re-chooseable) once the victim's deferred queue drains.
	// Liveness is preserved: the vow yields when no other thread can
	// execute, and it expires for good vowLifetime machine steps after it
	// was sworn, like Starve's. Starve wins when both are set.
	StarveLoads bool
	// MaxIters bounds scheduler-loop iterations (0 = none): a safety net.
	// MaxSteps only counts machine steps, and a deferral spin advances
	// none; the vows' lifetime ends the delay disciplines' spins, and
	// MaxIters cuts any other runaway schedule, deterministically: a run
	// that exceeds it stops with StepLimitHit set (inconclusive),
	// identically on every machine.
	MaxIters int
	// Portfolio tags this execution with its scheduler-portfolio phase
	// (core.portfolioPhase's cycle index) for trace attribution. Purely
	// observational.
	Portfolio uint8
	// Tracer, if non-nil, receives one ExecDone per execution (exact
	// per-portfolio aggregates plus sampled exec spans) on lane traceLane.
	// Purely observational: results are bit-identical with or without it.
	Tracer *trace.Tracer
	// traceLane is the Tracer lane this execution reports to; batch
	// runners set it to worker+1 (lane 0 is the coordinator).
	traceLane int
	// Wrap, if non-nil, wraps the observer for this execution only. It is
	// invoked once per run with the caller's observer (possibly nil) and
	// its result receives the execution's notifications. This is the
	// per-execution hook the fault-injection harness uses; batch callers
	// can set it from optsFor(i) to target individual executions while
	// workers keep reusing their own observers.
	Wrap func(obs interp.Observer) interp.Observer
}

// budgetCheckEvery is how many scheduler iterations pass between context
// checks, so a cancellation is noticed within ~1024 iterations —
// not machine steps: a deferral spin (a pick that neither executes,
// flushes, nor resolves) advances no step at all, and the load-starving
// portfolio phases can spin for long stretches. The check also runs once at
// iteration 0, so an already-cancelled context cuts even
// executions far shorter than the check interval.
const budgetCheckEvery = 1024

// ExecError describes a panic recovered from one execution: the interpreter
// (or an observer) panicked, the worker recovered, and the batch reports the
// poisoned execution instead of crashing the process. The seed makes the
// failure reproducible with sched.Run under the same program and options.
type ExecError struct {
	// Round is the synthesis repair round, filled by the core loop
	// (-1 when the execution was not part of a synthesis round).
	Round int
	// Index is the execution's index within its batch (-1 outside batches).
	Index int
	// Seed is the execution's scheduler seed.
	Seed int64
	// Panic is the recovered panic value.
	Panic any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("execution panicked (round %d, index %d, seed %d): %v", e.Round, e.Index, e.Seed, e.Panic)
}

// DefaultOptions returns the settings used throughout the evaluation:
// flush probability 0.5 (the paper's PSO sweet spot), a generous step
// budget, and POR enabled.
func DefaultOptions(seed int64) Options {
	return Options{Seed: seed, FlushProb: 0.5, MaxSteps: 200000, PORWindow: 64}
}

// worker is the reusable per-execution state of one scheduler goroutine:
// the pooled interpreter machine, the RNG (re-seeded per execution, never
// re-allocated), and the scratch slices of the scheduling loop. A worker
// is owned by exactly one goroutine — see the worker-ownership invariant
// in the package comment of batch.go. The zero worker is ready to use.
type worker struct {
	m          interp.Machine
	rng        schedRNG
	actable    []int
	census     []uint8
	priorities []float64
	// vow is the current execution's starvation vow (Options.Starve or
	// Options.StarveLoads). Reset per run.
	vow vow
}

// vow is a starvation vow: its victim (thread tid; for a store vow also
// the held-back variable addr), the machine step at which it was sworn,
// and whether it is spent — reached vowLifetime, after which no vow is
// sworn again in that execution.
type vow struct {
	sworn, spent bool
	tid, at      int
	addr         int64
}

// expire spends v once it has been sworn for vowLifetime machine steps,
// and reports whether v is spent.
func (v *vow) expire(steps int) bool {
	if v.sworn && steps-v.at >= vowLifetime {
		*v = vow{spent: true}
	}
	return v.spent
}

// Run executes prog once under the given memory model and scheduling
// options. obs may be nil. The returned result carries the violation (if
// any), the operation history, and bookkeeping. A panic in the interpreter
// or an observer propagates; use RunSafe where isolation is required.
// Run compiles prog on the spot and discards the machine afterwards, so
// its Result has no aliasing hazard; batch callers use RunBatch, which
// compiles once and pools machines across executions.
func Run(prog *ir.Program, model memmodel.Model, obs interp.Observer, opts Options) *interp.Result {
	var w worker
	return w.run(context.Background(), interp.Compile(prog), model, obs, opts, nil)
}

// RunSafe is Run with panic isolation: a panic anywhere in the execution
// (interpreter, memory model, or observer) is recovered and returned as a
// structured *ExecError (with Round/Index -1; batch callers fill them)
// instead of crashing the caller. res is nil exactly when err is non-nil.
func RunSafe(prog *ir.Program, model memmodel.Model, obs interp.Observer, opts Options) (res *interp.Result, err *ExecError) {
	var w worker
	return w.runSafe(context.Background(), interp.Compile(prog), model, obs, opts)
}

func (w *worker) runSafe(ctx context.Context, c *interp.Compiled, model memmodel.Model, obs interp.Observer, opts Options) (res *interp.Result, err *ExecError) {
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = &ExecError{Round: -1, Index: -1, Seed: opts.Seed, Panic: p, Stack: string(debug.Stack())}
		}
	}()
	if opts.Tracer == nil {
		// Disabled hot path: no clock reads, no extra branches inside run.
		return w.run(ctx, c, model, obs, opts, nil), nil
	}
	start := time.Now()
	r := w.run(ctx, c, model, obs, opts, nil)
	opts.Tracer.ExecDone(opts.traceLane, opts.Portfolio, time.Since(start), r.SchedIters, r.Steps, r.SchedSpins, opts.Seed)
	return r, nil
}

func (w *worker) run(ctx context.Context, c *interp.Compiled, model memmodel.Model, obs interp.Observer, opts Options, tr *Trace) *interp.Result {
	if opts.Wrap != nil {
		obs = opts.Wrap(obs)
	}
	m := &w.m
	m.Reset(c, model, obs)
	// Re-seeding restarts the exact stream a fresh generator would
	// produce (schedRNG's state is a pure function of the seed), so
	// worker reuse cannot perturb the schedule.
	w.rng.Seed(opts.Seed)
	rng := &w.rng
	w.vow = vow{}
	opts.StarveLoads = opts.StarveLoads && !opts.Starve // one vow per execution
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 200000
	}
	resolveProb := opts.ResolveProb
	if resolveProb == 0 {
		resolveProb = opts.FlushProb
	}
	priorities := w.priorities[:0]
	defer func() { w.priorities = priorities[:0] }()

	actable := w.actable[:0]
	census := w.census
	defer func() { w.actable = actable[:0]; w.census = census }()
	// refresh tracks how much of the census the machine's last mutation
	// could have invalidated. Deferral iterations whose coins all came up
	// tails change only RNG and priority state, so the previous census
	// (actable, anyExec — and the done/deadlock verdicts it implies) is
	// still exact and no rescan runs. A mutation confined to one thread
	// (flush, resolve, non-fork step) re-derives that thread's byte only;
	// the full O(threads) frame-and-queue walk happens just when a fork
	// changed the thread count or a thread became drained-finished (the
	// one transition that can flip other threads' join readiness). The
	// census values are pure derived state, so the rebuilt actable set —
	// and hence the RNG-driven schedule — is bit-identical to a full
	// rescan every iteration.
	const (
		refreshNone = iota
		refreshThread
		refreshAll
	)
	refresh, refreshTid := refreshAll, 0
	var anyExec bool
	maxIters := opts.MaxIters
	if maxIters <= 0 {
		maxIters = math.MaxInt
	}
	// iter counts scheduler-loop iterations (steps + deferrals); spins
	// counts just the iterations that deferred without acting. Both land in
	// the Result at every return below — observational bookkeeping the
	// tracer and the MaxIters budget share.
	iter, spins := 0, 0
	for ; m.Steps() < maxSteps && iter < maxIters; iter++ {
		if iter%budgetCheckEvery == 0 {
			if ctx.Err() != nil {
				res := m.Result(false)
				res.TimedOut = true
				res.SchedIters, res.SchedSpins = iter, spins
				return res
			}
		}
		if refresh != refreshNone {
			if m.Violation() != nil {
				res := m.Result(false)
				res.SchedIters, res.SchedSpins = iter, spins
				return res
			}
			if refresh == refreshThread && m.NumThreads() == len(census) {
				m.SchedCensusOne(census, refreshTid)
				if census[refreshTid] == interp.CensusFinished {
					refresh = refreshAll // newly joinable: others may wake
				}
			} else {
				refresh = refreshAll // fork grew the thread set
			}
			if refresh == refreshAll {
				census = m.SchedCensus(census[:0])
			}
			actable = actable[:0]
			anyExec = false
			done := true
			for tid, f := range census {
				if f&interp.CensusActable != 0 {
					actable = append(actable, tid)
					anyExec = anyExec || f&interp.CensusExec != 0
					done = false
				} else if f&interp.CensusFinished == 0 {
					done = false // alive but join-blocked: not done, not actable
				}
			}
			if done {
				res := m.Result(false)
				res.SchedIters, res.SchedSpins = iter, spins
				return res
			}
			if len(actable) == 0 {
				res := m.Result(false)
				res.Violation = &interp.Violation{
					Kind:  interp.VDeadlock,
					Label: ir.NoLabel,
					Msg:   "no thread can make progress",
				}
				res.SchedIters, res.SchedSpins = iter, spins
				return res
			}
			refresh = refreshNone
		}
		n := m.NumThreads()
		var tid int
		switch opts.Strategy {
		case Priority:
			for len(priorities) < n {
				priorities = append(priorities, rng.Float64())
			}
			tid = actable[0]
			for _, cand := range actable[1:] {
				if priorities[cand] > priorities[tid] {
					tid = cand
				}
			}
			// Random change point: demote the chosen thread below everyone.
			if rng.Intn(1000) < changePoints {
				priorities[tid] = rng.Float64() * priorities[lowest(priorities)]
			}
		default:
			tid = actable[rng.Intn(len(actable))]
		}
		t := m.Thread(tid)

		if census[tid]&interp.CensusExec == 0 {
			// Finished or join-blocked thread with pending stores or
			// deferred loads: its only actions are flushes and resolves —
			// but the delay coins apply here too. Acting unconditionally
			// would commit a dead thread's stores within ~2 picks, making
			// witnesses that need such a store to land late (2+2W-style
			// write cycles) exponentially unlikely. Defer while some other
			// thread can make real progress; when this thread's action is
			// the only possible one it is forced, which keeps every
			// schedule live.
			if !anyExec {
				if w.tryFlush(t, tid, opts.Starve, true, tr) || w.tryResolve(tid, tr) {
					refresh, refreshTid = refreshThread, tid
				} else {
					spins++
				}
				continue
			}
			acted := false
			if rng.Float64() < opts.FlushProb {
				acted = w.tryFlush(t, tid, opts.Starve, false, tr)
			}
			if !acted && m.CanResolve(tid) && rng.Float64() < resolveProb {
				acted = w.tryResolve(tid, tr)
			}
			if acted {
				refresh, refreshTid = refreshThread, tid
			} else {
				spins++
			}
			if !acted && opts.Strategy == Priority {
				// Deferral must demote, or the highest-priority thread
				// would be re-picked to defer forever.
				priorities[tid] = rng.Float64() * priorities[lowest(priorities)]
			}
			continue
		}
		if v := &w.vow; opts.StarveLoads && !v.expire(m.Steps()) {
			if v.sworn && !m.CanResolve(v.tid) {
				v.sworn = false // victim's queue drained: re-swearable
			}
			if !v.sworn && m.NextForcesResolve(tid) {
				*v = vow{sworn: true, tid: tid, at: m.Steps()}
			}
			if v.sworn && v.tid == tid && m.NextForcesResolve(tid) && canExecOther(census, actable, tid) {
				// Load-starvation vow: executing the victim's next
				// instruction would end a deferred load's window. The flush
				// coin still applies (committing the victim's earlier
				// stores is exactly what a load-buffering witness needs),
				// and the resolve coin retires deferred loads from the
				// queue's tail — later loads committing first is load-load
				// reordering — while never touching the oldest entry, whose
				// window the vow protects. The dependent instruction waits
				// until no other thread can execute.
				acted := false
				if rng.Float64() < opts.FlushProb {
					acted = w.tryFlush(t, tid, opts.Starve, false, tr)
				}
				if acted {
					refresh, refreshTid = refreshThread, tid
				} else if rng.Float64() < resolveProb && w.tryResolveTail(tid, tr) {
					acted = true
					refresh, refreshTid = refreshThread, tid
				}
				if !acted {
					spins++
				}
				if opts.Strategy == Priority {
					// Deferral must demote, or the highest-priority thread
					// would be re-picked to defer forever.
					priorities[tid] = rng.Float64() * priorities[lowest(priorities)]
				}
				continue
			}
		}
		if !t.Buffers().Empty() && rng.Float64() < opts.FlushProb {
			if w.tryFlush(t, tid, opts.Starve, false, tr) {
				refresh, refreshTid = refreshThread, tid
				continue
			}
			// Only the starvation victim is pending: execute instead of
			// breaking the vow.
		}
		if m.CanResolve(tid) && rng.Float64() < resolveProb {
			if w.tryResolve(tid, tr) {
				refresh, refreshTid = refreshThread, tid
				continue
			}
		}
		refresh, refreshTid = refreshThread, tid
		// Partial-order reduction: keep running a thread that only touches
		// local state — interleaving such steps with other threads cannot
		// change any observable outcome. The load-starvation vow guards
		// force-resolving instructions at pick time, so the window stops
		// before one while the vow can still be sworn.
		ran, _ := m.RunLocal(tid, opts.PORWindow, maxSteps, opts.StarveLoads && !w.vow.spent)
		if tr != nil {
			tr.recordSteps(tid, ran)
		}
	}
	res := m.Result(true)
	res.SchedIters, res.SchedSpins = iter, spins
	return res
}

// canExecOther reports whether any actable thread other than tid can
// execute its next instruction — the liveness guard of the
// load-starvation vow. census is the current iteration's census (no
// machine step has happened since, so it is still accurate).
func canExecOther(census []uint8, actable []int, tid int) bool {
	for _, cand := range actable {
		if cand != tid && census[cand]&interp.CensusExec != 0 {
			return true
		}
	}
	return false
}

// lowest returns the index of the smallest priority.
func lowest(ps []float64) int {
	best := 0
	for i, p := range ps {
		if p < ps[best] {
			best = i
		}
	}
	return best
}

// vowLifetime bounds a starvation vow's lifetime in machine steps, for
// store and load vows alike. The witnesses a vow exists for (a store or
// a load deferral outliving the other threads' entire runs) play out
// within tens of steps on the programs synthesis samples, so a generous
// fixed budget loses nothing — while an unbounded vow livelocks programs
// where another thread spin-waits on the victim: on its variable (a store
// vow), or on a lock or flag it would release after its vowed load (a
// load vow). The spinner can always execute, so the forced escape never
// triggers and the run burns its whole budget.
const vowLifetime = 4096

// tryFlush commits one pending store of thread t, choosing the flushed
// variable uniformly among those with pending entries (under PSO the
// scheduler "can choose to flush only values for a particular variable"),
// and reports whether a store was committed. With starve, the first store
// ever offered for flushing becomes the execution's victim and tryFlush
// thereafter refuses to flush it unless forced (no thread can execute, or
// nothing else is pending on a forced call) — until the vow is spent
// vowLifetime machine steps after it was sworn. It reads the
// pending-address view in place (no copy): the slice is consumed before
// the FlushOne mutation invalidates it.
func (w *worker) tryFlush(t *interp.Thread, tid int, starve, forced bool, tr *Trace) bool {
	m := &w.m
	pend := t.Buffers().PendingAddrsView()
	if len(pend) == 0 {
		return false
	}
	if v := &w.vow; starve && !v.expire(m.Steps()) {
		if !v.sworn {
			*v = vow{sworn: true, tid: tid, addr: pend[w.rng.Intn(len(pend))], at: m.Steps()}
			if !forced {
				return false // the vow starts by skipping this very flush
			}
		}
		if tid == v.tid {
			n := 0
			for _, a := range pend {
				if a != v.addr {
					n++
				}
			}
			if n == 0 {
				if !forced {
					return false
				}
				// Forced with only the victim pending: liveness wins.
			} else {
				k := w.rng.Intn(n)
				for _, a := range pend {
					if a == v.addr {
						continue
					}
					if k == 0 {
						m.FlushOne(tid, a)
						if tr != nil {
							tr.recordFlush(tid, a)
						}
						return true
					}
					k--
				}
			}
		}
	}
	addr := pend[w.rng.Intn(len(pend))]
	m.FlushOne(tid, addr)
	if tr != nil {
		tr.recordFlush(tid, addr)
	}
	return true
}

// tryResolve performs the deferred read of one pending load of thread
// tid, at a uniformly random queue position — under load-deferring models
// the position choice is the scheduler's load-reordering decision — and
// reports whether a load was resolved.
func (w *worker) tryResolve(tid int, tr *Trace) bool {
	m := &w.m
	n := m.DeferredCount(tid)
	if n == 0 {
		return false
	}
	idx := w.rng.Intn(n)
	m.ResolveOne(tid, idx)
	if tr != nil {
		tr.recordResolve(tid, idx)
	}
	return true
}

// tryResolveTail resolves thread tid's newest deferred load, refusing to
// touch the oldest entry — the load whose deferral window the
// load-starvation vow protects. Reports whether a load was resolved.
func (w *worker) tryResolveTail(tid int, tr *Trace) bool {
	m := &w.m
	n := m.DeferredCount(tid)
	if n < 2 {
		return false
	}
	m.ResolveOne(tid, n-1)
	if tr != nil {
		tr.recordResolve(tid, n-1)
	}
	return true
}

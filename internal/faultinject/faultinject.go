// Package faultinject is a deterministic fault-injection harness for the
// synthesis runtime. A Plan decides, purely from (Seed, round, index),
// which executions of a core.Synthesize run receive which fault, and
// compiles into a Config.OptionsHook. Because the decision is a pure
// function of the plan and the execution's coordinates — never of timing,
// worker identity, or completion order — the same plan injects the same
// faults into the same executions for every Config.Workers value, which is
// what lets the resilience tests assert that untouched executions are
// bit-identical to a fault-free run.
//
// Three fault kinds cover the failure modes the runtime must contain:
//
//   - Panic: the execution's observer panics mid-run — the model for a bug
//     in the interpreter, a collector, or a user-supplied observer. The
//     runtime must recover it into a structured sched.ExecError and leave
//     every other execution untouched.
//   - Slow: the execution's observer stalls on every shared access — the
//     model for a pathological schedule. With Config.Deadline set, the
//     execution must be cut off when the deadline expires and counted
//     inconclusive.
//   - ExhaustSteps: the execution's step budget collapses to 1, forcing an
//     immediate step-limit hit — the model for livelock. The round must
//     count it inconclusive rather than "no violation".
package faultinject

import (
	"time"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/sched"
)

// Kind identifies a fault.
type Kind uint8

const (
	// None injects nothing.
	None Kind = iota
	// Panic makes the execution's observer panic on its first shared
	// access. Executions that never perform an observed shared access
	// (no same-thread pending stores to other addresses) escape the fault;
	// tests pin FlushProb to make the access deterministic.
	Panic
	// Slow makes the execution's observer sleep SlowDelay on every shared
	// access, so a configured Config.Deadline expires while it runs.
	Slow
	// ExhaustSteps overrides the execution's MaxSteps to 1, forcing an
	// immediate, deterministic step-limit hit.
	ExhaustSteps
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Slow:
		return "slow"
	case ExhaustSteps:
		return "exhaust-steps"
	}
	return "kind(?)"
}

// PanicPayload is the value injected panics carry, so tests (and operators
// reading ExecErrors) can tell an injected fault from a genuine bug.
const PanicPayload = "faultinject: injected panic"

type point struct{ round, index int }

// Plan is a deterministic fault schedule. Build one with NewPlan, register
// faults with At (explicit coordinates) and Rate (seed-driven sampling),
// then install Hook into core.Config.OptionsHook.
type Plan struct {
	// SlowDelay is the per-shared-access stall of Slow faults.
	// Zero selects 10ms.
	SlowDelay time.Duration

	seed   int64
	points map[point]Kind
	rates  []rate
}

type rate struct {
	kind Kind
	prob float64
}

// NewPlan returns an empty plan. seed parameterizes Rate's sampling; plans
// that only use At ignore it.
func NewPlan(seed int64) *Plan {
	return &Plan{seed: seed, points: make(map[point]Kind)}
}

// At injects kind into execution (round, index) of the synthesis. The last
// registration for a coordinate wins, and At beats Rate.
func (p *Plan) At(round, index int, kind Kind) *Plan {
	p.points[point{round, index}] = kind
	return p
}

// Rate injects kind into a pseudo-random prob fraction of executions,
// chosen by hashing (seed, round, index) — deterministic for a given plan,
// independent of worker count and completion order. Rates are consulted in
// registration order; the first that fires wins.
func (p *Plan) Rate(kind Kind, prob float64) *Plan {
	p.rates = append(p.rates, rate{kind: kind, prob: prob})
	return p
}

// Kind returns the fault this plan assigns to execution (round, index).
func (p *Plan) Kind(round, index int) Kind {
	if k, ok := p.points[point{round, index}]; ok {
		return k
	}
	for i, r := range p.rates {
		h := mix(uint64(p.seed) ^ uint64(round)<<32 ^ uint64(index) ^ uint64(i)<<56)
		// Top 53 bits -> uniform float64 in [0, 1).
		if float64(h>>11)/(1<<53) < r.prob {
			return r.kind
		}
	}
	return None
}

// Hook compiles the plan into a core.Config.OptionsHook. Faulted
// executions get their sched.Options rewritten (an observer wrapper for
// Panic/Slow, a MaxSteps override for ExhaustSteps); unfaulted executions
// pass through untouched, preserving bit-identity with a fault-free run.
func (p *Plan) Hook() func(round, index int, opts sched.Options) sched.Options {
	return func(round, index int, opts sched.Options) sched.Options {
		switch p.Kind(round, index) {
		case Panic:
			opts.Wrap = chainWrap(opts.Wrap, func(obs interp.Observer) interp.Observer {
				return &panicObserver{inner: obs}
			})
		case Slow:
			delay := p.SlowDelay
			if delay <= 0 {
				delay = 10 * time.Millisecond
			}
			opts.Wrap = chainWrap(opts.Wrap, func(obs interp.Observer) interp.Observer {
				return &slowObserver{inner: obs, delay: delay}
			})
		case ExhaustSteps:
			opts.MaxSteps = 1
		}
		return opts
	}
}

// chainWrap composes observer wrappers so a plan stacks on top of any
// wrapper already present in the options.
func chainWrap(prev, next func(interp.Observer) interp.Observer) func(interp.Observer) interp.Observer {
	if prev == nil {
		return next
	}
	return func(obs interp.Observer) interp.Observer { return next(prev(obs)) }
}

// mix is splitmix64's finalizer: a cheap, well-distributed 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// panicObserver panics on the first shared access it sees.
type panicObserver struct{ inner interp.Observer }

func (o *panicObserver) OnSharedAccess(thread int, label ir.Label, kind interp.AccessKind, addr int64, pending []interp.PendingStore) {
	panic(PanicPayload)
}

// slowObserver stalls on every shared access, then delegates.
type slowObserver struct {
	inner interp.Observer
	delay time.Duration
}

func (o *slowObserver) OnSharedAccess(thread int, label ir.Label, kind interp.AccessKind, addr int64, pending []interp.PendingStore) {
	time.Sleep(o.delay)
	if o.inner != nil {
		o.inner.OnSharedAccess(thread, label, kind, addr, pending)
	}
}

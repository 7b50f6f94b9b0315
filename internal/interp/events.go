package interp

import (
	"fmt"
	"strings"

	"dfence/internal/ir"
)

// EventKind distinguishes history events.
type EventKind uint8

const (
	// EventInvoke records entry to an operation (a function marked
	// IsOperation) with its argument values.
	EventInvoke EventKind = iota
	// EventResponse records the operation's return with its result.
	EventResponse
)

// Event is one entry of the observable history extracted from an
// execution: the sequence of calls and returns of specification-visible
// operations, in the global order they occurred (paper §5.2,
// Specifications). The SC and linearizability checkers consume these.
type Event struct {
	Kind   EventKind
	Thread int
	Op     string
	Args   []int64 // EventInvoke only
	Ret    int64   // EventResponse only
	HasRet bool
}

func (e Event) String() string {
	if e.Kind == EventInvoke {
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = fmt.Sprint(a)
		}
		return fmt.Sprintf("t%d: %s(%s)", e.Thread, e.Op, strings.Join(parts, ","))
	}
	if e.HasRet {
		return fmt.Sprintf("t%d: %s -> %d", e.Thread, e.Op, e.Ret)
	}
	return fmt.Sprintf("t%d: %s -> ()", e.Thread, e.Op)
}

// ViolationKind classifies why an execution is illegal.
type ViolationKind uint8

const (
	// VMemSafety is an out-of-bounds or dangling/null access (paper's
	// memory-safety specification: "array out of bounds and null
	// dereferencing").
	VMemSafety ViolationKind = iota
	// VAssert is a failed program assertion.
	VAssert
	// VDeadlock means no thread can make progress but the program has not
	// finished.
	VDeadlock
)

func (k ViolationKind) String() string {
	switch k {
	case VMemSafety:
		return "memory-safety"
	case VAssert:
		return "assertion"
	case VDeadlock:
		return "deadlock"
	}
	return fmt.Sprintf("violation(%d)", uint8(k))
}

// Violation describes the first illegal event of an execution.
type Violation struct {
	Kind   ViolationKind
	Thread int
	Label  ir.Label // instruction at fault (NoLabel for deadlock)
	Msg    string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("%s violation in thread %d at L%d: %s", v.Kind, v.Thread, v.Label, v.Msg)
}

// AccessKind classifies shared-memory accesses reported to an Observer.
type AccessKind uint8

const (
	AccLoad AccessKind = iota
	AccStore
	AccCas
)

func (k AccessKind) String() string {
	switch k {
	case AccLoad:
		return "load"
	case AccStore:
		return "store"
	case AccCas:
		return "cas"
	}
	return fmt.Sprintf("access(%d)", uint8(k))
}

// Observer receives shared-memory access notifications during execution.
// The fence synthesizer implements it to run the paper's instrumented
// semantics (Semantics 2) online: pendingOther carries the same-thread
// accesses to *other* addresses still in flight at the moment of this
// access — buffered stores first, then (under load-deferring models)
// deferred loads. These are the labels ly whose ordering before this
// access would repair the execution.
//
// pendingOther is scratch space reused across calls: it is valid only for
// the duration of the call, and implementations must copy anything they
// want to retain.
type Observer interface {
	OnSharedAccess(thread int, label ir.Label, kind AccessKind, addr int64, pendingOther []PendingStore)
}

// PendingStore identifies one in-flight access visible to the Observer: a
// buffered store, or — when IsLoad is set — a deferred load that has
// issued but not yet read memory. (The name predates deferred loads;
// "pending access" is the accurate reading.)
type PendingStore struct {
	Label  ir.Label
	Addr   int64
	IsLoad bool
}

// Result summarizes one complete execution.
type Result struct {
	// Violation is non-nil if the execution was illegal (memory safety,
	// assertion, deadlock). Specification violations (SC/linearizability)
	// are judged afterwards from History.
	Violation *Violation
	// History is the call/return sequence of operations.
	History []Event
	// Output collects values printed by the program.
	Output []int64
	// Steps is the number of transitions executed (instructions + flushes).
	Steps int
	// StepLimitHit reports that the execution was cut off by the step
	// budget; such executions are treated as inconclusive, not violating.
	StepLimitHit bool
	// TimedOut reports that the execution's context was cancelled before
	// it completed — in synthesis, by the run's Deadline. Like
	// StepLimitHit, such executions are inconclusive.
	TimedOut bool
	// ExitCode is main's return value (0 if void or cut off).
	ExitCode int64
	// FenceTouched is a bitmask of the watched fences the execution
	// reached: bit i is set iff the fence labelled by the i-th entry of the
	// CompileWatched watch list executed. Always 0 when the program was
	// compiled without a watch list. The execution cache uses it to decide
	// which candidate fence sets could possibly change this execution.
	FenceTouched uint64
	// SchedIters counts scheduler-loop iterations: machine steps plus
	// iterations that deferred (made no step). Filled by the sched runner;
	// the basis for the deterministic sched.Options.MaxIters budget.
	SchedIters int
	// SchedSpins counts just the no-step deferral iterations — the spin
	// share a starving portfolio phase burns without progressing. Filled
	// by the sched runner; surfaced via trace portfolio aggregates.
	SchedSpins int
}

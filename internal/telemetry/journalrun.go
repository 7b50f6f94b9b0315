// Journal post-processing for `dfence explain`: fold a decoded event
// stream into the pieces needed to re-render witnesses — the run
// configuration, every journaled violation, and the fences present in
// the program at each round.
package telemetry

import (
	"dfence/internal/memmodel"
	"dfence/internal/sched"
)

// JournalRun is the folded view of one journal.
type JournalRun struct {
	Start      *RunStart
	Violations []Violation
	// InsertsByRound holds the fences each round's FenceChange inserted.
	InsertsByRound map[int][]Fence
	// roundOrder preserves insertion-event order for FencesBefore.
	roundOrder []int
	Converged  *Converged
}

// SummarizeJournal folds events (as returned by ReadJournal) into a
// JournalRun.
func SummarizeJournal(events []Event) *JournalRun {
	jr := &JournalRun{InsertsByRound: map[int][]Fence{}}
	for _, e := range events {
		switch ev := e.(type) {
		case RunStart:
			s := ev
			jr.Start = &s
		case Violation:
			jr.Violations = append(jr.Violations, ev)
		case FenceChange:
			if ev.Action == "insert" {
				if _, seen := jr.InsertsByRound[ev.Round]; !seen {
					jr.roundOrder = append(jr.roundOrder, ev.Round)
				}
				jr.InsertsByRound[ev.Round] = append(jr.InsertsByRound[ev.Round], ev.Fences...)
			}
		case Converged:
			c := ev
			jr.Converged = &c
		}
	}
	return jr
}

// FencesBefore returns, in insertion order, the fences the synthesis had
// inserted before the given round began — the set present in the program
// a round-N witness ran against.
func (jr *JournalRun) FencesBefore(round int) []Fence {
	var out []Fence
	for _, r := range jr.roundOrder {
		if r < round {
			out = append(out, jr.InsertsByRound[r]...)
		}
	}
	return out
}

// Witnesses returns the journaled violations that carry a trace (the
// explainable ones).
func (jr *JournalRun) Witnesses() []Violation {
	var out []Violation
	for _, v := range jr.Violations {
		if len(v.Trace) > 0 {
			out = append(out, v)
		}
	}
	return out
}

// TraceFrom rebuilds a sched.Trace from journaled decisions — the
// inverse of TraceOf.
func TraceFrom(ds []TraceDecision, model memmodel.Model) *sched.Trace {
	tr := &sched.Trace{Model: model}
	for _, d := range ds {
		tr.Decisions = append(tr.Decisions, sched.Decision{
			Thread: d.Thread, Flush: d.Flush, Resolve: d.Resolve, Addr: d.Addr, Idx: d.Idx, Steps: d.Steps,
		})
	}
	return tr
}

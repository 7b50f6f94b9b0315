// The violation-witness explainer: turns a recorded schedule plus its
// journal context into a human-readable interleaving report — per-thread
// program text, the step-by-step interleaving with buffered-vs-flushed
// stores and deferred-vs-resolved loads made explicit, the stores still
// sitting in buffers when the check failed, the specification failure,
// and the repair disjunction the instrumented semantics proposed. This is the `dfence explain`
// backend and the detail section of failure output.
package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"dfence/internal/ir"
	"dfence/internal/sched"
)

// ExplainOptions carries the journal/run context around one witness.
type ExplainOptions struct {
	// Round and Seed locate the witness execution in the run.
	Round int
	Seed  int64
	// Desc describes what the execution violated (an interpreter fault,
	// or the failed history check — spec.DescribeFailure output).
	Desc string
	// Disjunction is the repair disjunction [l1 ⊰ k1] ∨ ... the
	// instrumented semantics proposed for this execution.
	Disjunction []Pred
	// MaxSteps caps the rendered interleaving (0 = 400). Longer replays
	// are elided in the middle, keeping the head and the violating tail.
	MaxSteps int
}

// pendingStore tracks one buffered store during witness rendering.
type pendingStore struct {
	label ir.Label
	addr  int64
	val   int64
}

// ExplainWitness replays tr against prog and renders the witness report.
// The error is non-nil only when the trace cannot be replayed at all;
// a schedule that stops applying partway (e.g. against a since-fenced
// program) still renders its applicable prefix, flagged as partial.
func ExplainWitness(prog *ir.Program, tr *sched.Trace, opts ExplainOptions) (string, error) {
	if tr == nil || len(tr.Decisions) == 0 {
		return "", fmt.Errorf("telemetry: no witness trace to explain")
	}
	facts, res, ok := sched.ReplayExplained(prog, tr)
	if len(facts) == 0 {
		return "", fmt.Errorf("telemetry: witness trace does not apply to this program")
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 400
	}

	names := addrNamer(prog)
	var b strings.Builder

	// Header.
	fmt.Fprintf(&b, "violation witness — %v", tr.Model)
	if opts.Round > 0 {
		fmt.Fprintf(&b, ", round %d", opts.Round)
	}
	fmt.Fprintf(&b, ", seed %d\n", opts.Seed)
	desc := opts.Desc
	if desc == "" && res != nil && res.Violation != nil {
		desc = res.Violation.Error()
	}
	if desc != "" {
		b.WriteString("violated: " + indentAfterFirst(desc, "  ") + "\n")
	}
	if !ok {
		b.WriteString("note: schedule no longer fully applies to this program (it has changed since the witness was recorded); showing the applicable prefix\n")
	}

	// Per-thread program text: each thread's functions in execution
	// order, each function's code printed once.
	b.WriteString("\nprogram (per thread):\n")
	threadFuncs, threadOrder := factFuncs(facts)
	printed := map[string]bool{}
	for _, tid := range threadOrder {
		fmt.Fprintf(&b, "  t%d runs %s\n", tid, strings.Join(threadFuncs[tid], ", "))
	}
	for _, tid := range threadOrder {
		for _, fname := range threadFuncs[tid] {
			if printed[fname] {
				continue
			}
			printed[fname] = true
			fn := prog.Funcs[fname]
			if fn == nil {
				continue
			}
			fmt.Fprintf(&b, "  func %s:\n", fname)
			for i := range fn.Code {
				fmt.Fprintf(&b, "    %s\n", fn.Code[i].String())
			}
		}
	}

	// The interleaving, with live store-buffer bookkeeping.
	fmt.Fprintf(&b, "\ninterleaving (%d transitions):\n", len(facts))
	pending := map[int][]pendingStore{}
	elideFrom, elideTo := -1, -1
	if len(facts) > maxSteps {
		keepHead := maxSteps / 2
		keepTail := maxSteps - keepHead
		elideFrom, elideTo = keepHead, len(facts)-keepTail
	}
	for i, f := range facts {
		// Bookkeeping must run for elided steps too.
		line := renderFact(f, names, pending)
		if elideFrom >= 0 && i >= elideFrom && i < elideTo {
			if i == elideFrom {
				fmt.Fprintf(&b, "  ... %d transitions elided ...\n", elideTo-elideFrom)
			}
			continue
		}
		fmt.Fprintf(&b, "  %s\n", line)
	}

	// Stores still buffered when the check failed — the relaxed-memory
	// heart of the witness.
	var tids []int
	for tid, ps := range pending {
		if len(ps) > 0 {
			tids = append(tids, tid)
		}
	}
	sort.Ints(tids)
	if len(tids) > 0 {
		b.WriteString("\nstill buffered (written, never flushed to memory before the check):\n")
		for _, tid := range tids {
			for _, p := range pending[tid] {
				fmt.Fprintf(&b, "  t%d: %s = %d (store L%d)\n", tid, names(p.addr), p.val, p.label)
			}
		}
	}

	// The repair disjunction.
	if len(opts.Disjunction) > 0 {
		b.WriteString("\nrepair disjunction (enforcing any one ordering repairs this execution):\n")
		for _, p := range opts.Disjunction {
			fmt.Fprintf(&b, "  [L%d \u2b30 L%d]%s\n", p.L, p.K, describePred(prog, p))
		}
	} else if opts.Desc != "" || res != nil {
		b.WriteString("\nrepair disjunction: empty — no fence placement can avoid this execution\n")
	}
	return b.String(), nil
}

// factFuncs collects, per thread, the functions it executed (in order),
// and the threads in order of first action.
func factFuncs(facts []sched.StepFact) (map[int][]string, []int) {
	funcs := map[int][]string{}
	var order []int
	for _, f := range facts {
		if _, seen := funcs[f.Thread]; !seen {
			order = append(order, f.Thread)
			funcs[f.Thread] = nil
		}
		if !f.Exec || f.Func == "" {
			continue
		}
		fs := funcs[f.Thread]
		if len(fs) == 0 || fs[len(fs)-1] != f.Func {
			dup := false
			for _, n := range fs {
				if n == f.Func {
					dup = true
					break
				}
			}
			if !dup {
				funcs[f.Thread] = append(fs, f.Func)
			}
		}
	}
	return funcs, order
}

// renderFact renders one step and updates the pending-store books.
func renderFact(f sched.StepFact, names func(int64) string, pending map[int][]pendingStore) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t%d", f.Thread)
	switch {
	case f.Flush:
		src := ""
		if f.FlushLabel != 0 {
			src = fmt.Sprintf(" (store L%d", f.FlushLabel)
			if f.Forced {
				src += ", forced by fence/atomic"
			}
			src += ")"
		}
		fmt.Fprintf(&b, " \u2913 flush %s = %d%s", names(f.FlushAddr), f.FlushVal, src)
		// Retire the oldest matching pending store.
		ps := pending[f.Thread]
		for i, p := range ps {
			if p.addr == f.FlushAddr && p.label == f.FlushLabel {
				pending[f.Thread] = append(ps[:i:i], ps[i+1:]...)
				break
			}
		}
	case f.Resolve:
		fmt.Fprintf(&b, " \u27f2 resolve load L%d", f.ResolveLabel)
		if f.HasAddr && f.HasVal {
			fmt.Fprintf(&b, ": read %s = %d (from memory)", names(f.Addr), f.Val)
		}
		if f.Forced {
			b.WriteString(" (forced by a dependent instruction)")
		}
	case f.Exec:
		in := f.Instr
		fmt.Fprintf(&b, " %s  %s", f.Func, in.String())
		switch in.Op {
		case ir.OpStore:
			if f.HasAddr && f.HasVal {
				if f.Buffered {
					fmt.Fprintf(&b, "   → %s = %d BUFFERED (not yet visible to other threads)", names(f.Addr), f.Val)
					pending[f.Thread] = append(pending[f.Thread], pendingStore{label: in.Label, addr: f.Addr, val: f.Val})
				} else {
					fmt.Fprintf(&b, "   → %s = %d (to memory)", names(f.Addr), f.Val)
				}
			}
		case ir.OpLoad:
			if f.Deferred && f.HasAddr {
				fmt.Fprintf(&b, "   → load of %s DEFERRED (reads memory when it resolves)", names(f.Addr))
			} else if f.HasAddr && f.HasVal {
				src := "from memory"
				if f.FromBuffer {
					src = "from OWN buffer"
				}
				fmt.Fprintf(&b, "   → read %s = %d (%s)", names(f.Addr), f.Val, src)
			}
		case ir.OpCas:
			if f.HasAddr {
				fmt.Fprintf(&b, "   → atomic on %s", names(f.Addr))
			}
		}
	default:
		b.WriteString(" (no-op)")
	}
	if f.Violated != nil {
		fmt.Fprintf(&b, "\n  !! violation: %s", f.Violated.Error())
	}
	return b.String()
}

// describePred phrases one ordering predicate in program terms.
func describePred(prog *ir.Program, p Pred) string {
	l := prog.InstrAt(ir.Label(p.L))
	k := prog.InstrAt(ir.Label(p.K))
	if l == nil || k == nil {
		return ""
	}
	return fmt.Sprintf(" — commit \u201c%s\u201d before executing \u201c%s\u201d", instrPhrase(l), instrPhrase(k))
}

func instrPhrase(in *ir.Instr) string {
	s := in.String()
	if in.Line > 0 {
		s += fmt.Sprintf(" (line %d)", in.Line)
	}
	return s
}

// addrNamer maps addresses to global names (name, or name+offset) for
// readable reports; unknown addresses render as [addr N].
func addrNamer(prog *ir.Program) func(int64) string {
	return func(addr int64) string {
		for _, g := range prog.Globals {
			if addr >= g.Addr && addr < g.Addr+g.Size {
				if addr == g.Addr {
					return g.Name
				}
				return fmt.Sprintf("%s+%d", g.Name, addr-g.Addr)
			}
		}
		return fmt.Sprintf("[addr %d]", addr)
	}
}

func indentAfterFirst(s, indent string) string {
	return strings.ReplaceAll(s, "\n", "\n"+indent)
}

// Package staticanalysis provides the static companion passes to DFENCE's
// dynamic synthesis loop:
//
//   - an IR verifier (Verify): structural validation plus CFG-based
//     def-before-use checking, run after front-end lowering and after
//     every fence insertion or removal so a program mutation can never
//     silently corrupt the IR;
//   - a delay-set analysis (Analyze): a Shasha–Snir-style static
//     over-approximation of the ordering predicates the dynamic engine
//     can ever propose, and of the critical cycles that make them matter
//     (in the spirit of Alglave et al., "Don't sit on the fence");
//   - the pruning interface core.Synthesize consults to shrink the repair
//     formula and to short-circuit statically robust programs.
//
// The package depends only on internal/ir and internal/memmodel, so the
// front end (internal/lang), the repair machinery (internal/synth), and
// the synthesis loop (internal/core) can all call into it.
package staticanalysis

import (
	"fmt"
	"strings"

	"dfence/internal/ir"
)

// Diagnostic is one verifier finding, attributed to an instruction when
// possible (Label == ir.NoLabel for program-level findings).
type Diagnostic struct {
	Func  string
	Label ir.Label
	Msg   string
}

func (d Diagnostic) String() string {
	switch {
	case d.Func == "":
		return d.Msg
	case d.Label == ir.NoLabel:
		return fmt.Sprintf("%s: %s", d.Func, d.Msg)
	}
	return fmt.Sprintf("%s: L%d: %s", d.Func, d.Label, d.Msg)
}

// VerifyError aggregates every diagnostic of a failed verification.
type VerifyError struct {
	Diags []Diagnostic
}

func (e *VerifyError) Error() string {
	if len(e.Diags) == 1 {
		return "staticanalysis: " + e.Diags[0].String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "staticanalysis: %d verifier errors:", len(e.Diags))
	for _, d := range e.Diags {
		b.WriteString("\n  ")
		b.WriteString(d.String())
	}
	return b.String()
}

// Verify checks a program's well-formedness beyond ir.Program.Validate:
// on top of the structural checks (unique labels, in-function branch
// targets, register bounds, NoLabel/NoReg misuse, defined callees) it
// verifies that every register is defined on every path before it is
// used and that OpGlobal immediates agree with the linked global
// addresses (catching a missed re-Link after mutation). It returns nil
// or a *VerifyError listing every finding.
func Verify(p *ir.Program) error {
	if err := p.Validate(); err != nil {
		// Structure is broken; the CFG passes below assume it is not.
		return &VerifyError{Diags: []Diagnostic{{Label: ir.NoLabel, Msg: err.Error()}}}
	}
	var diags []Diagnostic
	for _, name := range p.FuncNames() {
		f := p.Funcs[name]
		diags = append(diags, checkGlobalRefs(p, f)...)
		diags = append(diags, checkDefBeforeUse(f)...)
	}
	if len(diags) > 0 {
		return &VerifyError{Diags: diags}
	}
	return nil
}

// checkGlobalRefs flags OpGlobal instructions whose resolved immediate
// does not match the global's linked address — the signature of a mutation
// that added or reordered globals without calling Program.Link again.
func checkGlobalRefs(p *ir.Program, f *ir.Func) []Diagnostic {
	var diags []Diagnostic
	for i := range f.Code {
		in := &f.Code[i]
		if in.Op != ir.OpGlobal {
			continue
		}
		g := p.Global(in.Func)
		if g == nil {
			diags = append(diags, Diagnostic{Func: f.Name, Label: in.Label,
				Msg: fmt.Sprintf("references unknown global %q", in.Func)})
			continue
		}
		if in.Imm != g.Addr {
			diags = append(diags, Diagnostic{Func: f.Name, Label: in.Label,
				Msg: fmt.Sprintf("stale link: &%s resolved to %d but the global is at %d (missing Program.Link?)", in.Func, in.Imm, g.Addr)})
		}
	}
	return diags
}

// regset is a bitset over a function's registers.
type regset []uint64

func newRegset(n int) regset { return make(regset, (n+63)/64) }

func (s regset) has(r ir.Reg) bool { return s[r/64]&(1<<(uint(r)%64)) != 0 }
func (s regset) add(r ir.Reg)      { s[r/64] |= 1 << (uint(r) % 64) }
func (s regset) remove(r ir.Reg)   { s[r/64] &^= 1 << (uint(r) % 64) }

func (s regset) fill() {
	for i := range s {
		s[i] = ^uint64(0)
	}
}

func (s regset) copyFrom(t regset) {
	copy(s, t)
}

// intersect ands t into s and reports whether s changed.
func (s regset) intersect(t regset) bool {
	changed := false
	for i := range s {
		n := s[i] & t[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// succIndexes returns the in-function successor indices of instruction i.
// Calls fall through (the callee returns); rets have no successor.
func succIndexes(f *ir.Func, i int) []int {
	in := &f.Code[i]
	switch in.Op {
	case ir.OpBr:
		return []int{f.IndexOf(in.Target)}
	case ir.OpCondBr:
		return []int{f.IndexOf(in.Target), f.IndexOf(in.Target2)}
	case ir.OpRet:
		return nil
	}
	if i+1 < len(f.Code) {
		return []int{i + 1}
	}
	return nil
}

// checkDefBeforeUse runs a must-be-defined forward dataflow over the
// function's CFG (meet = intersection over predecessors; entry starts with
// the parameter registers; unreachable code starts TOP so it never
// produces spurious findings) and flags every register read before any
// defining path reaches it.
func checkDefBeforeUse(f *ir.Func) []Diagnostic {
	if f.NumRegs == 0 {
		return nil
	}
	n := len(f.Code)
	in := make([]regset, n)
	out := make([]regset, n)
	for i := 0; i < n; i++ {
		in[i] = newRegset(f.NumRegs)
		out[i] = newRegset(f.NumRegs)
		in[i].fill()
		out[i].fill()
	}
	// The entry fact is exactly the parameter registers; everything else
	// starts TOP (unreachable code then never produces spurious findings).
	// Meet is intersection, so facts only ever shrink and the uniform
	// in[s] ∩= out[i] propagation is correct even for branches back to the
	// entry instruction.
	entry := newRegset(f.NumRegs)
	entry.fill()
	for r := f.NumParams; r < f.NumRegs; r++ {
		entry.remove(ir.Reg(r))
	}
	in[0].copyFrom(entry)

	// Iterate to fixpoint; the programs are tiny, so a simple round-robin
	// sweep converges quickly.
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			out[i].copyFrom(in[i])
			if d := f.Code[i].Def(); d != ir.NoReg {
				out[i].add(d)
			}
			for _, s := range succIndexes(f, i) {
				if in[s].intersect(out[i]) {
					changed = true
				}
			}
		}
	}

	var diags []Diagnostic
	var uses []ir.Reg
	for i := 0; i < n; i++ {
		uses = f.Code[i].Uses(uses[:0])
		for _, r := range uses {
			if r == ir.NoReg || int(r) >= f.NumRegs {
				continue // Validate already reported it
			}
			if !in[i].has(r) {
				diags = append(diags, Diagnostic{Func: f.Name, Label: f.Code[i].Label,
					Msg: fmt.Sprintf("register r%d may be used before it is defined", r)})
			}
		}
	}
	return diags
}

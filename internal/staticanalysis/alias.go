package staticanalysis

// This file implements the flow-insensitive address analysis: which
// globals and allocation sites can each register point to, which
// globals/allocations escape (their address flows into memory, a call, a
// fork, or a return), and when a register is *exactly* the address of one
// scalar global. The delay-set analysis uses the answers to build
// conflict edges and to discard same-location pairs the instrumented
// semantics can never report.

import (
	"sort"

	"dfence/internal/ir"
)

// aval is the abstract value of one register: the set of base addresses it
// may hold. Plain integers contribute nothing — a register fed only by
// constants has an empty, non-unknown aval.
type aval struct {
	globals map[string]bool   // named globals whose base address may flow here
	allocs  map[ir.Label]bool // OpAlloc sites whose result may flow here
	unknown bool              // value from memory, a parameter, or a call/fork/self result
}

func (v *aval) addGlobal(name string) bool {
	if v.globals == nil {
		v.globals = make(map[string]bool)
	}
	if v.globals[name] {
		return false
	}
	v.globals[name] = true
	return true
}

func (v *aval) addAlloc(site ir.Label) bool {
	if v.allocs == nil {
		v.allocs = make(map[ir.Label]bool)
	}
	if v.allocs[site] {
		return false
	}
	v.allocs[site] = true
	return true
}

// union merges o into v and reports whether v changed.
func (v *aval) union(o *aval) bool {
	changed := false
	for g := range o.globals {
		changed = v.addGlobal(g) || changed
	}
	for a := range o.allocs {
		changed = v.addAlloc(a) || changed
	}
	if o.unknown && !v.unknown {
		v.unknown = true
		changed = true
	}
	return changed
}

// addrSets computes, to a fixpoint, the abstract address value of every
// register of f. Parameters and values read from memory or returned from
// calls are unknown; arithmetic propagates both operands' sets (pointer
// arithmetic such as base+index keeps the base).
func addrSets(f *ir.Func) []aval {
	vals := make([]aval, f.NumRegs)
	for r := 0; r < f.NumParams; r++ {
		vals[r].unknown = true
	}
	for changed := true; changed; {
		changed = false
		for i := range f.Code {
			in := &f.Code[i]
			switch in.Op {
			case ir.OpGlobal:
				changed = vals[in.Dst].addGlobal(in.Func) || changed
			case ir.OpAlloc:
				changed = vals[in.Dst].addAlloc(in.Label) || changed
			case ir.OpMov:
				changed = vals[in.Dst].union(&vals[in.A]) || changed
			case ir.OpBin:
				changed = vals[in.Dst].union(&vals[in.A]) || changed
				changed = vals[in.Dst].union(&vals[in.B]) || changed
			case ir.OpNeg, ir.OpNot:
				changed = vals[in.Dst].union(&vals[in.A]) || changed
			case ir.OpLoad, ir.OpSelf, ir.OpFork:
				if !vals[in.Dst].unknown {
					vals[in.Dst].unknown = true
					changed = true
				}
			case ir.OpCall:
				if in.Dst != ir.NoReg && !vals[in.Dst].unknown {
					vals[in.Dst].unknown = true
					changed = true
				}
			}
			// OpConst and OpCas results are plain integers: no contribution.
		}
	}
	return vals
}

// exactGlobals reports, per register, the global name g such that every
// definition of the register is `&g` (OpGlobal g) — "" otherwise. Such a
// register's runtime value is exactly the global's base address, which is
// what lets the candidate enumeration discard same-scalar pairs: the
// instrumented semantics exclude same-address pending stores
// (memmodel.PendingOther).
func exactGlobals(f *ir.Func) []string {
	const conflict = "\x00"
	ex := make([]string, f.NumRegs)
	for r := 0; r < f.NumParams; r++ {
		ex[r] = conflict
	}
	for i := range f.Code {
		in := &f.Code[i]
		d := in.Def()
		if d == ir.NoReg {
			continue
		}
		if in.Op == ir.OpGlobal {
			switch ex[d] {
			case "":
				ex[d] = in.Func
			case in.Func:
			default:
				ex[d] = conflict
			}
			continue
		}
		ex[d] = conflict
	}
	for r := range ex {
		if ex[r] == conflict {
			ex[r] = ""
		}
	}
	return ex
}

// escapeInfo records which addresses may be reachable from memory, other
// threads' arguments, or return values — the values an *unknown* register
// may hold. An address escapes when it is used as anything other than the
// address operand of a load/store/CAS or an input to pure arithmetic:
// stored as a value, passed to a call or fork, returned, or used as a CAS
// compare/swap value.
type escapeInfo struct {
	globals map[string]bool
	allocs  map[ir.Label]bool
}

// computeEscapes runs the per-function address analysis over the whole
// program and collects every global and allocation site whose address
// reaches an escaping use.
func computeEscapes(p *ir.Program) *escapeInfo {
	esc := &escapeInfo{globals: make(map[string]bool), allocs: make(map[ir.Label]bool)}
	for _, name := range p.FuncNames() {
		f := p.Funcs[name]
		vals := addrSets(f)
		leak := func(r ir.Reg) {
			if r == ir.NoReg || int(r) >= len(vals) {
				return
			}
			v := &vals[r]
			for g := range v.globals {
				esc.globals[g] = true
			}
			for a := range v.allocs {
				esc.allocs[a] = true
			}
		}
		for i := range f.Code {
			in := &f.Code[i]
			switch in.Op {
			case ir.OpStore:
				leak(in.B) // address written to memory
			case ir.OpCas:
				leak(in.B)
				leak(in.C)
			case ir.OpCall, ir.OpFork:
				for _, a := range in.Args {
					leak(a)
				}
			case ir.OpRet:
				if in.HasVal {
					leak(in.A)
				}
			}
		}
	}
	return esc
}

// mayAlias reports whether two accesses with the given abstract address
// values can touch the same memory word.
//
// The unknown element stands for "some address that escaped into memory,
// an argument, or a return value": it aliases escaped globals, escaped
// allocations, and other unknowns, but not addresses that provably never
// leave their defining thread. (A program that manufactures an address
// from an unrelated integer falls outside this contract; the corpus never
// does, and candidate enumeration does not rely on aliasing at all.)
// Distinct allocation sites never alias — every OpAlloc execution returns
// a fresh unit — and the same site in two different threads allocated two
// different units, so alloc/alloc pairs contribute nothing.
func mayAlias(a, b *aval, esc *escapeInfo) bool {
	for g := range a.globals {
		if b.globals[g] {
			return true
		}
	}
	if a.unknown && b.unknown {
		return true
	}
	if a.unknown && escapes(b, esc) {
		return true
	}
	if b.unknown && escapes(a, esc) {
		return true
	}
	return false
}

// escapes reports whether any address in v has escaped.
func escapes(v *aval, esc *escapeInfo) bool {
	for g := range v.globals {
		if esc.globals[g] {
			return true
		}
	}
	for a := range v.allocs {
		if esc.allocs[a] {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

package ir

// Optimize applies semantics-preserving cleanups to every function:
// constant folding, copy propagation, and dead pure-instruction
// elimination. The front end's straightforward lowering materializes many
// constants and moves; folding them shrinks programs (faster
// interpretation, smaller "bytecode LOC") without touching anything the
// synthesizer cares about — shared loads, stores, CAS, fences, calls, and
// control flow keep their labels and order.
//
// The pass is optional: benchmark programs run unoptimized by default so
// reported sizes match the naive lowering; Optimize is exposed for users
// and measured by the ablation benchmarks. Returns the number of
// instructions removed.
func Optimize(p *Program) int {
	removed := 0
	for _, name := range p.FuncNames() {
		removed += optimizeFunc(p.Funcs[name])
	}
	return removed
}

// optimizeFunc runs fold/propagate + DCE to a fixpoint on one function.
func optimizeFunc(f *Func) int {
	removed := 0
	for {
		n := foldOnce(f) + dceOnce(f)
		if n == 0 {
			return removed
		}
		removed += n
	}
}

// regInfo tracks the compile-time knowledge about a register at one
// program point of a straight-line region.
type regInfo struct {
	isConst bool
	val     int64
	copyOf  Reg // NoReg if unknown
}

// foldOnce performs one forward pass over each basic block: registers
// holding known constants let Bin/Not/Neg/CondBr instructions be folded
// in place. Returns the number of instructions simplified structurally
// (branch folds); value folds don't remove instructions by themselves
// (DCE picks up the dead ones).
func foldOnce(f *Func) int {
	leaders := blockLeaders(f)
	changed := 0
	var know []regInfo
	reset := func() {
		know = make([]regInfo, f.NumRegs)
		for i := range know {
			know[i].copyOf = NoReg
		}
	}
	reset()
	clobber := func(r Reg) {
		if r == NoReg {
			return
		}
		know[r] = regInfo{copyOf: NoReg}
		// Anything copying from r is stale now.
		for i := range know {
			if know[i].copyOf == r {
				know[i] = regInfo{copyOf: NoReg}
			}
		}
	}
	constOf := func(r Reg) (int64, bool) {
		if r == NoReg || int(r) >= len(know) {
			return 0, false
		}
		if know[r].isConst {
			return know[r].val, true
		}
		return 0, false
	}
	resolve := func(r Reg) Reg {
		if r != NoReg && int(r) < len(know) && know[r].copyOf != NoReg {
			return know[r].copyOf
		}
		return r
	}

	for i := range f.Code {
		if leaders[i] {
			reset() // conservative: no facts across block boundaries
		}
		in := &f.Code[i]

		// Copy propagation on operands (never on Dst).
		switch in.Op {
		case OpMov, OpNot, OpNeg, OpLoad, OpJoin, OpFree, OpAssert, OpPrint, OpAlloc, OpRet, OpCondBr:
			in.A = resolve(in.A)
		case OpBin:
			in.A = resolve(in.A)
			in.B = resolve(in.B)
		case OpStore:
			in.A = resolve(in.A)
			in.B = resolve(in.B)
		case OpCas:
			in.A = resolve(in.A)
			in.B = resolve(in.B)
			in.C = resolve(in.C)
		case OpCall, OpFork:
			for j := range in.Args {
				in.Args[j] = resolve(in.Args[j])
			}
		}

		switch in.Op {
		case OpConst:
			clobber(in.Dst)
			know[in.Dst] = regInfo{isConst: true, val: in.Imm, copyOf: NoReg}
		case OpGlobal:
			clobber(in.Dst)
			know[in.Dst] = regInfo{isConst: true, val: in.Imm, copyOf: NoReg}
		case OpMov:
			src := in.A
			if v, ok := constOf(src); ok {
				// Rewrite to a constant load; cheaper and enables folding.
				*in = Instr{Label: in.Label, Op: OpConst, Dst: in.Dst, Imm: v, Line: in.Line, Comment: in.Comment}
				clobber(in.Dst)
				know[in.Dst] = regInfo{isConst: true, val: v, copyOf: NoReg}
				changed++
			} else {
				clobber(in.Dst)
				know[in.Dst] = regInfo{copyOf: src}
			}
		case OpBin:
			a, okA := constOf(in.A)
			bv, okB := constOf(in.B)
			if okA && okB {
				v := in.Bin.Eval(a, bv)
				*in = Instr{Label: in.Label, Op: OpConst, Dst: in.Dst, Imm: v, Line: in.Line, Comment: in.Comment}
				clobber(in.Dst)
				know[in.Dst] = regInfo{isConst: true, val: v, copyOf: NoReg}
				changed++
			} else {
				clobber(in.Dst)
			}
		case OpNot:
			if v, ok := constOf(in.A); ok {
				nv := int64(0)
				if v == 0 {
					nv = 1
				}
				*in = Instr{Label: in.Label, Op: OpConst, Dst: in.Dst, Imm: nv, Line: in.Line}
				clobber(in.Dst)
				know[in.Dst] = regInfo{isConst: true, val: nv, copyOf: NoReg}
				changed++
			} else {
				clobber(in.Dst)
			}
		case OpNeg:
			if v, ok := constOf(in.A); ok {
				*in = Instr{Label: in.Label, Op: OpConst, Dst: in.Dst, Imm: -v, Line: in.Line}
				clobber(in.Dst)
				know[in.Dst] = regInfo{isConst: true, val: -v, copyOf: NoReg}
				changed++
			} else {
				clobber(in.Dst)
			}
		case OpCondBr:
			if v, ok := constOf(in.A); ok {
				target := in.Target2
				if v != 0 {
					target = in.Target
				}
				*in = Instr{Label: in.Label, Op: OpBr, Target: target, Line: in.Line}
				changed++
			}
		default:
			// Def(), not Dst: non-result instructions (stores, fences,
			// branches, ...) leave Dst at its zero value, which is register
			// 0, and clobbering it here would discard real facts about r0.
			clobber(in.Def())
		}
	}
	return changed
}

// dceOnce removes pure instructions whose results are never read.
// Instructions with side effects (memory, control, calls, fences, I/O)
// are always kept. Branch targets are retargeted to the removed
// instruction's successor, as fence removal does.
func dceOnce(f *Func) int {
	used := make([]bool, f.NumRegs)
	mark := func(r Reg) {
		if r != NoReg && int(r) < len(used) {
			used[r] = true
		}
	}
	for i := range f.Code {
		in := &f.Code[i]
		switch in.Op {
		case OpConst, OpGlobal, OpSelf:
			// pure producers: operands none
		case OpMov, OpNot, OpNeg:
			mark(in.A)
		case OpBin:
			mark(in.A)
			mark(in.B)
		case OpLoad:
			mark(in.A)
		case OpStore:
			mark(in.A)
			mark(in.B)
		case OpCas:
			mark(in.A)
			mark(in.B)
			mark(in.C)
		case OpCondBr, OpJoin, OpFree, OpAssert, OpPrint, OpAlloc:
			mark(in.A)
		case OpRet:
			if in.HasVal {
				mark(in.A)
			}
		case OpCall, OpFork:
			for _, a := range in.Args {
				mark(a)
			}
		}
	}

	removedIdx := make([]int, 0)
	for i := range f.Code {
		in := &f.Code[i]
		pure := false
		switch in.Op {
		case OpConst, OpGlobal, OpMov, OpBin, OpNot, OpNeg, OpSelf:
			pure = true
		}
		if pure && (in.Dst == NoReg || !used[in.Dst]) {
			removedIdx = append(removedIdx, i)
		}
	}
	if len(removedIdx) == 0 {
		return 0
	}
	// Never empty a function or remove its only terminator path; pure
	// instructions are never terminators, and the function keeps its
	// trailing ret, so removal is safe. Retarget branches to successors,
	// back to front.
	for k := len(removedIdx) - 1; k >= 0; k-- {
		i := removedIdx[k]
		dead := f.Code[i].Label
		succ := f.Code[i+1].Label // pure instrs are never last (ret/br is)
		for j := range f.Code {
			in := &f.Code[j]
			if in.Op != OpBr && in.Op != OpCondBr {
				continue
			}
			if in.Target == dead {
				in.Target = succ
			}
			if in.Op == OpCondBr && in.Target2 == dead {
				in.Target2 = succ
			}
		}
		f.Code = append(f.Code[:i], f.Code[i+1:]...)
	}
	f.Rebuild()
	return len(removedIdx)
}

// blockLeaders marks the instructions that start a basic block.
func blockLeaders(f *Func) []bool {
	leaders := make([]bool, len(f.Code))
	if len(f.Code) > 0 {
		leaders[0] = true
	}
	for i := range f.Code {
		in := &f.Code[i]
		switch in.Op {
		case OpBr:
			if t := f.IndexOf(in.Target); t >= 0 {
				leaders[t] = true
			}
			if i+1 < len(f.Code) {
				leaders[i+1] = true
			}
		case OpCondBr:
			if t := f.IndexOf(in.Target); t >= 0 {
				leaders[t] = true
			}
			if t := f.IndexOf(in.Target2); t >= 0 {
				leaders[t] = true
			}
			if i+1 < len(f.Code) {
				leaders[i+1] = true
			}
		case OpRet:
			if i+1 < len(f.Code) {
				leaders[i+1] = true
			}
		}
	}
	return leaders
}

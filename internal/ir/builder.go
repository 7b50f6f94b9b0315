package ir

import "fmt"

// FuncBuilder incrementally constructs a Func, allocating registers and
// labels, and patching forward branches. It is used by the mini-C lowering
// pass and directly by tests.
//
// Forward branches: BrF/CondBrF emit a branch with an unresolved target and
// return a Patch; calling Patch.Here marks the target as the next emitted
// instruction. Backward branches: NextLabel reserves the label the next
// emitted instruction will carry, so loop headers can be branched to.
type FuncBuilder struct {
	prog     *Program
	fn       *Func
	errs     []error
	pending  []patch // patches resolving to the next emitted instruction
	reserved []Label // labels reserved by NextLabel, consumed FIFO by emit
	curLine  int32   // source line stamped onto emitted instructions
}

// SetLine sets the source line stamped onto subsequently emitted
// instructions (0 disables).
func (b *FuncBuilder) SetLine(line int) { b.curLine = int32(line) }

type patch struct {
	index int  // instruction index within fn.Code
	slot2 bool // patch Target2 instead of Target
}

// Patch is a forward-branch placeholder returned by BrF/CondBrF.
type Patch struct {
	b *FuncBuilder
	p patch
}

// Here resolves the patch to the label of the next emitted instruction.
func (p Patch) Here() {
	p.b.pending = append(p.b.pending, p.p)
}

// NewFuncBuilder starts a function with the given number of parameters.
// Parameter i is available in register Reg(i).
func NewFuncBuilder(p *Program, name string, numParams int) *FuncBuilder {
	return &FuncBuilder{
		prog: p,
		fn: &Func{
			Name:      name,
			NumParams: numParams,
			NumRegs:   numParams,
		},
	}
}

// MarkOperation flags the function as a specification-visible operation.
func (b *FuncBuilder) MarkOperation() *FuncBuilder {
	b.fn.IsOperation = true
	return b
}

// NewReg allocates a fresh virtual register.
func (b *FuncBuilder) NewReg() Reg {
	r := Reg(b.fn.NumRegs)
	b.fn.NumRegs++
	return r
}

// Param returns the register holding parameter i.
func (b *FuncBuilder) Param(i int) Reg {
	if i < 0 || i >= b.fn.NumParams {
		b.errs = append(b.errs, fmt.Errorf("ir: %s: parameter %d out of range", b.fn.Name, i))
		return 0
	}
	return Reg(i)
}

// NextLabel reserves and returns the label that the next emitted
// instruction will carry, for use as a backward-branch target.
func (b *FuncBuilder) NextLabel() Label {
	l := b.prog.NewLabel()
	b.reserved = append(b.reserved, l)
	return l
}

func (b *FuncBuilder) emit(in Instr) Label {
	in.Line = b.curLine
	if len(b.reserved) > 0 {
		in.Label = b.reserved[0]
		b.reserved = b.reserved[1:]
	} else {
		in.Label = b.prog.NewLabel()
	}
	for _, p := range b.pending {
		if p.slot2 {
			b.fn.Code[p.index].Target2 = in.Label
		} else {
			b.fn.Code[p.index].Target = in.Label
		}
	}
	b.pending = b.pending[:0]
	b.fn.Code = append(b.fn.Code, in)
	return in.Label
}

// Const emits r = imm and returns r.
func (b *FuncBuilder) Const(v int64) Reg {
	r := b.NewReg()
	b.emit(Instr{Op: OpConst, Dst: r, Imm: v})
	return r
}

// GlobalAddr emits r = &name and returns r.
func (b *FuncBuilder) GlobalAddr(name string) Reg {
	r := b.NewReg()
	b.emit(Instr{Op: OpGlobal, Dst: r, Func: name, Comment: "&" + name})
	return r
}

// Mov emits dst = src.
func (b *FuncBuilder) Mov(dst, src Reg) { b.emit(Instr{Op: OpMov, Dst: dst, A: src}) }

// BinOp emits r = a op b into a fresh register and returns it.
func (b *FuncBuilder) BinOp(op Bin, x, y Reg) Reg {
	r := b.NewReg()
	b.emit(Instr{Op: OpBin, Bin: op, Dst: r, A: x, B: y})
	return r
}

// BinTo emits dst = a op b.
func (b *FuncBuilder) BinTo(dst Reg, op Bin, x, y Reg) {
	b.emit(Instr{Op: OpBin, Bin: op, Dst: dst, A: x, B: y})
}

// Not emits r = !a and returns r.
func (b *FuncBuilder) Not(x Reg) Reg {
	r := b.NewReg()
	b.emit(Instr{Op: OpNot, Dst: r, A: x})
	return r
}

// Neg emits r = -a and returns r.
func (b *FuncBuilder) Neg(x Reg) Reg {
	r := b.NewReg()
	b.emit(Instr{Op: OpNeg, Dst: r, A: x})
	return r
}

// Load emits r = [addr] and returns r and the load's label.
func (b *FuncBuilder) Load(addr Reg, comment string) (Reg, Label) {
	r := b.NewReg()
	l := b.emit(Instr{Op: OpLoad, Dst: r, A: addr, Comment: comment})
	return r, l
}

// Store emits [addr] = val and returns the store's label.
func (b *FuncBuilder) Store(addr, val Reg, comment string) Label {
	return b.emit(Instr{Op: OpStore, A: addr, B: val, Comment: comment})
}

// Cas emits r = cas([addr], old, new) and returns r and the label.
func (b *FuncBuilder) Cas(addr, old, newv Reg, comment string) (Reg, Label) {
	r := b.NewReg()
	l := b.emit(Instr{Op: OpCas, Dst: r, A: addr, B: old, C: newv, Comment: comment})
	return r, l
}

// Fence emits a fence of the given kind and returns its label.
func (b *FuncBuilder) Fence(kind FenceKind) Label {
	return b.emit(Instr{Op: OpFence, Kind: kind})
}

// Call emits dst = call fn(args...). Pass NoReg as dst to drop the result.
func (b *FuncBuilder) Call(dst Reg, fn string, args ...Reg) Label {
	return b.emit(Instr{Op: OpCall, Dst: dst, Func: fn, Args: args})
}

// Fork emits tid = fork fn(args...) and returns tid.
func (b *FuncBuilder) Fork(fn string, args ...Reg) Reg {
	r := b.NewReg()
	b.emit(Instr{Op: OpFork, Dst: r, Func: fn, Args: args})
	return r
}

// Join emits join(tid).
func (b *FuncBuilder) Join(tid Reg) { b.emit(Instr{Op: OpJoin, A: tid}) }

// Self emits r = self() and returns r.
func (b *FuncBuilder) Self() Reg {
	r := b.NewReg()
	b.emit(Instr{Op: OpSelf, Dst: r})
	return r
}

// Alloc emits r = alloc(size) and returns r.
func (b *FuncBuilder) Alloc(size Reg) Reg {
	r := b.NewReg()
	b.emit(Instr{Op: OpAlloc, Dst: r, A: size})
	return r
}

// Free emits free(addr).
func (b *FuncBuilder) Free(addr Reg) { b.emit(Instr{Op: OpFree, A: addr}) }

// Assert emits assert(cond, msg).
func (b *FuncBuilder) Assert(cond Reg, msg string) { b.emit(Instr{Op: OpAssert, A: cond, Msg: msg}) }

// Print emits print(x).
func (b *FuncBuilder) Print(x Reg) { b.emit(Instr{Op: OpPrint, A: x}) }

// Ret emits a void return.
func (b *FuncBuilder) Ret() { b.emit(Instr{Op: OpRet}) }

// RetVal emits return x.
func (b *FuncBuilder) RetVal(x Reg) { b.emit(Instr{Op: OpRet, A: x, HasVal: true}) }

// BrF emits an unconditional branch whose target is patched later.
func (b *FuncBuilder) BrF() Patch {
	b.emit(Instr{Op: OpBr, Target: NoLabel})
	return Patch{b: b, p: patch{index: len(b.fn.Code) - 1}}
}

// Br emits an unconditional branch to an existing label.
func (b *FuncBuilder) Br(target Label) { b.emit(Instr{Op: OpBr, Target: target}) }

// CondBr emits a conditional branch to existing labels.
func (b *FuncBuilder) CondBr(cond Reg, taken, fallthru Label) {
	b.emit(Instr{Op: OpCondBr, A: cond, Target: taken, Target2: fallthru})
}

// CondBrF emits a conditional branch with both targets patched later.
func (b *FuncBuilder) CondBrF(cond Reg) (taken, fallthru Patch) {
	b.emit(Instr{Op: OpCondBr, A: cond, Target: NoLabel, Target2: NoLabel})
	i := len(b.fn.Code) - 1
	return Patch{b: b, p: patch{index: i}}, Patch{b: b, p: patch{index: i, slot2: true}}
}

// Finish validates and registers the function with the program. If the body
// does not end in a terminator, a void return is appended.
func (b *FuncBuilder) Finish() (*Func, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.pending) > 0 || len(b.reserved) > 0 {
		// Pending patches or reserved labels bind to a trailing return.
		b.emit(Instr{Op: OpRet})
	} else if n := len(b.fn.Code); n == 0 || (b.fn.Code[n-1].Op != OpRet && b.fn.Code[n-1].Op != OpBr) {
		b.emit(Instr{Op: OpRet})
	}
	if err := b.prog.AddFunc(b.fn); err != nil {
		return nil, err
	}
	return b.fn, nil
}

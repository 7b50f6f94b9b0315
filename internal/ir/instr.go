package ir

import (
	"fmt"
	"strings"
)

// Label uniquely identifies an instruction within a Program. Labels are
// assigned when instructions are created and never change; branch targets
// and ordering predicates refer to labels, so inserting instructions (e.g.
// synthesized fences) never invalidates them.
type Label int32

// NoLabel marks an unset label or branch target.
const NoLabel Label = -1

// Reg indexes a virtual register in the current frame. Registers are
// thread-local: they model the paper's Local environment L and are never
// subject to the memory model.
type Reg int32

// NoReg marks an unused register operand.
const NoReg Reg = -1

// Instr is a single IR instruction. One struct covers all opcodes; which
// fields are meaningful depends on Op (see the Op constants).
type Instr struct {
	Label Label
	Op    Op

	Dst Reg // result register
	A   Reg // first operand
	B   Reg // second operand
	C   Reg // third operand (OpCas new-value)

	Imm  int64 // OpConst immediate; OpGlobal resolved address
	Bin  Bin   // OpBin operation
	Kind FenceKind

	Target  Label // OpBr/OpCondBr taken target
	Target2 Label // OpCondBr fall-through target

	Func string // OpCall/OpFork callee; OpGlobal global name
	Args []Reg  // OpCall/OpFork arguments

	HasVal bool   // OpRet: register A carries a value
	Msg    string // OpAssert message

	// Comment optionally records the source construct (variable name,
	// line) for disassembly and reporting.
	Comment string

	// Line is the source line this instruction was lowered from (0 when
	// built directly). Synthesis reports use it to phrase fence positions
	// the way the paper's Table 3 does: "(method, line1:line2)".
	Line int32
}

// String renders the instruction in disassembly form.
func (in *Instr) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "L%d: ", in.Label)
	switch in.Op {
	case OpConst:
		fmt.Fprintf(&b, "r%d = const %d", in.Dst, in.Imm)
	case OpGlobal:
		fmt.Fprintf(&b, "r%d = &%s (addr %d)", in.Dst, in.Func, in.Imm)
	case OpMov:
		fmt.Fprintf(&b, "r%d = r%d", in.Dst, in.A)
	case OpBin:
		fmt.Fprintf(&b, "r%d = %s r%d, r%d", in.Dst, in.Bin, in.A, in.B)
	case OpNot:
		fmt.Fprintf(&b, "r%d = not r%d", in.Dst, in.A)
	case OpNeg:
		fmt.Fprintf(&b, "r%d = neg r%d", in.Dst, in.A)
	case OpLoad:
		fmt.Fprintf(&b, "r%d = load [r%d]", in.Dst, in.A)
	case OpStore:
		fmt.Fprintf(&b, "store [r%d], r%d", in.A, in.B)
	case OpCas:
		fmt.Fprintf(&b, "r%d = cas [r%d], r%d, r%d", in.Dst, in.A, in.B, in.C)
	case OpFence:
		b.WriteString(in.Kind.String())
	case OpBr:
		fmt.Fprintf(&b, "br L%d", in.Target)
	case OpCondBr:
		fmt.Fprintf(&b, "condbr r%d, L%d, L%d", in.A, in.Target, in.Target2)
	case OpCall:
		writeCall(&b, in)
	case OpRet:
		if in.HasVal {
			fmt.Fprintf(&b, "ret r%d", in.A)
		} else {
			b.WriteString("ret")
		}
	case OpFork:
		fmt.Fprintf(&b, "r%d = fork %s%s", in.Dst, in.Func, argList(in.Args))
	case OpJoin:
		fmt.Fprintf(&b, "join r%d", in.A)
	case OpSelf:
		fmt.Fprintf(&b, "r%d = self", in.Dst)
	case OpAlloc:
		fmt.Fprintf(&b, "r%d = alloc r%d", in.Dst, in.A)
	case OpFree:
		fmt.Fprintf(&b, "free r%d", in.A)
	case OpAssert:
		fmt.Fprintf(&b, "assert r%d, %q", in.A, in.Msg)
	case OpPrint:
		fmt.Fprintf(&b, "print r%d", in.A)
	default:
		fmt.Fprintf(&b, "%s ???", in.Op)
	}
	if in.Comment != "" {
		fmt.Fprintf(&b, "  ; %s", in.Comment)
	}
	return b.String()
}

func writeCall(b *strings.Builder, in *Instr) {
	if in.Dst != NoReg {
		fmt.Fprintf(b, "r%d = ", in.Dst)
	}
	fmt.Fprintf(b, "call %s%s", in.Func, argList(in.Args))
}

func argList(args []Reg) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = fmt.Sprintf("r%d", a)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Def returns the register the instruction writes, or NoReg for
// instructions without a result (store, fence, branches, ...). OpCall
// returns NoReg when the call result is discarded.
func (in *Instr) Def() Reg {
	switch in.Op {
	case OpConst, OpGlobal, OpSelf, OpMov, OpBin, OpNot, OpNeg,
		OpLoad, OpCas, OpFork, OpAlloc:
		return in.Dst
	case OpCall:
		return in.Dst // may be NoReg
	}
	return NoReg
}

// Uses appends the registers the instruction reads to dst and returns the
// extended slice. Callers typically reuse dst across instructions to avoid
// allocation.
func (in *Instr) Uses(dst []Reg) []Reg {
	switch in.Op {
	case OpMov, OpNot, OpNeg, OpLoad, OpCondBr, OpJoin, OpFree, OpAssert, OpPrint, OpAlloc:
		dst = append(dst, in.A)
	case OpBin, OpStore:
		dst = append(dst, in.A, in.B)
	case OpCas:
		dst = append(dst, in.A, in.B, in.C)
	case OpCall, OpFork:
		dst = append(dst, in.Args...)
	case OpRet:
		if in.HasVal {
			dst = append(dst, in.A)
		}
	}
	return dst
}

// IsSharedAccess reports whether the instruction touches shared memory
// (load, store, or CAS through the memory model).
func (in *Instr) IsSharedAccess() bool {
	return in.Op == OpLoad || in.Op == OpStore || in.Op == OpCas
}

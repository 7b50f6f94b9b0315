package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Global describes one global shared variable or array. Globals are the
// primary shared state of the benchmarks (e.g. H, T and items[] of a
// work-stealing queue). Each occupies Size consecutive words and forms one
// memory-safety unit.
type Global struct {
	Name string
	Size int64   // in words; >= 1
	Init []int64 // optional initial values (len <= Size); rest zero
	Addr int64   // assigned by Program.Link
}

// Func is one function: a flat sequence of labelled instructions.
// Registers 0..NumParams-1 receive the arguments.
type Func struct {
	Name      string
	NumParams int
	NumRegs   int
	Code      []Instr

	// IsOperation marks functions whose calls and returns form the
	// observable history checked against the sequential specification
	// (e.g. put/take/steal). The interpreter records an invoke event when
	// such a function is entered and a response event when it returns.
	IsOperation bool

	labelIdx map[Label]int // rebuilt by reindex
}

// reindex rebuilds the label-to-position map after any code mutation.
func (f *Func) reindex() {
	if f.labelIdx == nil {
		f.labelIdx = make(map[Label]int, len(f.Code))
	} else {
		clear(f.labelIdx)
	}
	for i := range f.Code {
		f.labelIdx[f.Code[i].Label] = i
	}
}

// Rebuild refreshes the label index after external mutation of Code
// (e.g. an optimization pass removing instructions).
func (f *Func) Rebuild() { f.reindex() }

// IndexOf returns the position of the instruction with the given label, or
// -1 if the label is not in this function.
func (f *Func) IndexOf(l Label) int {
	if idx, ok := f.labelIdx[l]; ok {
		return idx
	}
	return -1
}

// Program is a complete linked IR program: globals, functions, and an entry
// point. The zero Program is empty; use NewProgram or a Builder.
type Program struct {
	Globals []*Global
	Funcs   map[string]*Func
	Entry   string // entry function name, normally "main"

	nextLabel Label
	globalsSz int64 // total words of global segment, set by Link
	byName    map[string]*Global
}

// NewProgram returns an empty program with entry point "main".
func NewProgram() *Program {
	return &Program{
		Funcs:  make(map[string]*Func),
		Entry:  "main",
		byName: make(map[string]*Global),
	}
}

// NewLabel allocates a fresh instruction label.
func (p *Program) NewLabel() Label {
	l := p.nextLabel
	p.nextLabel++
	return l
}

// AddGlobal registers a global variable. Call Link afterwards to assign
// addresses.
func (p *Program) AddGlobal(g *Global) error {
	if g.Size < 1 {
		return fmt.Errorf("ir: global %s has non-positive size %d", g.Name, g.Size)
	}
	if _, dup := p.byName[g.Name]; dup {
		return fmt.Errorf("ir: duplicate global %s", g.Name)
	}
	p.Globals = append(p.Globals, g)
	p.byName[g.Name] = g
	return nil
}

// Global returns the named global, or nil.
func (p *Program) Global(name string) *Global {
	return p.byName[name]
}

// AddFunc registers a function.
func (p *Program) AddFunc(f *Func) error {
	if _, dup := p.Funcs[f.Name]; dup {
		return fmt.Errorf("ir: duplicate function %s", f.Name)
	}
	f.reindex()
	p.Funcs[f.Name] = f
	return nil
}

// GlobalsSize returns the number of words occupied by the global segment
// (valid after Link).
func (p *Program) GlobalsSize() int64 { return p.globalsSz }

// Link assigns global addresses (address 0 is reserved as NULL), resolves
// OpGlobal immediates, and validates the program.
func (p *Program) Link() error {
	addr := int64(1) // 0 is NULL
	for _, g := range p.Globals {
		g.Addr = addr
		addr += g.Size
	}
	p.globalsSz = addr
	for _, f := range p.Funcs {
		for i := range f.Code {
			in := &f.Code[i]
			if in.Op == OpGlobal {
				g := p.byName[in.Func]
				if g == nil {
					return fmt.Errorf("ir: %s: L%d references unknown global %s", f.Name, in.Label, in.Func)
				}
				in.Imm = g.Addr
			}
		}
		f.reindex()
	}
	return p.Validate()
}

// Validate checks structural well-formedness: labels unique program-wide,
// branch targets resolvable, register indices within bounds, callees
// defined, entry present.
func (p *Program) Validate() error {
	if _, ok := p.Funcs[p.Entry]; !ok {
		return fmt.Errorf("ir: entry function %q not defined", p.Entry)
	}
	seen := make(map[Label]string)
	for _, f := range p.Funcs {
		if f.NumParams > f.NumRegs {
			return fmt.Errorf("ir: %s: NumParams %d exceeds NumRegs %d", f.Name, f.NumParams, f.NumRegs)
		}
		if len(f.Code) == 0 {
			return fmt.Errorf("ir: %s: empty body", f.Name)
		}
		for i := range f.Code {
			in := &f.Code[i]
			if in.Op == OpInvalid {
				return fmt.Errorf("ir: %s: instruction %d is invalid", f.Name, i)
			}
			if prev, dup := seen[in.Label]; dup {
				return fmt.Errorf("ir: label L%d duplicated in %s and %s", in.Label, prev, f.Name)
			}
			seen[in.Label] = f.Name
			if err := p.validateInstr(f, in); err != nil {
				return err
			}
		}
		// Branch targets must stay within the function.
		for i := range f.Code {
			in := &f.Code[i]
			var targets []Label
			switch in.Op {
			case OpBr:
				targets = []Label{in.Target}
			case OpCondBr:
				targets = []Label{in.Target, in.Target2}
			}
			for _, t := range targets {
				if t == NoLabel || f.IndexOf(t) < 0 {
					return fmt.Errorf("ir: %s: L%d branches to L%d outside the function", f.Name, in.Label, t)
				}
			}
		}
		last := &f.Code[len(f.Code)-1]
		if last.Op != OpRet && last.Op != OpBr {
			return fmt.Errorf("ir: %s: function does not end in ret or br", f.Name)
		}
	}
	return nil
}

func (p *Program) validateInstr(f *Func, in *Instr) error {
	ck := func(r Reg, what string) error {
		if r == NoReg {
			return fmt.Errorf("ir: %s: L%d: missing %s register", f.Name, in.Label, what)
		}
		if int(r) < 0 || int(r) >= f.NumRegs {
			return fmt.Errorf("ir: %s: L%d: %s register r%d out of range [0,%d)", f.Name, in.Label, what, r, f.NumRegs)
		}
		return nil
	}
	need := func(rs ...Reg) error {
		names := []string{"dst", "a", "b", "c"}
		for i, r := range rs {
			if r == NoReg {
				continue
			}
			if err := ck(r, names[i%len(names)]); err != nil {
				return err
			}
		}
		return nil
	}
	switch in.Op {
	case OpConst, OpGlobal, OpSelf:
		return ck(in.Dst, "dst")
	case OpMov, OpNot, OpNeg:
		if err := ck(in.Dst, "dst"); err != nil {
			return err
		}
		return ck(in.A, "src")
	case OpBin:
		if err := ck(in.Dst, "dst"); err != nil {
			return err
		}
		if err := ck(in.A, "a"); err != nil {
			return err
		}
		return ck(in.B, "b")
	case OpLoad:
		if err := ck(in.Dst, "dst"); err != nil {
			return err
		}
		return ck(in.A, "addr")
	case OpStore:
		if err := ck(in.A, "addr"); err != nil {
			return err
		}
		return ck(in.B, "val")
	case OpCas:
		if err := ck(in.Dst, "dst"); err != nil {
			return err
		}
		if err := ck(in.A, "addr"); err != nil {
			return err
		}
		if err := ck(in.B, "old"); err != nil {
			return err
		}
		return ck(in.C, "new")
	case OpFence:
		return nil
	case OpBr:
		if in.Target == NoLabel {
			return fmt.Errorf("ir: %s: L%d: br without target", f.Name, in.Label)
		}
		return nil
	case OpCondBr:
		if in.Target == NoLabel || in.Target2 == NoLabel {
			return fmt.Errorf("ir: %s: L%d: condbr without both targets", f.Name, in.Label)
		}
		return ck(in.A, "cond")
	case OpCall, OpFork:
		callee, ok := p.Funcs[in.Func]
		if !ok {
			return fmt.Errorf("ir: %s: L%d: call of undefined function %s", f.Name, in.Label, in.Func)
		}
		if len(in.Args) != callee.NumParams {
			return fmt.Errorf("ir: %s: L%d: %s expects %d args, got %d", f.Name, in.Label, in.Func, callee.NumParams, len(in.Args))
		}
		if err := need(in.Args...); err != nil {
			return err
		}
		if in.Op == OpFork {
			return ck(in.Dst, "dst")
		}
		if in.Dst != NoReg {
			return ck(in.Dst, "dst")
		}
		return nil
	case OpRet:
		if in.HasVal {
			return ck(in.A, "ret")
		}
		return nil
	case OpJoin, OpFree, OpPrint:
		return ck(in.A, "a")
	case OpAssert:
		return ck(in.A, "cond")
	case OpAlloc:
		if err := ck(in.Dst, "dst"); err != nil {
			return err
		}
		return ck(in.A, "size")
	}
	return fmt.Errorf("ir: %s: L%d: unknown opcode %v", f.Name, in.Label, in.Op)
}

// FuncOf returns the function containing the given label, or nil.
func (p *Program) FuncOf(l Label) *Func {
	for _, f := range p.Funcs {
		if f.IndexOf(l) >= 0 {
			return f
		}
	}
	return nil
}

// InstrAt returns the instruction with the given label, or nil.
func (p *Program) InstrAt(l Label) *Instr {
	f := p.FuncOf(l)
	if f == nil {
		return nil
	}
	return &f.Code[f.IndexOf(l)]
}

// InsertFenceAfter inserts a fence of the given kind immediately after the
// instruction labelled l (paper Algorithm 2, line 5). The fence receives a
// fresh label, which is returned. Branch targets are unaffected: any branch
// to the successor of l still skips the fence, which is correct because the
// ordering predicate only constrains the program-order path through l.
func (p *Program) InsertFenceAfter(l Label, kind FenceKind) (Label, error) {
	f := p.FuncOf(l)
	if f == nil {
		return NoLabel, fmt.Errorf("ir: InsertFenceAfter: label L%d not found", l)
	}
	idx := f.IndexOf(l)
	nl := p.NewLabel()
	fence := Instr{Label: nl, Op: OpFence, Kind: kind, Comment: fmt.Sprintf("synthesized after L%d", l)}
	f.Code = append(f.Code, Instr{})
	copy(f.Code[idx+2:], f.Code[idx+1:])
	f.Code[idx+1] = fence
	f.reindex()
	return nl, nil
}

// InsertDummyCASAfter inserts, immediately after the instruction labelled
// l, the sequence
//
//	r1 = &global; r2 = 0; r3 = 0; r4 = cas [r1], r2, r3
//
// realizing the paper's §4.2 "Enforce with CAS" alternative: on TSO a CAS
// to a dummy location (whose result and operands are never used) drains
// the store buffer exactly like a fence. The named global must exist.
// Returns the label of the CAS instruction.
func (p *Program) InsertDummyCASAfter(l Label, global string) (Label, error) {
	f := p.FuncOf(l)
	if f == nil {
		return NoLabel, fmt.Errorf("ir: InsertDummyCASAfter: label L%d not found", l)
	}
	g := p.Global(global)
	if g == nil {
		return NoLabel, fmt.Errorf("ir: InsertDummyCASAfter: unknown global %q", global)
	}
	idx := f.IndexOf(l)
	r1 := Reg(f.NumRegs)
	r2 := Reg(f.NumRegs + 1)
	r3 := Reg(f.NumRegs + 2)
	r4 := Reg(f.NumRegs + 3)
	f.NumRegs += 4
	casLabel := p.NewLabel()
	seq := []Instr{
		{Label: p.NewLabel(), Op: OpGlobal, Dst: r1, Func: global, Imm: g.Addr, Comment: "&" + global},
		{Label: p.NewLabel(), Op: OpConst, Dst: r2, Imm: 0},
		{Label: p.NewLabel(), Op: OpConst, Dst: r3, Imm: 0},
		{Label: casLabel, Op: OpCas, Dst: r4, A: r1, B: r2, C: r3, Comment: fmt.Sprintf("dummy cas after L%d", l)},
	}
	f.Code = append(f.Code, make([]Instr, len(seq))...)
	copy(f.Code[idx+1+len(seq):], f.Code[idx+1:len(f.Code)-len(seq)])
	copy(f.Code[idx+1:], seq)
	f.reindex()
	return casLabel, nil
}

// CountStores returns the number of shared store instructions — the
// paper's "insertion points" metric (Table 3 last column: "the total number
// of store instructions in the LLVM bytecode").
func (p *Program) CountStores() int {
	n := 0
	for _, f := range p.Funcs {
		for i := range f.Code {
			if op := f.Code[i].Op; op == OpStore || op == OpCas {
				n++
			}
		}
	}
	return n
}

// CountInstrs returns the total instruction count (the "bytecode LOC"
// analogue).
func (p *Program) CountInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Code)
	}
	return n
}

// Fences returns the labels of all fence instructions, sorted.
func (p *Program) Fences() []Label {
	var out []Label
	for _, f := range p.Funcs {
		for i := range f.Code {
			if f.Code[i].Op == OpFence {
				out = append(out, f.Code[i].Label)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy of the program. Synthesis mutates its working
// copy (inserting fences) while callers keep the original.
func (p *Program) Clone() *Program {
	q := NewProgram()
	q.Entry = p.Entry
	q.nextLabel = p.nextLabel
	q.globalsSz = p.globalsSz
	for _, g := range p.Globals {
		ng := &Global{Name: g.Name, Size: g.Size, Addr: g.Addr}
		ng.Init = append([]int64(nil), g.Init...)
		q.Globals = append(q.Globals, ng)
		q.byName[ng.Name] = ng
	}
	for name, f := range p.Funcs {
		nf := &Func{
			Name:        f.Name,
			NumParams:   f.NumParams,
			NumRegs:     f.NumRegs,
			IsOperation: f.IsOperation,
			Code:        make([]Instr, len(f.Code)),
		}
		copy(nf.Code, f.Code)
		for i := range nf.Code {
			nf.Code[i].Args = append([]Reg(nil), nf.Code[i].Args...)
		}
		nf.reindex()
		q.Funcs[name] = nf
	}
	return q
}

// FuncNames returns the function names in sorted order (for deterministic
// iteration).
func (p *Program) FuncNames() []string {
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Disasm renders the whole program as text.
func (p *Program) Disasm() string {
	var b strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "global %s[%d] @%d", g.Name, g.Size, g.Addr)
		if len(g.Init) > 0 {
			fmt.Fprintf(&b, " = %v", g.Init)
		}
		b.WriteByte('\n')
	}
	for _, name := range p.FuncNames() {
		f := p.Funcs[name]
		kind := "func"
		if f.IsOperation {
			kind = "operation"
		}
		fmt.Fprintf(&b, "\n%s %s (params=%d regs=%d):\n", kind, name, f.NumParams, f.NumRegs)
		for i := range f.Code {
			fmt.Fprintf(&b, "  %s\n", f.Code[i].String())
		}
	}
	return b.String()
}

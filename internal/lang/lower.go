package lang

import (
	"fmt"

	"dfence/internal/ir"
	"dfence/internal/staticanalysis"
)

// Compile parses, analyzes, and lowers mini-C source into a linked IR
// program ready for execution and synthesis.
func Compile(src string) (*ir.Program, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	u, err := Analyze(f)
	if err != nil {
		return nil, err
	}
	return Lower(u)
}

// MustCompile is Compile that panics on error — for the embedded benchmark
// programs, whose sources are fixed at build time and covered by tests.
func MustCompile(src string) *ir.Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Lower generates IR for an analyzed unit and links it.
func Lower(u *Unit) (*ir.Program, error) {
	prog := ir.NewProgram()
	for _, g := range u.GlobalOrder {
		if err := prog.AddGlobal(&ir.Global{Name: g.Name, Size: g.Words}); err != nil {
			return nil, err
		}
	}
	// Scalar initializers.
	for _, gd := range u.File.Globals {
		if gd.Init == nil {
			continue
		}
		v, err := u.foldConst(gd.Init)
		if err != nil {
			return nil, err
		}
		prog.Global(gd.Name).Init = []int64{v}
	}
	for _, fn := range u.File.Funcs {
		if err := lowerFunc(u, prog, fn); err != nil {
			return nil, err
		}
	}
	if err := prog.Link(); err != nil {
		return nil, err
	}
	// The verifier backstops the lowering itself: any def-before-use hole
	// or stale link the front end produces is a compiler bug and surfaces
	// here instead of as a miscompiled execution.
	if err := staticanalysis.Verify(prog); err != nil {
		return nil, fmt.Errorf("lower: generated IR failed verification: %w", err)
	}
	return prog, nil
}

// loopCtx tracks the innermost loop's branch targets during lowering.
type loopCtx struct {
	continueTo  ir.Label   // backward target (loop head or post section)
	contFwd     []ir.Patch // forward continues (for-loop post emitted later)
	breaks      []ir.Patch
	forwardCont bool
}

type lowerer struct {
	u     *Unit
	prog  *ir.Program
	b     *ir.FuncBuilder
	regs  map[*Symbol]ir.Reg
	loops []*loopCtx
	ret   *Type
	fname string
}

func lowerFunc(u *Unit, prog *ir.Program, fn *FuncDecl) error {
	b := ir.NewFuncBuilder(prog, fn.Name, len(fn.Params))
	if fn.IsOperation {
		b.MarkOperation()
	}
	l := &lowerer{
		u:     u,
		prog:  prog,
		b:     b,
		regs:  map[*Symbol]ir.Reg{},
		ret:   u.Funcs[fn.Name].Type,
		fname: fn.Name,
	}
	// Sema bound a symbol to each parameter; map them to the incoming
	// argument registers.
	for i := range fn.Params {
		l.regs[fn.Params[i].Sym] = b.Param(i)
	}

	if err := l.block(fn.Body); err != nil {
		return err
	}
	// Fall-off-the-end: non-void functions return 0; void functions return.
	b.SetLine(0)
	if l.ret.Kind != KVoid {
		z := b.Const(0)
		b.RetVal(z)
	} else {
		b.Ret()
	}
	_, err := b.Finish()
	return err
}

func (l *lowerer) errf(line int, format string, args ...any) error {
	return fmt.Errorf("line %d (%s): %s", line, l.fname, fmt.Sprintf(format, args...))
}

// reg returns (allocating on demand) the register of a local/param symbol.
func (l *lowerer) reg(sym *Symbol) ir.Reg {
	if r, ok := l.regs[sym]; ok {
		return r
	}
	r := l.b.NewReg()
	l.regs[sym] = r
	return r
}

func (l *lowerer) block(b *BlockStmt) error {
	for _, s := range b.Stmts {
		if err := l.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (l *lowerer) stmt(s Stmt) error {
	switch x := s.(type) {
	case *BlockStmt:
		return l.block(x)

	case *DeclStmt:
		l.b.SetLine(x.Line)
		dst := l.reg(x.Sym)
		if x.Init != nil {
			v, err := l.expr(x.Init)
			if err != nil {
				return err
			}
			l.b.Mov(dst, v)
		} else {
			z := l.b.Const(0)
			l.b.Mov(dst, z)
		}
		return nil

	case *AssignStmt:
		l.b.SetLine(x.Line)
		return l.assign(x.LHS, x.RHS)

	case *ExprStmt:
		l.b.SetLine(x.Line)
		_, err := l.expr(x.X)
		return err

	case *IfStmt:
		l.b.SetLine(x.Line)
		cond, err := l.expr(x.Cond)
		if err != nil {
			return err
		}
		thenP, elseP := l.b.CondBrF(cond)
		thenP.Here()
		if err := l.block(x.Then); err != nil {
			return err
		}
		if x.Else == nil {
			elseP.Here()
			return nil
		}
		endP := l.b.BrF()
		elseP.Here()
		if err := l.stmt(x.Else); err != nil {
			return err
		}
		endP.Here()
		return nil

	case *WhileStmt:
		l.b.SetLine(x.Line)
		head := l.b.NextLabel()
		cond, err := l.expr(x.Cond)
		if err != nil {
			return err
		}
		bodyP, exitP := l.b.CondBrF(cond)
		bodyP.Here()
		lc := &loopCtx{continueTo: head}
		l.loops = append(l.loops, lc)
		err = l.block(x.Body)
		l.loops = l.loops[:len(l.loops)-1]
		if err != nil {
			return err
		}
		l.b.Br(head)
		exitP.Here()
		for _, p := range lc.breaks {
			p.Here()
		}
		return nil

	case *ForStmt:
		l.b.SetLine(x.Line)
		if x.Init != nil {
			if err := l.stmt(x.Init); err != nil {
				return err
			}
		}
		head := l.b.NextLabel()
		var bodyP, exitP ir.Patch
		hasCond := x.Cond != nil
		if hasCond {
			cond, err := l.expr(x.Cond)
			if err != nil {
				return err
			}
			bodyP, exitP = l.b.CondBrF(cond)
			bodyP.Here()
		}
		lc := &loopCtx{forwardCont: x.Post != nil, continueTo: head}
		l.loops = append(l.loops, lc)
		err := l.block(x.Body)
		l.loops = l.loops[:len(l.loops)-1]
		if err != nil {
			return err
		}
		// Post section: forward continues land here.
		for _, p := range lc.contFwd {
			p.Here()
		}
		if x.Post != nil {
			if err := l.stmt(x.Post); err != nil {
				return err
			}
		}
		l.b.Br(head)
		if hasCond {
			exitP.Here()
		}
		for _, p := range lc.breaks {
			p.Here()
		}
		return nil

	case *ReturnStmt:
		l.b.SetLine(x.Line)
		if x.X == nil {
			l.b.Ret()
			return nil
		}
		v, err := l.expr(x.X)
		if err != nil {
			return err
		}
		l.b.RetVal(v)
		return nil

	case *BreakStmt:
		l.b.SetLine(x.Line)
		lc := l.loops[len(l.loops)-1]
		lc.breaks = append(lc.breaks, l.b.BrF())
		return nil

	case *ContinueStmt:
		l.b.SetLine(x.Line)
		lc := l.loops[len(l.loops)-1]
		if lc.forwardCont {
			lc.contFwd = append(lc.contFwd, l.b.BrF())
		} else {
			l.b.Br(lc.continueTo)
		}
		return nil

	case *JoinStmt:
		l.b.SetLine(x.Line)
		v, err := l.expr(x.X)
		if err != nil {
			return err
		}
		l.b.Join(v)
		return nil
	}
	return fmt.Errorf("lower: unknown statement %T", s)
}

// assign lowers LHS = RHS.
func (l *lowerer) assign(lhs, rhs Expr) error {
	// Local/param targets are registers.
	if id, ok := lhs.(*Ident); ok && (id.Sym.Kind == SymLocal || id.Sym.Kind == SymParam) {
		v, err := l.expr(rhs)
		if err != nil {
			return err
		}
		l.b.Mov(l.reg(id.Sym), v)
		return nil
	}
	addr, err := l.addr(lhs)
	if err != nil {
		return err
	}
	v, err := l.expr(rhs)
	if err != nil {
		return err
	}
	l.b.Store(addr, v, describe(lhs))
	return nil
}

// addr lowers a memory lvalue to its address register.
func (l *lowerer) addr(e Expr) (ir.Reg, error) {
	switch x := e.(type) {
	case *Ident:
		if x.Sym.Kind == SymGlobal {
			return l.b.GlobalAddr(x.Name), nil
		}
		return 0, l.errf(x.Pos(), "%q is not in memory", x.Name)
	case *Unary:
		if x.Op == "*" {
			return l.expr(x.X)
		}
	case *Index:
		base, err := l.expr(x.Base)
		if err != nil {
			return 0, err
		}
		idx, err := l.expr(x.Idx)
		if err != nil {
			return 0, err
		}
		stride := x.Type().SizeWords()
		if stride != 1 {
			s := l.b.Const(stride)
			idx = l.b.BinOp(ir.BinMul, idx, s)
		}
		return l.b.BinOp(ir.BinAdd, base, idx), nil
	case *Field:
		var base ir.Reg
		var err error
		if x.Arrow {
			base, err = l.expr(x.Base)
		} else {
			base, err = l.addr(x.Base)
		}
		if err != nil {
			return 0, err
		}
		if x.Offset == 0 {
			return base, nil
		}
		off := l.b.Const(x.Offset)
		return l.b.BinOp(ir.BinAdd, base, off), nil
	}
	return 0, l.errf(e.Pos(), "expression is not addressable")
}

// expr lowers an expression to a value register.
func (l *lowerer) expr(e Expr) (ir.Reg, error) {
	switch x := e.(type) {
	case *IntLit:
		return l.b.Const(x.Val), nil

	case *SizeOf:
		return l.b.Const(l.u.Structs[x.TypeName].SizeWds), nil

	case *Ident:
		switch x.Sym.Kind {
		case SymLocal, SymParam:
			return l.reg(x.Sym), nil
		case SymConst:
			return l.b.Const(x.Sym.ConstVal), nil
		case SymGlobal:
			if x.Sym.IsArray || x.Sym.Type.Kind == KStruct {
				// Arrays decay; struct values are used via their address.
				return l.b.GlobalAddr(x.Name), nil
			}
			a := l.b.GlobalAddr(x.Name)
			v, _ := l.b.Load(a, x.Name)
			return v, nil
		}
		return 0, l.errf(x.Pos(), "cannot evaluate %q", x.Name)

	case *Unary:
		switch x.Op {
		case "!":
			v, err := l.expr(x.X)
			if err != nil {
				return 0, err
			}
			return l.b.Not(v), nil
		case "-":
			v, err := l.expr(x.X)
			if err != nil {
				return 0, err
			}
			return l.b.Neg(v), nil
		case "&":
			return l.addr(x.X)
		case "*":
			a, err := l.expr(x.X)
			if err != nil {
				return 0, err
			}
			if x.Type().Kind == KStruct {
				return a, nil // struct value == its address
			}
			v, _ := l.b.Load(a, describe(x))
			return v, nil
		}

	case *Binary:
		return l.binary(x)

	case *Logical:
		return l.logical(x)

	case *Index, *Field:
		a, err := l.addr(e)
		if err != nil {
			return 0, err
		}
		if e.Type().Kind == KStruct {
			return a, nil
		}
		v, _ := l.b.Load(a, describe(e))
		return v, nil

	case *Call:
		return l.call(x)

	case *Fork:
		args, err := l.exprList(x.Args)
		if err != nil {
			return 0, err
		}
		return l.b.Fork(x.Name, args...), nil
	}
	return 0, fmt.Errorf("lower: unknown expression %T", e)
}

var binOps = map[string]ir.Bin{
	"+": ir.BinAdd, "-": ir.BinSub, "*": ir.BinMul, "/": ir.BinDiv,
	"%": ir.BinMod, "&": ir.BinAnd, "|": ir.BinOr, "^": ir.BinXor,
	"==": ir.BinEq, "!=": ir.BinNe, "<": ir.BinLt, "<=": ir.BinLe,
	">": ir.BinGt, ">=": ir.BinGe,
}

func (l *lowerer) binary(x *Binary) (ir.Reg, error) {
	a, err := l.expr(x.X)
	if err != nil {
		return 0, err
	}
	b, err := l.expr(x.Y)
	if err != nil {
		return 0, err
	}
	op, ok := binOps[x.Op]
	if !ok {
		return 0, l.errf(x.Pos(), "unknown operator %q", x.Op)
	}
	// C pointer arithmetic: p ± n advances by n elements.
	if (x.Op == "+" || x.Op == "-") && x.X.Type().Kind == KPtr && x.Y.Type().Kind != KPtr {
		if stride := x.X.Type().Elem.SizeWords(); stride != 1 {
			s := l.b.Const(stride)
			b = l.b.BinOp(ir.BinMul, b, s)
		}
	}
	return l.b.BinOp(op, a, b), nil
}

func (l *lowerer) logical(x *Logical) (ir.Reg, error) {
	res := l.b.NewReg()
	a, err := l.expr(x.X)
	if err != nil {
		return 0, err
	}
	at, af := l.b.CondBrF(a)
	if x.Op == "&&" {
		// a true: result = (y != 0); a false: result = 0.
		at.Here()
		bv, err := l.expr(x.Y)
		if err != nil {
			return 0, err
		}
		nb := l.b.Not(bv)
		l.b.Mov(res, l.b.Not(nb)) // normalize to 0/1
		end := l.b.BrF()
		af.Here()
		z := l.b.Const(0)
		l.b.Mov(res, z)
		end.Here()
	} else {
		// a true: result = 1; a false: result = (y != 0).
		at.Here()
		one := l.b.Const(1)
		l.b.Mov(res, one)
		end := l.b.BrF()
		af.Here()
		bv, err := l.expr(x.Y)
		if err != nil {
			return 0, err
		}
		nb := l.b.Not(bv)
		l.b.Mov(res, l.b.Not(nb))
		end.Here()
	}
	return res, nil
}

func (l *lowerer) exprList(es []Expr) ([]ir.Reg, error) {
	out := make([]ir.Reg, len(es))
	for i, e := range es {
		r, err := l.expr(e)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func (l *lowerer) call(x *Call) (ir.Reg, error) {
	switch x.Name {
	case "cas":
		addr, err := l.expr(x.Args[0])
		if err != nil {
			return 0, err
		}
		old, err := l.expr(x.Args[1])
		if err != nil {
			return 0, err
		}
		newv, err := l.expr(x.Args[2])
		if err != nil {
			return 0, err
		}
		r, _ := l.b.Cas(addr, old, newv, "cas "+describe(x.Args[0]))
		return r, nil
	case "fence":
		l.b.Fence(ir.FenceFull)
		return l.b.Const(0), nil
	case "fence_ss":
		l.b.Fence(ir.FenceStoreStore)
		return l.b.Const(0), nil
	case "fence_sl":
		l.b.Fence(ir.FenceStoreLoad)
		return l.b.Const(0), nil
	case "fence_ll":
		l.b.Fence(ir.FenceLoadLoad)
		return l.b.Const(0), nil
	case "fence_ls":
		l.b.Fence(ir.FenceLoadStore)
		return l.b.Const(0), nil
	case "fence_acq":
		l.b.Fence(ir.FenceAcquire)
		return l.b.Const(0), nil
	case "fence_rel":
		l.b.Fence(ir.FenceRelease)
		return l.b.Const(0), nil
	case "alloc":
		n, err := l.expr(x.Args[0])
		if err != nil {
			return 0, err
		}
		return l.b.Alloc(n), nil
	case "sysfree":
		p, err := l.expr(x.Args[0])
		if err != nil {
			return 0, err
		}
		l.b.Free(p)
		return l.b.Const(0), nil
	case "self":
		return l.b.Self(), nil
	case "assert":
		c, err := l.expr(x.Args[0])
		if err != nil {
			return 0, err
		}
		l.b.Assert(c, fmt.Sprintf("%s: assertion at line %d", l.fname, x.Pos()))
		return l.b.Const(0), nil
	case "print":
		v, err := l.expr(x.Args[0])
		if err != nil {
			return 0, err
		}
		l.b.Print(v)
		return l.b.Const(0), nil
	case "lock":
		// Paper §5.2: acquire is a CAS loop writing 1, wrapped in fences.
		addr, err := l.expr(x.Args[0])
		if err != nil {
			return 0, err
		}
		l.b.Fence(ir.FenceFull)
		head := l.b.NextLabel()
		zero := l.b.Const(0)
		one := l.b.Const(1)
		ok, _ := l.b.Cas(addr, zero, one, "lock "+describe(x.Args[0]))
		fail := l.b.Not(ok)
		again, done := l.b.CondBrF(fail)
		again.Here()
		l.b.Br(head)
		done.Here()
		l.b.Fence(ir.FenceFull)
		return l.b.Const(0), nil
	case "unlock":
		addr, err := l.expr(x.Args[0])
		if err != nil {
			return 0, err
		}
		l.b.Fence(ir.FenceFull)
		zero := l.b.Const(0)
		l.b.Store(addr, zero, "unlock "+describe(x.Args[0]))
		l.b.Fence(ir.FenceFull)
		return l.b.Const(0), nil
	}
	// User function.
	args, err := l.exprList(x.Args)
	if err != nil {
		return 0, err
	}
	sym := l.u.Funcs[x.Name]
	dst := ir.NoReg
	if sym.Type.Kind != KVoid {
		dst = l.b.NewReg()
	}
	l.b.Call(dst, x.Name, args...)
	if dst == ir.NoReg {
		return l.b.Const(0), nil
	}
	return dst, nil
}

// describe renders a short source-ish description for IR comments.
func describe(e Expr) string {
	switch x := e.(type) {
	case *Ident:
		return x.Name
	case *Unary:
		return x.Op + describe(x.X)
	case *Index:
		return describe(x.Base) + "[i]"
	case *Field:
		sep := "."
		if x.Arrow {
			sep = "->"
		}
		return describe(x.Base) + sep + x.Name
	case *IntLit:
		return fmt.Sprint(x.Val)
	}
	return "expr"
}

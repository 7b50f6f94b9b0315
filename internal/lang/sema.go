package lang

import "fmt"

// SymKind classifies resolved symbols.
type SymKind uint8

const (
	SymLocal SymKind = iota
	SymParam
	SymGlobal
	SymConst
	SymFunc
)

// Symbol is a resolved name.
type Symbol struct {
	Kind SymKind
	Name string
	Type *Type

	ConstVal int64 // SymConst
	IsArray  bool  // SymGlobal arrays
	Elem     *Type // element type of arrays
	ArrayLen int64
	Words    int64 // total global size in words

	Fn *FuncDecl // SymFunc
}

// Unit is a semantically analyzed translation unit, ready for lowering.
type Unit struct {
	File    *File
	Structs map[string]*StructType
	Consts  map[string]*Symbol
	Globals map[string]*Symbol
	Funcs   map[string]*Symbol

	// GlobalOrder preserves declaration order for linking.
	GlobalOrder []*Symbol
}

// intrinsics maps name to (arg count, returns value). Arity -1 means any.
var intrinsics = map[string]struct {
	args int
	ret  *Type
}{
	"cas":       {3, tInt},
	"fence":     {0, tVoid},
	"fence_ss":  {0, tVoid},
	"fence_sl":  {0, tVoid},
	"fence_ll":  {0, tVoid},
	"fence_ls":  {0, tVoid},
	"fence_acq": {0, tVoid},
	"fence_rel": {0, tVoid},
	"alloc":     {1, PtrTo(tInt)},
	"sysfree":   {1, tVoid},
	"self":      {0, tInt},
	"assert":    {1, tVoid},
	"print":     {1, tVoid},
	"lock":      {1, tVoid},
	"unlock":    {1, tVoid},
}

// Analyze performs semantic analysis on a parsed file.
func Analyze(f *File) (*Unit, error) {
	structs, err := layoutStructs(f.Structs)
	if err != nil {
		return nil, err
	}
	u := &Unit{
		File:    f,
		Structs: structs,
		Consts:  map[string]*Symbol{},
		Globals: map[string]*Symbol{},
		Funcs:   map[string]*Symbol{},
	}
	// Constants (may reference earlier constants).
	for _, c := range f.Consts {
		if err := u.checkRedef(c.Name, c.Line); err != nil {
			return nil, err
		}
		v, err := u.foldConst(c.Expr)
		if err != nil {
			return nil, err
		}
		u.Consts[c.Name] = &Symbol{Kind: SymConst, Name: c.Name, Type: tInt, ConstVal: v}
	}
	// Globals.
	for _, g := range f.Globals {
		if err := u.checkRedef(g.Name, g.Line); err != nil {
			return nil, err
		}
		t, err := resolveType(g.TypeX, structs)
		if err != nil {
			return nil, err
		}
		if t.Kind == KVoid {
			return nil, fmt.Errorf("line %d: global %s has void type", g.Line, g.Name)
		}
		sym := &Symbol{Kind: SymGlobal, Name: g.Name, Type: t}
		if g.ArrayLen > 0 {
			sym.IsArray = true
			sym.Elem = t
			sym.ArrayLen = g.ArrayLen
			sym.Words = g.ArrayLen * t.SizeWords()
		} else {
			sym.Words = t.SizeWords()
		}
		if g.Init != nil {
			if sym.IsArray || t.Kind == KStruct {
				return nil, fmt.Errorf("line %d: only scalar globals may have initializers", g.Line)
			}
			if _, err := u.foldConst(g.Init); err != nil {
				return nil, fmt.Errorf("line %d: global initializer must be constant: %v", g.Line, err)
			}
		}
		u.Globals[g.Name] = sym
		u.GlobalOrder = append(u.GlobalOrder, sym)
	}
	// Function signatures first (mutual recursion), then bodies.
	for _, fn := range f.Funcs {
		if err := u.checkRedef(fn.Name, fn.Line); err != nil {
			return nil, err
		}
		if _, isIntrinsic := intrinsics[fn.Name]; isIntrinsic {
			return nil, fmt.Errorf("line %d: %q is a builtin and cannot be redefined", fn.Line, fn.Name)
		}
		rt, err := resolveType(fn.RetX, structs)
		if err != nil {
			return nil, err
		}
		if rt.Kind == KStruct {
			return nil, fmt.Errorf("line %d: function %s returns a struct by value (unsupported)", fn.Line, fn.Name)
		}
		u.Funcs[fn.Name] = &Symbol{Kind: SymFunc, Name: fn.Name, Type: rt, Fn: fn}
	}
	if _, ok := u.Funcs["main"]; !ok {
		return nil, fmt.Errorf("program has no main function")
	}
	for _, fn := range f.Funcs {
		if err := u.checkFunc(fn); err != nil {
			return nil, err
		}
	}
	return u, nil
}

func (u *Unit) checkRedef(name string, line int) error {
	if u.Consts[name] != nil || u.Globals[name] != nil || u.Funcs[name] != nil {
		return fmt.Errorf("line %d: %q redefined", line, name)
	}
	return nil
}

// foldConst evaluates a compile-time constant expression.
func (u *Unit) foldConst(e Expr) (int64, error) {
	switch x := e.(type) {
	case *IntLit:
		return x.Val, nil
	case *Ident:
		if s, ok := u.Consts[x.Name]; ok {
			return s.ConstVal, nil
		}
		return 0, fmt.Errorf("line %d: %q is not a constant", x.Pos(), x.Name)
	case *Unary:
		v, err := u.foldConst(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("line %d: operator %q not constant", x.Pos(), x.Op)
	case *Binary:
		a, err := u.foldConst(x.X)
		if err != nil {
			return 0, err
		}
		b, err := u.foldConst(x.Y)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, fmt.Errorf("line %d: constant division by zero", x.Pos())
			}
			return a / b, nil
		case "%":
			if b == 0 {
				return 0, fmt.Errorf("line %d: constant modulo by zero", x.Pos())
			}
			return a % b, nil
		}
		return 0, fmt.Errorf("line %d: operator %q not constant", x.Pos(), x.Op)
	case *SizeOf:
		st, ok := u.Structs[x.TypeName]
		if !ok {
			return 0, fmt.Errorf("line %d: sizeof of unknown struct %q", x.Pos(), x.TypeName)
		}
		return st.SizeWds, nil
	}
	return 0, fmt.Errorf("expression is not constant")
}

// scope is a lexical scope for local symbols.
type scope struct {
	parent *scope
	names  map[string]*Symbol
}

func (s *scope) lookup(name string) *Symbol {
	for sc := s; sc != nil; sc = sc.parent {
		if sym, ok := sc.names[name]; ok {
			return sym
		}
	}
	return nil
}

// fnChecker carries per-function analysis state.
type fnChecker struct {
	u         *Unit
	fn        *FuncDecl
	ret       *Type
	loopDepth int
}

func (u *Unit) checkFunc(fn *FuncDecl) error {
	c := &fnChecker{u: u, fn: fn, ret: u.Funcs[fn.Name].Type}
	sc := &scope{names: map[string]*Symbol{}}
	for i := range fn.Params {
		p := &fn.Params[i]
		t, err := resolveType(p.TypeX, u.Structs)
		if err != nil {
			return err
		}
		if !t.IsWord() {
			return fmt.Errorf("line %d: parameter %s of %s must be word-sized (int or pointer)", p.Line, p.Name, fn.Name)
		}
		if _, dup := sc.names[p.Name]; dup {
			return fmt.Errorf("line %d: duplicate parameter %s", p.Line, p.Name)
		}
		p.Sym = &Symbol{Kind: SymParam, Name: p.Name, Type: t}
		sc.names[p.Name] = p.Sym
	}
	return c.block(fn.Body, sc)
}

func (c *fnChecker) block(b *BlockStmt, parent *scope) error {
	sc := &scope{parent: parent, names: map[string]*Symbol{}}
	for _, s := range b.Stmts {
		if err := c.stmt(s, sc); err != nil {
			return err
		}
	}
	return nil
}

func (c *fnChecker) stmt(s Stmt, sc *scope) error {
	switch x := s.(type) {
	case *BlockStmt:
		return c.block(x, sc)
	case *DeclStmt:
		t, err := resolveType(x.TypeX, c.u.Structs)
		if err != nil {
			return err
		}
		if !t.IsWord() {
			return fmt.Errorf("line %d: local %s must be word-sized (int or pointer); use alloc for records", x.Line, x.Name)
		}
		if x.Init != nil {
			if err := c.expr(x.Init, sc); err != nil {
				return err
			}
		}
		if _, dup := sc.names[x.Name]; dup {
			return fmt.Errorf("line %d: %q redeclared in this scope", x.Line, x.Name)
		}
		x.Sym = &Symbol{Kind: SymLocal, Name: x.Name, Type: t}
		sc.names[x.Name] = x.Sym
		return nil
	case *AssignStmt:
		if err := c.expr(x.LHS, sc); err != nil {
			return err
		}
		if err := c.lvalue(x.LHS); err != nil {
			return err
		}
		return c.expr(x.RHS, sc)
	case *ExprStmt:
		return c.expr(x.X, sc)
	case *IfStmt:
		if err := c.expr(x.Cond, sc); err != nil {
			return err
		}
		if err := c.block(x.Then, sc); err != nil {
			return err
		}
		if x.Else != nil {
			return c.stmt(x.Else, sc)
		}
		return nil
	case *WhileStmt:
		if err := c.expr(x.Cond, sc); err != nil {
			return err
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.block(x.Body, sc)
	case *ForStmt:
		inner := &scope{parent: sc, names: map[string]*Symbol{}}
		if x.Init != nil {
			if err := c.stmt(x.Init, inner); err != nil {
				return err
			}
		}
		if x.Cond != nil {
			if err := c.expr(x.Cond, inner); err != nil {
				return err
			}
		}
		if x.Post != nil {
			if err := c.stmt(x.Post, inner); err != nil {
				return err
			}
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.block(x.Body, inner)
	case *ReturnStmt:
		if x.X == nil {
			if c.ret.Kind != KVoid {
				return fmt.Errorf("line %d: %s must return a value", x.Line, c.fn.Name)
			}
			return nil
		}
		if c.ret.Kind == KVoid {
			return fmt.Errorf("line %d: void function %s returns a value", x.Line, c.fn.Name)
		}
		return c.expr(x.X, sc)
	case *BreakStmt:
		if c.loopDepth == 0 {
			return fmt.Errorf("line %d: break outside loop", x.Line)
		}
		return nil
	case *ContinueStmt:
		if c.loopDepth == 0 {
			return fmt.Errorf("line %d: continue outside loop", x.Line)
		}
		return nil
	case *JoinStmt:
		return c.expr(x.X, sc)
	}
	return fmt.Errorf("sema: unknown statement %T", s)
}

// lvalue verifies that e designates an assignable location.
func (c *fnChecker) lvalue(e Expr) error {
	switch x := e.(type) {
	case *Ident:
		switch x.Sym.Kind {
		case SymLocal, SymParam:
			return nil
		case SymGlobal:
			if x.Sym.IsArray {
				return fmt.Errorf("line %d: cannot assign to array %q", x.Pos(), x.Name)
			}
			if x.Sym.Type.Kind == KStruct {
				return fmt.Errorf("line %d: cannot assign whole struct %q", x.Pos(), x.Name)
			}
			return nil
		}
		return fmt.Errorf("line %d: cannot assign to %q", x.Pos(), x.Name)
	case *Unary:
		if x.Op == "*" {
			return nil
		}
	case *Index:
		if !e.Type().IsWord() {
			return fmt.Errorf("line %d: cannot assign a whole struct element", e.Pos())
		}
		return nil
	case *Field:
		if !e.Type().IsWord() {
			return fmt.Errorf("line %d: cannot assign a whole struct field", e.Pos())
		}
		return nil
	}
	return fmt.Errorf("line %d: expression is not assignable", e.Pos())
}

// expr resolves names and annotates types.
func (c *fnChecker) expr(e Expr, sc *scope) error {
	switch x := e.(type) {
	case *IntLit:
		x.setType(tInt)
		return nil
	case *SizeOf:
		if _, ok := c.u.Structs[x.TypeName]; !ok {
			return fmt.Errorf("line %d: sizeof of unknown struct %q", x.Pos(), x.TypeName)
		}
		x.setType(tInt)
		return nil
	case *Ident:
		if sym := sc.lookup(x.Name); sym != nil {
			x.Sym = sym
			x.setType(sym.Type)
			return nil
		}
		if sym, ok := c.u.Consts[x.Name]; ok {
			x.Sym = sym
			x.setType(tInt)
			return nil
		}
		if sym, ok := c.u.Globals[x.Name]; ok {
			x.Sym = sym
			if sym.IsArray {
				x.setType(PtrTo(sym.Elem)) // array decays to pointer
			} else {
				x.setType(sym.Type)
			}
			return nil
		}
		return fmt.Errorf("line %d: undefined identifier %q", x.Pos(), x.Name)
	case *Unary:
		if err := c.expr(x.X, sc); err != nil {
			return err
		}
		switch x.Op {
		case "!", "-":
			x.setType(tInt)
		case "*":
			t := x.X.Type()
			if t.Kind == KPtr {
				x.setType(t.Elem)
			} else {
				x.setType(tInt) // weakly-typed deref of an int address
			}
		case "&":
			if err := c.addressable(x.X); err != nil {
				return err
			}
			x.setType(PtrTo(x.X.Type()))
		}
		return nil
	case *Binary:
		if err := c.expr(x.X, sc); err != nil {
			return err
		}
		if err := c.expr(x.Y, sc); err != nil {
			return err
		}
		// Pointer arithmetic keeps the pointer type; comparisons yield int.
		switch x.Op {
		case "+", "-":
			if x.X.Type().Kind == KPtr {
				x.setType(x.X.Type())
				return nil
			}
		}
		x.setType(tInt)
		return nil
	case *Logical:
		if err := c.expr(x.X, sc); err != nil {
			return err
		}
		if err := c.expr(x.Y, sc); err != nil {
			return err
		}
		x.setType(tInt)
		return nil
	case *Index:
		if err := c.expr(x.Base, sc); err != nil {
			return err
		}
		if err := c.expr(x.Idx, sc); err != nil {
			return err
		}
		bt := x.Base.Type()
		if bt.Kind == KPtr {
			x.setType(bt.Elem)
		} else {
			x.setType(tInt)
		}
		return nil
	case *Field:
		if err := c.expr(x.Base, sc); err != nil {
			return err
		}
		bt := x.Base.Type()
		var st *StructType
		if x.Arrow {
			if bt.Kind != KPtr || bt.Elem.Kind != KStruct {
				return fmt.Errorf("line %d: -> on non-struct-pointer (%s)", x.Pos(), bt)
			}
			st = bt.Elem.S
		} else {
			if bt.Kind != KStruct {
				return fmt.Errorf("line %d: . on non-struct value (%s)", x.Pos(), bt)
			}
			st = bt.S
		}
		f, ok := st.ByName[x.Name]
		if !ok {
			return fmt.Errorf("line %d: struct %s has no field %q", x.Pos(), st.Name, x.Name)
		}
		x.Offset = f.Offset
		x.FieldType = f.Type
		x.setType(f.Type)
		return nil
	case *Call:
		for _, a := range x.Args {
			if err := c.expr(a, sc); err != nil {
				return err
			}
		}
		if intr, ok := intrinsics[x.Name]; ok {
			if intr.args >= 0 && len(x.Args) != intr.args {
				return fmt.Errorf("line %d: %s expects %d arguments, got %d", x.Pos(), x.Name, intr.args, len(x.Args))
			}
			if x.Name == "cas" || x.Name == "lock" || x.Name == "unlock" {
				// First argument must be an address (a pointer-typed value).
				if x.Args[0].Type().Kind != KPtr {
					return fmt.Errorf("line %d: %s expects an address as first argument (use &x)", x.Pos(), x.Name)
				}
			}
			x.setType(intr.ret)
			return nil
		}
		sym, ok := c.u.Funcs[x.Name]
		if !ok {
			return fmt.Errorf("line %d: call to undefined function %q", x.Pos(), x.Name)
		}
		if len(x.Args) != len(sym.Fn.Params) {
			return fmt.Errorf("line %d: %s expects %d arguments, got %d", x.Pos(), x.Name, len(sym.Fn.Params), len(x.Args))
		}
		x.setType(sym.Type)
		return nil
	case *Fork:
		sym, ok := c.u.Funcs[x.Name]
		if !ok {
			return fmt.Errorf("line %d: fork of undefined function %q", x.Pos(), x.Name)
		}
		if len(x.Args) != len(sym.Fn.Params) {
			return fmt.Errorf("line %d: fork %s expects %d arguments, got %d", x.Pos(), x.Name, len(sym.Fn.Params), len(x.Args))
		}
		for _, a := range x.Args {
			if err := c.expr(a, sc); err != nil {
				return err
			}
		}
		x.setType(tInt)
		return nil
	}
	return fmt.Errorf("sema: unknown expression %T", e)
}

// addressable verifies & can be applied: memory lvalues only (globals,
// dereferences, fields, array elements) — locals live in registers.
func (c *fnChecker) addressable(e Expr) error {
	switch x := e.(type) {
	case *Ident:
		if x.Sym != nil && x.Sym.Kind == SymGlobal {
			return nil
		}
		return fmt.Errorf("line %d: cannot take the address of %q (locals live in registers; use a global or heap cell)", x.Pos(), x.Name)
	case *Unary:
		if x.Op == "*" {
			return nil
		}
	case *Index, *Field:
		return nil
	}
	return fmt.Errorf("line %d: expression is not addressable", e.Pos())
}

package ir

import (
	"strings"
	"testing"
)

// buildCounter constructs: main { x = 0; for i in 0..4: x = x+1; return x }
// using the global "x" so loads/stores are exercised.
func buildCounter(t *testing.T) *Program {
	t.Helper()
	p := NewProgram()
	if err := p.AddGlobal(&Global{Name: "x", Size: 1}); err != nil {
		t.Fatal(err)
	}
	b := NewFuncBuilder(p, "main", 0)
	xaddr := b.GlobalAddr("x")
	i := b.Const(0)
	four := b.Const(4)
	head := b.NextLabel()
	cond := b.BinOp(BinLt, i, four)
	taken, exit := b.CondBrF(cond)
	taken.Here() // body starts immediately
	xv, _ := b.Load(xaddr, "x")
	one := b.Const(1)
	sum := b.BinOp(BinAdd, xv, one)
	b.Store(xaddr, sum, "x")
	b.BinTo(i, BinAdd, i, one)
	b.Br(head)
	exit.Here()
	final, _ := b.Load(xaddr, "x")
	b.RetVal(final)
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderAndLink(t *testing.T) {
	p := buildCounter(t)
	if p.Global("x").Addr != 1 {
		t.Errorf("global x address = %d, want 1 (0 is NULL)", p.Global("x").Addr)
	}
	f := p.Funcs["main"]
	if f == nil {
		t.Fatal("main not registered")
	}
	// All labels unique and indexable.
	seen := map[Label]bool{}
	for i := range f.Code {
		l := f.Code[i].Label
		if seen[l] {
			t.Errorf("duplicate label L%d", l)
		}
		seen[l] = true
		if f.IndexOf(l) != i {
			t.Errorf("IndexOf(L%d) = %d, want %d", l, f.IndexOf(l), i)
		}
	}
}

func TestValidateCatchesBadBranch(t *testing.T) {
	p := NewProgram()
	b := NewFuncBuilder(p, "main", 0)
	b.Br(Label(9999))
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err == nil {
		t.Fatal("Link accepted a branch to a label outside the function")
	}
}

func TestValidateCatchesUnknownCallee(t *testing.T) {
	p := NewProgram()
	b := NewFuncBuilder(p, "main", 0)
	b.Call(NoReg, "missing")
	b.Ret()
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err == nil || !strings.Contains(err.Error(), "undefined function") {
		t.Fatalf("Link error = %v, want undefined-function error", err)
	}
}

func TestValidateCatchesRegisterOutOfRange(t *testing.T) {
	p := NewProgram()
	f := &Func{Name: "main", NumRegs: 1, Code: []Instr{
		{Label: p.NewLabel(), Op: OpMov, Dst: 0, A: 5},
		{Label: p.NewLabel(), Op: OpRet},
	}}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err == nil {
		t.Fatal("Link accepted out-of-range register")
	}
}

func TestValidateCatchesArgCountMismatch(t *testing.T) {
	p := NewProgram()
	callee := NewFuncBuilder(p, "f", 2)
	callee.Ret()
	if _, err := callee.Finish(); err != nil {
		t.Fatal(err)
	}
	b := NewFuncBuilder(p, "main", 0)
	x := b.Const(1)
	b.Call(NoReg, "f", x) // f wants 2 args
	b.Ret()
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err == nil || !strings.Contains(err.Error(), "expects 2 args") {
		t.Fatalf("Link error = %v, want arg-count error", err)
	}
}

func TestInsertFenceAfter(t *testing.T) {
	p := buildCounter(t)
	f := p.Funcs["main"]
	// Find the store instruction.
	var storeLbl Label = NoLabel
	for i := range f.Code {
		if f.Code[i].Op == OpStore {
			storeLbl = f.Code[i].Label
		}
	}
	if storeLbl == NoLabel {
		t.Fatal("no store found")
	}
	before := len(f.Code)
	fl, err := p.InsertFenceAfter(storeLbl, FenceStoreStore)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Code) != before+1 {
		t.Fatalf("code length %d, want %d", len(f.Code), before+1)
	}
	idx := f.IndexOf(storeLbl)
	if f.Code[idx+1].Label != fl || f.Code[idx+1].Op != OpFence {
		t.Fatalf("instruction after store is %v, want fence L%d", f.Code[idx+1].String(), fl)
	}
	if f.Code[idx+1].Kind != FenceStoreStore {
		t.Errorf("fence kind = %v, want store-store", f.Code[idx+1].Kind)
	}
	// Program still valid after mutation.
	if err := p.Validate(); err != nil {
		t.Fatalf("program invalid after fence insertion: %v", err)
	}
	// Existing branch targets unchanged and still resolvable.
	for i := range f.Code {
		in := &f.Code[i]
		if in.Op == OpBr || in.Op == OpCondBr {
			if f.IndexOf(in.Target) < 0 {
				t.Errorf("branch L%d target lost after insertion", in.Label)
			}
		}
	}
}

func TestInsertFenceAfterUnknownLabel(t *testing.T) {
	p := buildCounter(t)
	if _, err := p.InsertFenceAfter(Label(12345), FenceFull); err == nil {
		t.Fatal("InsertFenceAfter accepted unknown label")
	}
}

func TestClone(t *testing.T) {
	p := buildCounter(t)
	q := p.Clone()
	// Mutating the clone must not affect the original.
	f := q.Funcs["main"]
	var storeLbl Label
	for i := range f.Code {
		if f.Code[i].Op == OpStore {
			storeLbl = f.Code[i].Label
		}
	}
	if _, err := q.InsertFenceAfter(storeLbl, FenceFull); err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs["main"].Code) == len(q.Funcs["main"].Code) {
		t.Error("clone shares code with original")
	}
	if got := len(p.Fences()); got != 0 {
		t.Errorf("original gained %d fences from clone mutation", got)
	}
	if got := len(q.Fences()); got != 1 {
		t.Errorf("clone has %d fences, want 1", got)
	}
	// Fresh labels in the clone must not collide with the original's.
	nl := q.NewLabel()
	if p.InstrAt(nl) != nil {
		t.Errorf("clone label L%d collides with original instruction", nl)
	}
}

func TestCountStoresAndInstrs(t *testing.T) {
	p := buildCounter(t)
	if got := p.CountStores(); got != 1 {
		t.Errorf("CountStores = %d, want 1", got)
	}
	if got := p.CountInstrs(); got != len(p.Funcs["main"].Code) {
		t.Errorf("CountInstrs = %d, want %d", got, len(p.Funcs["main"].Code))
	}
}

func TestDisasmMentionsEverything(t *testing.T) {
	p := buildCounter(t)
	d := p.Disasm()
	for _, want := range []string{"global x[1]", "func main", "load", "store", "condbr", "ret"} {
		if !strings.Contains(d, want) {
			t.Errorf("Disasm missing %q:\n%s", want, d)
		}
	}
}

func TestBinEval(t *testing.T) {
	cases := []struct {
		op   Bin
		x, y int64
		want int64
	}{
		{BinAdd, 2, 3, 5},
		{BinSub, 2, 3, -1},
		{BinMul, 4, -3, -12},
		{BinDiv, 7, 2, 3},
		{BinDiv, 7, 0, 0},
		{BinMod, 7, 3, 1},
		{BinMod, 7, 0, 0},
		{BinAnd, 6, 3, 2},
		{BinOr, 6, 3, 7},
		{BinXor, 6, 3, 5},
		{BinShl, 1, 4, 16},
		{BinShr, 16, 4, 1},
		{BinEq, 5, 5, 1},
		{BinEq, 5, 6, 0},
		{BinNe, 5, 6, 1},
		{BinLt, -1, 0, 1},
		{BinLe, 0, 0, 1},
		{BinGt, 1, 0, 1},
		{BinGe, 0, 1, 0},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.x, c.y); got != c.want {
			t.Errorf("%v.Eval(%d,%d) = %d, want %d", c.op, c.x, c.y, got, c.want)
		}
	}
}

func TestFenceKindString(t *testing.T) {
	if FenceStoreStore.String() != "fence(st-st)" {
		t.Errorf("got %q", FenceStoreStore.String())
	}
	if FenceStoreLoad.String() != "fence(st-ld)" {
		t.Errorf("got %q", FenceStoreLoad.String())
	}
}

func TestSharedAccessPredicates(t *testing.T) {
	for _, op := range []Op{OpLoad, OpStore, OpCas} {
		if in := (Instr{Op: op}); !in.IsSharedAccess() {
			t.Errorf("%v should be a shared access", op)
		}
	}
	for _, op := range []Op{OpFence, OpMov, OpAlloc} {
		if in := (Instr{Op: op}); in.IsSharedAccess() {
			t.Errorf("%v should not be a shared access", op)
		}
	}
}

func TestDuplicateGlobalRejected(t *testing.T) {
	p := NewProgram()
	if err := p.AddGlobal(&Global{Name: "g", Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddGlobal(&Global{Name: "g", Size: 2}); err == nil {
		t.Fatal("duplicate global accepted")
	}
}

func TestMissingEntryRejected(t *testing.T) {
	p := NewProgram()
	b := NewFuncBuilder(p, "helper", 0)
	b.Ret()
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err == nil {
		t.Fatal("Link accepted program without main")
	}
}

func TestInsertDummyCASAfter(t *testing.T) {
	p := buildCounter(t)
	if err := p.AddGlobal(&Global{Name: "__dummy", Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	f := p.Funcs["main"]
	var storeLbl Label = NoLabel
	for i := range f.Code {
		if f.Code[i].Op == OpStore {
			storeLbl = f.Code[i].Label
		}
	}
	regsBefore := f.NumRegs
	lenBefore := len(f.Code)
	casLbl, err := p.InsertDummyCASAfter(storeLbl, "__dummy")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRegs != regsBefore+4 {
		t.Errorf("NumRegs = %d, want %d", f.NumRegs, regsBefore+4)
	}
	if len(f.Code) != lenBefore+4 {
		t.Errorf("code length = %d, want %d", len(f.Code), lenBefore+4)
	}
	idx := f.IndexOf(storeLbl)
	if f.Code[idx+1].Op != OpGlobal || f.Code[idx+4].Op != OpCas {
		t.Errorf("unexpected sequence after store:\n%s", p.Disasm())
	}
	if f.Code[idx+4].Label != casLbl {
		t.Errorf("cas label mismatch")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid after insertion: %v", err)
	}
	// Unknown label / global rejected.
	if _, err := p.InsertDummyCASAfter(Label(99999), "__dummy"); err == nil {
		t.Error("unknown label accepted")
	}
	if _, err := p.InsertDummyCASAfter(storeLbl, "missing"); err == nil {
		t.Error("unknown global accepted")
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	p := buildCounter(t)
	Optimize(p)
	after := p.CountInstrs()
	if n := Optimize(p); n != 0 {
		t.Errorf("second Optimize removed %d more instructions", n)
	}
	if p.CountInstrs() != after {
		t.Error("instruction count changed on idempotent pass")
	}
}

package staticanalysis

import (
	"strings"
	"testing"

	"dfence/internal/ir"
)

// buildProg assembles a small valid two-thread program directly in IR:
//
//	int x; int y;
//	void w() { x = 1; print(y); }
//	int main() { t = fork w(); join t; }
func buildProg(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "x", Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddGlobal(&ir.Global{Name: "y", Size: 1}); err != nil {
		t.Fatal(err)
	}
	w := ir.NewFuncBuilder(p, "w", 0)
	one := w.Const(1)
	w.Store(w.GlobalAddr("x"), one, "x = 1")
	v, _ := w.Load(w.GlobalAddr("y"), "y")
	w.Print(v)
	w.Ret()
	_, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := ir.NewFuncBuilder(p, "main", 0)
	tid := m.Fork("w")
	m.Join(tid)
	m.Ret()
	_, err = m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVerifyAcceptsValidProgram(t *testing.T) {
	if err := Verify(buildProg(t)); err != nil {
		t.Fatalf("Verify rejected a valid program: %v", err)
	}
}

// wantVerifyError asserts Verify fails with a diagnostic containing want.
func wantVerifyError(t *testing.T, p *ir.Program, want string) {
	t.Helper()
	err := Verify(p)
	if err == nil {
		t.Fatalf("Verify accepted a malformed program (want error containing %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Verify error = %q, want it to mention %q", err, want)
	}
}

// Malformed fixture 1: a register used before any path defines it.
func TestVerifyRejectsUseBeforeDef(t *testing.T) {
	p := buildProg(t)
	w := p.Funcs["w"]
	// Overwrite the const's destination so the store's value register is
	// never defined.
	scratch := ir.Reg(w.NumRegs)
	w.NumRegs++
	w.Code[0].Dst = scratch
	wantVerifyError(t, p, "used before it is defined")
}

// Malformed fixture 2: a conditionally defined register used on the join
// path — the classic may-be-undefined case.
func TestVerifyRejectsConditionalDef(t *testing.T) {
	p := ir.NewProgram()
	f := ir.NewFuncBuilder(p, "main", 0)
	cond := f.Const(1)
	r := f.NewReg()
	taken, fall := f.CondBrF(cond)
	taken.Here()
	f.Mov(r, cond) // r defined only on the taken arm
	fall.Here()
	f.Print(r) // may read r undefined
	f.Ret()
	_, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	wantVerifyError(t, p, "used before it is defined")
}

// Malformed fixture 3: a dangling branch target (structural damage that a
// careless mutation could introduce).
func TestVerifyRejectsDanglingBranch(t *testing.T) {
	p := buildProg(t)
	m := p.Funcs["main"]
	m.Code[len(m.Code)-1] = ir.Instr{Label: m.Code[len(m.Code)-1].Label, Op: ir.OpBr, Target: 9999}
	m.Rebuild()
	wantVerifyError(t, p, "branches to")
}

// Malformed fixture 5: a stale OpGlobal immediate after the globals moved
// without re-linking.
func TestVerifyRejectsStaleLink(t *testing.T) {
	p := buildProg(t)
	for _, f := range p.Funcs {
		for i := range f.Code {
			if f.Code[i].Op == ir.OpGlobal && f.Code[i].Func == "y" {
				f.Code[i].Imm += 7
			}
		}
	}
	wantVerifyError(t, p, "stale link")
}

// Uses in unreachable code produce no findings (the dataflow starts TOP
// there), so dead code cannot fail verification spuriously.
func TestVerifyIgnoresUnreachableUse(t *testing.T) {
	p := ir.NewProgram()
	f := ir.NewFuncBuilder(p, "main", 0)
	r := f.NewReg()
	f.Ret()
	f.Print(r) // unreachable: after ret, nothing branches here
	f.Ret()
	_, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	if err := Verify(p); err != nil {
		t.Fatalf("Verify flagged unreachable code: %v", err)
	}
}

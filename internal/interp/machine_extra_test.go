package interp

import (
	"strings"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
)

func TestForkActsAsBarrier(t *testing.T) {
	// main stores to a global, then forks a reader; the child must see the
	// value even under PSO (pthread_create implies a full barrier).
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "g", Size: 1}); err != nil {
		t.Fatal(err)
	}
	r := ir.NewFuncBuilder(p, "reader", 0)
	ga := r.GlobalAddr("g")
	v, _ := r.Load(ga, "g")
	r.Print(v)
	r.Ret()
	finish(t, r)
	b := ir.NewFuncBuilder(p, "main", 0)
	ma := b.GlobalAddr("g")
	val := b.Const(77)
	b.Store(ma, val, "g")
	tid := b.Fork("reader")
	b.Join(tid)
	b.Ret()
	finish(t, b)
	mustLink(t, p)

	for seed := 0; seed < 30; seed++ {
		m := NewMachine(p, memmodel.PSO, nil)
		// Drive main: the store buffers, then the fork must force a flush.
		stepUntil(t, m, 0, func() bool { return m.NumThreads() == 2 })
		if got, _ := m.GlobalValue("g"); got != 77 {
			t.Fatalf("fork did not drain the parent's buffer: g = %d", got)
		}
		runAll(t, m, 10000)
		if m.Output()[0] != 77 {
			t.Fatalf("child read %d, want 77", m.Output()[0])
		}
	}
}

func TestStepKindClassification(t *testing.T) {
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "g", Size: 1}); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFuncBuilder(p, "main", 0)
	c := b.Const(1) // local
	ga := b.GlobalAddr("g")
	b.Store(ga, c, "g") // shared
	b.Ret()
	finish(t, b)
	mustLink(t, p)
	m := NewMachine(p, memmodel.PSO, nil)
	if k := m.StepThread(0); k != StepLocal {
		t.Errorf("const step = %v, want local", k)
	}
	if k := m.StepThread(0); k != StepLocal {
		t.Errorf("globaladdr step = %v, want local", k)
	}
	if k := m.StepThread(0); k != StepShared {
		t.Errorf("store step = %v, want shared", k)
	}
	if k := m.FlushOne(0, p.Global("g").Addr); k != StepFlush {
		t.Errorf("flush = %v", k)
	}
	if k := m.FlushOne(0, 0); k != StepBlocked {
		t.Errorf("flush on empty buffer = %v, want blocked", k)
	}
}

func TestEventAndViolationStrings(t *testing.T) {
	inv := Event{Kind: EventInvoke, Thread: 2, Op: "put", Args: []int64{4, 5}}
	if got := inv.String(); got != "t2: put(4,5)" {
		t.Errorf("invoke string = %q", got)
	}
	resp := Event{Kind: EventResponse, Thread: 1, Op: "take", Ret: 9, HasRet: true}
	if got := resp.String(); got != "t1: take -> 9" {
		t.Errorf("response string = %q", got)
	}
	void := Event{Kind: EventResponse, Thread: 1, Op: "put"}
	if got := void.String(); got != "t1: put -> ()" {
		t.Errorf("void response string = %q", got)
	}
	v := &Violation{Kind: VMemSafety, Thread: 3, Label: 7, Msg: "boom"}
	if !strings.Contains(v.Error(), "memory-safety") || !strings.Contains(v.Error(), "L7") {
		t.Errorf("violation string = %q", v.Error())
	}
	for _, k := range []ViolationKind{VMemSafety, VAssert, VDeadlock} {
		if strings.Contains(k.String(), "?") {
			t.Errorf("kind %d has no name", k)
		}
	}
	for _, k := range []AccessKind{AccLoad, AccStore, AccCas} {
		if strings.Contains(k.String(), "access(") {
			t.Errorf("access kind %d has no name", k)
		}
	}
}

func TestUnitTrackerDirect(t *testing.T) {
	var tr unitTracker
	tr.add(10, 5)
	tr.add(1, 2)
	tr.add(20, 1)
	for _, c := range []struct {
		addr int64
		want bool
	}{
		{1, true}, {2, true}, {3, false},
		{10, true}, {14, true}, {15, false},
		{20, true}, {21, false}, {0, false}, {9, false},
	} {
		if got := tr.contains(c.addr); got != c.want {
			t.Errorf("contains(%d) = %v, want %v", c.addr, got, c.want)
		}
	}
	if tr.sizeAt(10) != 5 || tr.sizeAt(11) != -1 {
		t.Error("sizeAt wrong")
	}
	if !tr.remove(10) {
		t.Error("remove(10) failed")
	}
	if tr.remove(10) {
		t.Error("double remove succeeded")
	}
	if tr.contains(12) {
		t.Error("removed unit still contained")
	}
	if tr.contains(1) != true || tr.contains(20) != true {
		t.Error("neighbors disturbed by removal")
	}
}

func TestJoinInvalidThreadIDNeverReady(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewFuncBuilder(p, "main", 0)
	bogus := b.Const(99)
	b.Join(bogus)
	b.Ret()
	finish(t, b)
	mustLink(t, p)
	m := NewMachine(p, memmodel.SC, nil)
	// Step to the join.
	m.StepThread(0)
	if m.CanExec(0) {
		t.Error("join on bogus tid reported ready")
	}
	if m.Actable(0) {
		t.Error("thread actable while joined on bogus tid (deadlock expected)")
	}
}

func TestCallReturnsValueToCorrectRegister(t *testing.T) {
	p := ir.NewProgram()
	fb := ir.NewFuncBuilder(p, "seven", 0)
	s := fb.Const(7)
	fb.RetVal(s)
	finish(t, fb)
	b := ir.NewFuncBuilder(p, "main", 0)
	ignore := b.Const(1)
	dst := b.NewReg()
	b.Call(dst, "seven")
	sum := b.BinOp(ir.BinAdd, dst, ignore)
	b.RetVal(sum)
	finish(t, b)
	mustLink(t, p)
	m := NewMachine(p, memmodel.SC, nil)
	runAll(t, m, 1000)
	if m.ExitCode() != 8 {
		t.Errorf("exit = %d, want 8", m.ExitCode())
	}
}

func TestVoidCallResultDropped(t *testing.T) {
	p := ir.NewProgram()
	fb := ir.NewFuncBuilder(p, "noop", 0)
	fb.Ret()
	finish(t, fb)
	b := ir.NewFuncBuilder(p, "main", 0)
	keep := b.Const(3)
	b.Call(ir.NoReg, "noop")
	b.RetVal(keep)
	finish(t, b)
	mustLink(t, p)
	m := NewMachine(p, memmodel.SC, nil)
	runAll(t, m, 1000)
	if m.ExitCode() != 3 {
		t.Errorf("exit = %d, want 3", m.ExitCode())
	}
}

func TestMemReadAndGlobalValue(t *testing.T) {
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "g", Size: 2, Init: []int64{8, 9}}); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFuncBuilder(p, "main", 0)
	b.Ret()
	finish(t, b)
	mustLink(t, p)
	m := NewMachine(p, memmodel.SC, nil)
	if v, ok := m.GlobalValue("g"); !ok || v != 8 {
		t.Errorf("GlobalValue(g) = %d,%v", v, ok)
	}
	if _, ok := m.GlobalValue("missing"); ok {
		t.Error("missing global reported present")
	}
	if m.MemRead(p.Global("g").Addr+1) != 9 {
		t.Error("MemRead wrong")
	}
	if m.MemRead(-5) != 0 || m.MemRead(1<<40) != 0 {
		t.Error("out-of-range MemRead should be 0")
	}
}

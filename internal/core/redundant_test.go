package core

import (
	"strings"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/lang"
	"dfence/internal/memmodel"
	"dfence/internal/spec"
)

// The §6.3.1 experiment: hand the tool an over-fenced implementation and
// let it discover which fences are redundant.

// overFencedMP: the message-passing pattern with the one required
// store-store fence plus two gratuitous ones.
const overFencedMP = `
int data = 0;
int flag = 0;

void producer() {
  fence();       // redundant: nothing buffered yet
  data = 42;
  fence_ss();    // required: orders data before flag on PSO
  flag = 1;
}

void consumer() {
  while (!flag) { }
  fence_sl();    // redundant: loads are never delayed
  assert(data == 42);
}

int main() {
  int t1 = fork producer();
  int t2 = fork consumer();
  join t1;
  join t2;
  return 0;
}
`

func TestFindRedundantFencesMP(t *testing.T) {
	prog, err := lang.Compile(overFencedMP)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(prog.Fences()); got != 3 {
		t.Fatalf("program has %d fences, want 3", got)
	}
	cfg := Config{
		Model:         memmodel.PSO,
		Criterion:     spec.MemorySafety,
		ExecsPerRound: 400,
		Seed:          5,
	}
	redundant, err := FindRedundantFences(prog, cfg, 800)
	if err != nil {
		t.Fatal(err)
	}
	if len(redundant) != 2 {
		t.Fatalf("found %d redundant fences, want 2 (the leading fence and the consumer's)", len(redundant))
	}
	// The required fence (between the data and flag stores in producer)
	// must NOT be among them.
	for _, l := range redundant {
		in := prog.InstrAt(l)
		if in == nil || in.Op != ir.OpFence {
			t.Fatalf("redundant label L%d is not a fence", l)
		}
		if in.Kind == ir.FenceStoreStore {
			t.Errorf("the required store-store fence was declared redundant")
		}
	}
	// Input program untouched.
	if got := len(prog.Fences()); got != 3 {
		t.Errorf("FindRedundantFences mutated the input (now %d fences)", got)
	}
}

func TestFindRedundantFencesRejectsBrokenProgram(t *testing.T) {
	// A program violating its spec with all fences present cannot be
	// analyzed for redundancy.
	src := strings.Replace(overFencedMP, "fence_ss();    // required", "// no fence", 1)
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: memmodel.PSO, Criterion: spec.MemorySafety, ExecsPerRound: 400, Seed: 5}
	if _, err := FindRedundantFences(prog, cfg, 800); err == nil {
		t.Fatal("under-fenced program accepted")
	}
}

func TestFindRedundantFencesCleanProgram(t *testing.T) {
	// A fence-free correct program reports nothing.
	prog, err := lang.Compile(`
int main() {
  print(1);
  return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: memmodel.PSO, Criterion: spec.MemorySafety, ExecsPerRound: 50, Seed: 1}
	redundant, err := FindRedundantFences(prog, cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(redundant) != 0 {
		t.Errorf("redundant = %v on a fence-free program", redundant)
	}
}

// TestRemoveFencesTrailingFence: a fence that is the last instruction of a
// function used to be silently skipped by removeFences (idx+1 >= len(Code)),
// so FindRedundantFences could declare a fence redundant that its trial
// never actually removed. A trailing fence has no successor to retarget
// branches to, but with no branch targeting it the deletion is trivially
// safe — and must happen.
func TestRemoveFencesTrailingFence(t *testing.T) {
	prog, err := lang.Compile(overFencedMP)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs["producer"]
	trailing := prog.NewLabel()
	f.Code = append(f.Code, ir.Instr{Label: trailing, Op: ir.OpFence, Kind: ir.FenceFull})
	f.Rebuild()
	before := len(f.Code)

	removeFences(prog, []ir.Label{trailing})
	if len(f.Code) != before-1 {
		t.Fatalf("trailing fence not removed: %d instructions, want %d", len(f.Code), before-1)
	}
	if f.IndexOf(trailing) >= 0 {
		t.Fatal("trailing fence label still resolves after removal")
	}
	if last := &f.Code[len(f.Code)-1]; last.Op != ir.OpRet {
		t.Fatalf("function no longer ends in ret after removal: %v", last.Op)
	}
}

// TestRemoveFencesTrailingFenceBranchTarget: a trailing fence that is a
// branch target cannot be removed (there is no fallthrough to retarget the
// branch to); removeFences must keep it rather than leave a dangling
// branch or crash.
func TestRemoveFencesTrailingFenceBranchTarget(t *testing.T) {
	p := ir.NewProgram()
	l0, l1, l2 := p.NewLabel(), p.NewLabel(), p.NewLabel()
	f := &ir.Func{Name: "main", NumRegs: 1, Code: []ir.Instr{
		{Label: l0, Op: ir.OpConst, Dst: 0, Imm: 1},
		{Label: l1, Op: ir.OpBr, Target: l2},
		{Label: l2, Op: ir.OpFence, Kind: ir.FenceFull},
	}}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}

	removeFences(p, []ir.Label{l2})
	if f.IndexOf(l2) < 0 {
		t.Fatal("branch-targeted trailing fence was removed, leaving the branch dangling")
	}
	if f.Code[1].Target != l2 {
		t.Fatalf("branch retargeted to L%d although its fence target was kept", f.Code[1].Target)
	}
}

// TestRemoveFencesRetargetsBranches: branches to a removed fence, taken
// and fall-through targets alike, land on its successor.
func TestRemoveFencesRetargetsBranches(t *testing.T) {
	p := ir.NewProgram()
	l0, l1, l2, l3, l4 := p.NewLabel(), p.NewLabel(), p.NewLabel(), p.NewLabel(), p.NewLabel()
	f := &ir.Func{Name: "main", NumRegs: 1, Code: []ir.Instr{
		{Label: l0, Op: ir.OpConst, Dst: 0, Imm: 1},
		{Label: l1, Op: ir.OpCondBr, A: 0, Target: l3, Target2: l3},
		{Label: l2, Op: ir.OpBr, Target: l3},
		{Label: l3, Op: ir.OpFence, Kind: ir.FenceFull},
		{Label: l4, Op: ir.OpRet},
	}}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}

	removeFences(p, []ir.Label{l3})
	if f.IndexOf(l3) >= 0 {
		t.Fatal("branch-targeted fence was not removed")
	}
	if br, cb := f.Code[2], f.Code[1]; br.Target != l4 || cb.Target != l4 || cb.Target2 != l4 {
		t.Fatalf("branches target L%d, L%d/L%d after removal, want L%d", br.Target, cb.Target, cb.Target2, l4)
	}
}

// TestFindRedundantFencesOverFencedChaseLev: take the fence-free SPSC-style
// program from core_test, insert the one required fence plus a gratuitous
// one, and check that exactly the gratuitous fence is reported.
func TestFindRedundantFencesOverFencedSPSC(t *testing.T) {
	p, storeItems, storeT := buildSPSC(t)
	if _, err := p.InsertFenceAfter(storeItems, ir.FenceStoreStore); err != nil {
		t.Fatal(err)
	}
	extra, err := p.InsertFenceAfter(storeT, ir.FenceStoreStore)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model:         memmodel.PSO,
		Criterion:     spec.SeqConsistency,
		NewSpec:       spec.NewDeque,
		ExecsPerRound: 400,
		Seed:          11,
	}
	redundant, err := FindRedundantFences(p, cfg, 800)
	if err != nil {
		t.Fatal(err)
	}
	if len(redundant) != 1 || redundant[0] != extra {
		t.Errorf("redundant = %v, want exactly the post-T fence L%d", redundant, extra)
	}
}

package core

import (
	"reflect"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/synth"
)

// TestFenceRemovalMatchesReinsertion pins the equivalence that lets
// validation build its trials by removing fences from the fenced program:
// for every corpus cell and every synthesized fence, the fenced program
// without that fence is the original program with the other fences
// re-inserted, instruction for instruction, up to fence labels.
func TestFenceRemovalMatchesReinsertion(t *testing.T) {
	drops := 0
	for _, b := range progs.All() {
		for _, model := range []memmodel.Model{memmodel.TSO, memmodel.PSO, memmodel.RMO} {
			cfg := goldenConfig(b, model)
			cfg.ValidateFences = false
			orig := b.Program()
			res, err := Synthesize(orig, cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", b.Name, model, err)
			}
			for i, f := range res.Fences {
				removed := res.Program.Clone()
				removeFences(removed, []ir.Label{f.Label})
				others := append(append([]synth.InsertedFence(nil), res.Fences[:i]...), res.Fences[i+1:]...)
				reinserted := orig.Clone()
				if _, err := synth.InsertFences(reinserted, others); err != nil {
					t.Fatalf("%s %v: %v", b.Name, model, err)
				}
				if d := codeDiff(removed, reinserted); d != "" {
					t.Errorf("%s %v without %s: %s", b.Name, model, f, d)
				}
				drops++
			}
		}
	}
	if drops == 0 {
		t.Fatal("no cell synthesized a fence")
	}
	t.Logf("%d fence drops compared", drops)
}

// codeDiff describes the first difference between the code of a and b,
// comparing every instruction field except a fence's label; "" if none.
func codeDiff(a, b *ir.Program) string {
	if !reflect.DeepEqual(a.FuncNames(), b.FuncNames()) {
		return "function sets differ"
	}
	for _, name := range a.FuncNames() {
		ca, cb := a.Funcs[name].Code, b.Funcs[name].Code
		if len(ca) != len(cb) {
			return name + ": code lengths differ"
		}
		for j := range ca {
			x, y := ca[j], cb[j]
			if x.Op == ir.OpFence && y.Op == ir.OpFence {
				x.Label, y.Label = 0, 0
			}
			if !reflect.DeepEqual(x, y) {
				return name + ": " + x.String() + " vs " + y.String()
			}
		}
	}
	return ""
}

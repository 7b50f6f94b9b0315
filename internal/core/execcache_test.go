package core

import (
	"fmt"
	"strings"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/lang"
	"dfence/internal/memmodel"
	"dfence/internal/spec"
	"dfence/internal/synth"
)

// TestValidateFencesInsertionCollision: three copies of the same fence
// collide at their insertion site, so a candidate keeping two of them
// inserts only one and its watch mapping is incomplete. Such trials run
// the whole seed block; validation must still keep exactly the one needed
// fence, identically at every worker count.
func TestValidateFencesInsertionCollision(t *testing.T) {
	src := strings.Replace(overFencedMP, "fence();       // redundant: nothing buffered yet", "", 1)
	src = strings.Replace(src, "fence_ss();    // required: orders data before flag on PSO", "", 1)
	src = strings.Replace(src, "fence_sl();    // redundant: loads are never delayed", "", 1)
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prog.Fences()); n != 0 {
		t.Fatalf("program carries %d fences, want none", n)
	}
	f := prog.Funcs["producer"]
	var dataStore ir.Label
	for i := range f.Code {
		if f.Code[i].Op == ir.OpStore {
			dataStore = f.Code[i].Label
			break
		}
	}
	need := synth.InsertedFence{After: dataStore, Kind: ir.FenceStoreStore, Func: f.Name}
	var got []string
	for _, workers := range []int{1, 4} {
		cfg := Config{
			Model:         memmodel.PSO,
			Criterion:     spec.MemorySafety,
			ExecsPerRound: 100,
			ValidateExecs: 200,
			Seed:          3,
			Workers:       workers,
		}
		cfg.fill()
		result := &Result{Fences: []synth.InsertedFence{need, need, need}}
		if err := validateFences(prog, &cfg, result, newJudgeCaches(&cfg)); err != nil {
			t.Fatal(err)
		}
		if result.Redundant != 2 || len(result.Fences) != 1 || result.Fences[0].After != dataStore {
			t.Fatalf("workers=%d: kept %v with %d redundant, want the one st-st fence after L%d",
				workers, result.Fences, result.Redundant, dataStore)
		}
		got = append(got, fmt.Sprint(result.Fences))
	}
	if got[0] != got[1] {
		t.Fatalf("validation diverged across worker counts: %s vs %s", got[0], got[1])
	}
}

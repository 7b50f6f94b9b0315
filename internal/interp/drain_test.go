package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"dfence/internal/interp"
	"dfence/internal/lang"
	"dfence/internal/memmodel"
)

// mpWith is message passing with fence between the producer's two
// stores: the consumer prints data once it sees flag set.
func mpWith(fence string) string {
	return fmt.Sprintf(`
int data = 0; int flag = 0;
void producer() { data = 42; %s flag = 1; }
void consumer() { while (flag == 0) { } print(data); }
int main() {
  int t1 = fork producer();
  int t2 = fork consumer();
  join t1; join t2;
  return 0;
}
`, fence)
}

// exploreOutputs visits every state of src under model, deduplicated by
// state key, and returns the consumer outputs of the terminal states. It
// fails the test if a fence retires while its thread still has buffered
// stores: every store-ordering fence drains first (Semantics 1).
func exploreOutputs(t *testing.T, src string, model memmodel.Model) map[int64]bool {
	t.Helper()
	c := compileWatchingFences(t, lang.MustCompile(src))
	outputs := map[int64]bool{}
	seen := map[string]bool{}
	var root interp.Machine
	root.Reset(c, model, nil)
	stack := []*interp.Machine{&root}
	var trs []transition
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		key := string(stateKey(m))
		if seen[key] {
			continue
		}
		seen[key] = true
		if m.Violation() != nil {
			t.Fatalf("violation: %v", m.Violation())
		}
		if m.Done() {
			if out := m.Output(); len(out) == 1 {
				outputs[out[0]] = true
			}
			continue
		}
		trs = transitions(m, trs[:0])
		for _, tr := range trs {
			next := new(interp.Machine)
			next.CopyFrom(m)
			touched, empty := next.Result(false).FenceTouched, next.Thread(tr.tid).Buffers().Empty()
			tr.apply(next)
			if !tr.flush && !tr.resolve && next.Result(false).FenceTouched != touched && !empty {
				t.Fatalf("fence of thread %d retired with buffered stores", tr.tid)
			}
			stack = append(stack, next)
		}
	}
	return outputs
}

// TestFencesDrainStoresInMP checks exhaustively that every store-ordering
// fence between the producer's stores rules out MP's relaxed outcome
// (consumer sees flag but not data) under PSO and RMO, and that each
// retires on empty buffers. The unfenced program must show the outcome,
// or the exploration proves nothing.
func TestFencesDrainStoresInMP(t *testing.T) {
	for _, model := range []memmodel.Model{memmodel.PSO, memmodel.RMO} {
		if got := exploreOutputs(t, mpWith(""), model); !got[0] || !got[42] {
			t.Fatalf("%v unfenced MP outputs %v: want both 0 and 42", model, got)
		}
		for _, fence := range []string{"fence_ss();", "fence_rel();", "fence_sl();", "fence();"} {
			name := strings.TrimSuffix(fence, "();")
			got := exploreOutputs(t, mpWith(fence), model)
			if len(got) != 1 || !got[42] {
				t.Errorf("%v MP+%s outputs %v: want only 42", model, name, got)
			}
		}
	}
}

package proggen

import (
	"math/rand"
	"testing"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/lang"
	"dfence/internal/litmus"
	"dfence/internal/memmodel"
)

// printRace prints from two threads at once: the output order is the only
// thing the schedule decides, so it fails any independence relation that
// lets two prints commute.
const printRace = `
int x = 0;
void a() { print(1); x = 1; }
void b() { print(2); int r = x; x = r + 2; }
int main() {
  int t1 = fork a();
  int t2 = fork b();
  join t1;
  join t2;
  return 0;
}
`

// namedProgram is one program the independence test walks.
type namedProgram struct {
	name string
	prog *ir.Program
}

// sleepTestPrograms is the program set the independence test walks: the
// first n programs of the seed-1 fuzz corpus, the litmus suite and
// printRace.
func sleepTestPrograms(t *testing.T, n int) []namedProgram {
	t.Helper()
	var out []namedProgram
	for i, p := range Corpus(1, n) {
		prog, err := p.Compile()
		if err != nil {
			t.Fatalf("corpus[%d] %s: %v", i, p.Name, err)
		}
		out = append(out, namedProgram{p.Name, prog})
	}
	for _, test := range litmus.All() {
		out = append(out, namedProgram{"litmus " + test.Name, test.Program()})
	}
	return append(out, namedProgram{"printRace", lang.MustCompile(printRace)})
}

// TestIndependentTransitionsCommute walks random schedules and, at every
// state, checks each pair of enabled transitions the enumerator calls
// independent: applied in either order on copies of the state, both
// orders must reach equal state keys, each transition must stay enabled
// after the other, and each must touch the same words after the other as
// before. This is what lets a sleeping transition be skipped: taking it
// later reaches the state taking it first already reached.
func TestIndependentTransitionsCommute(t *testing.T) {
	e := &enumerator{prune: true}
	e.opts.fill()
	rng := rand.New(rand.NewSource(1))
	var scratch, ab, ba interp.Machine
	pairs := 0
	for _, np := range sleepTestPrograms(t, 60) {
		name, c := np.name, interp.Compile(np.prog)
		for _, model := range memmodel.Models() {
			for walk := 0; walk < 3; walk++ {
				var m interp.Machine
				m.Reset(c, model, nil)
				for depth := 0; depth < 300 && !m.Done(); depth++ {
					chs := appendChoices(&m, nil)
					if len(chs) == 0 {
						break
					}
					for i := range chs {
						scratch.CopyFrom(&m)
						e.apply(&scratch, &chs[i])
					}
					for i := range chs {
						for j := i + 1; j < len(chs); j++ {
							a, b := chs[i], chs[j]
							if !independent(&a, &b) {
								continue
							}
							pairs++
							ka := commuted(t, e, &ab, &m, a, b)
							kb := commuted(t, e, &ba, &m, b, a)
							if ka != kb {
								t.Fatalf("%s %v: independent transitions %+v and %+v reach different states in the two orders", name, model, a, b)
							}
						}
					}
					e.apply(&m, &chs[rng.Intn(len(chs))])
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no independent pair found")
	}
	t.Logf("%d independent pairs commute", pairs)
}

// commuted applies first then second to a copy of m, checking that second
// is still enabled after first and records the footprint it had in m, and
// returns the resulting state key.
func commuted(t *testing.T, e *enumerator, dst, m *interp.Machine, first, second choice) string {
	t.Helper()
	dst.CopyFrom(m)
	e.apply(dst, &first)
	enabled := false
	for _, ch := range appendChoices(dst, nil) {
		if ch.same(&second) {
			enabled = true
		}
	}
	if !enabled {
		t.Fatalf("%+v disables the independent %+v", first, second)
	}
	want := second.fp
	e.apply(dst, &second)
	if second.fp != want {
		t.Fatalf("%+v changes the footprint of the independent %+v: %+v, was %+v", first, second, second.fp, want)
	}
	return string(dst.AppendStateKey(nil))
}

// TestSleepSetSkipsOnlyExpandedStates checks the invariant that keeps
// Enumerate's results exact under pruning: every transition skipped
// because it sleeps, applied to a copy of the state it is skipped in,
// lands on a state the walk has already expanded (or past the step
// budget, where the walk would not expand it either). It covers the
// golden cells — the fuzz corpus, the critical-cycle templates, the
// litmus suite and the builtin benchmarks — and the litmus suite at the
// default budget.
func TestSleepSetSkipsOnlyExpandedStates(t *testing.T) {
	var tmp interp.Machine
	var key []byte
	pruned, missed := 0, 0
	pruneHook = func(e *enumerator, ch *choice) {
		pruned++
		c := *ch
		tmp.CopyFrom(e.cur)
		e.apply(&tmp, &c)
		if tmp.Steps() >= e.opts.MaxSteps {
			return
		}
		key = tmp.AppendStateKey(key[:0])
		if _, ok := e.seen.find(e.seen.hash(key), key); !ok {
			missed++
		}
	}
	defer func() { pruneHook = nil }()

	check := func(what string, prog *ir.Program, m memmodel.Model, opts EnumOptions) {
		before := missed
		Enumerate(prog, m, opts)
		if missed != before {
			t.Errorf("%s: %d skipped transitions lead to unexpanded states", what, missed-before)
		}
	}
	for _, c := range enumGoldenCells() {
		prog, err := c.compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", c.key, err)
		}
		check(c.key, prog, c.m, c.opts)
	}
	for _, test := range litmus.All() {
		for _, m := range memmodel.Models() {
			check("litmus "+test.Name+" "+m.String(), test.Program(), m, EnumOptions{})
		}
	}
	if pruned == 0 {
		t.Fatal("no transition was pruned")
	}
	t.Logf("%d transitions pruned, %d into unexpanded states", pruned, missed)
}

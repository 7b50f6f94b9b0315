package interp_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/lang"
	"dfence/internal/litmus"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
)

// transition is one scheduler-visible move: exec (flush and resolve
// false), flush of addr, or resolve of deferred-load idx.
type transition struct {
	tid     int
	flush   bool
	resolve bool
	addr    int64
	idx     int
}

// transitions lists every legal transition of m's current state.
func transitions(m *interp.Machine, dst []transition) []transition {
	for tid := 0; tid < m.NumThreads(); tid++ {
		if m.CanExec(tid) {
			dst = append(dst, transition{tid: tid})
		}
		for _, a := range m.Thread(tid).Buffers().PendingAddrsView() {
			dst = append(dst, transition{tid: tid, flush: true, addr: a})
		}
		for idx := 0; idx < m.DeferredCount(tid); idx++ {
			dst = append(dst, transition{tid: tid, resolve: true, idx: idx})
		}
	}
	return dst
}

func (tr transition) apply(m *interp.Machine) {
	switch {
	case tr.flush:
		m.FlushOne(tr.tid, tr.addr)
	case tr.resolve:
		m.ResolveOne(tr.tid, tr.idx)
	default:
		m.StepThread(tr.tid)
	}
}

func stateKey(m *interp.Machine) []byte { return m.AppendStateKey(nil) }

// sameState compares everything a copy must reproduce: the state key
// (memory, units, output, history, frames, registers, operation depths,
// buffers, deferred loads) and the Result (steps, violation, exit code,
// watched-fence bits).
func sameState(a, b *interp.Machine) bool {
	if !bytes.Equal(stateKey(a), stateKey(b)) || a.NumThreads() != b.NumThreads() {
		return false
	}
	// History and output are in the key; the rest of the Result is not.
	ra, rb := a.Result(false), b.Result(false)
	ra.History, ra.Output, rb.History, rb.Output = nil, nil, nil, nil
	return reflect.DeepEqual(ra, rb)
}

// racyArgs records an operation whose arguments are racy loads: which
// values reach the history depends on the schedule, and under RMO all
// three loads can be outstanding at once (once ir.Optimize has deleted
// the moves that would resolve each load on the spot). Some schedules
// fail the assertion; the others exit with 7.
const racyArgs = `
int x = 0; int y = 0; int z = 0; int sink = 0;
operation void op(int a, int b, int c) { sink = a + b + c; }
void w() { x = 1; y = 2; fence_ss(); z = 3; int* p = alloc(2); sysfree(p); }
void r() { int a = x; int b = y; int c = z; op(a, b, c); assert(a <= c); print(b); }
int main() {
  int t1 = fork w();
  int t2 = fork r();
  join t1; join t2;
  return 7;
}
`

// copyPrograms are the property test's subjects: the litmus suite (forks
// after the first copy, stores buffered at several addresses, deferred
// loads under RMO), chase-lev, whose operations carry arguments into the
// history, and racyArgs.
func copyPrograms(t *testing.T) (names []string, out []*ir.Program) {
	racy := lang.MustCompile(racyArgs)
	ir.Optimize(racy)
	names, out = append(names, "racy-args"), append(out, racy)
	for _, lt := range litmus.All() {
		names, out = append(names, lt.Name), append(out, lt.Program())
	}
	cl, err := progs.ByName("chase-lev")
	if err != nil {
		t.Fatal(err)
	}
	return append(names, cl.Name), append(out, cl.Program())
}

// compileWatchingFences compiles prog with every fence on the watch list,
// so executions set Result.FenceTouched bits.
func compileWatchingFences(t *testing.T, prog *ir.Program) *interp.Compiled {
	var watch []ir.Label
	for _, f := range prog.Funcs {
		for _, in := range f.Code {
			if in.Op == ir.OpFence && len(watch) < interp.MaxWatchLabels {
				watch = append(watch, in.Label)
			}
		}
	}
	c, err := interp.CompileWatched(prog, watch)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCopyFromTracksSource walks random schedules and, at every step,
// copies the machine and applies the same next transition to both: the
// copy must stay in the source's state, and stepping either one must
// leave the other's key unchanged. Copies rotate through a small pool
// shared by every program, so a field CopyFrom forgot shows up as the
// stale value of another state. One source machine runs every walk of
// every program, and a copy taken mid-walk is held across the rest of
// that walk, a Reset, and part of the next walk (often of another
// program): its key must not move — the history arguments, memory,
// units, registers, buffers and deferred loads it holds are its own.
func TestCopyFromTracksSource(t *testing.T) {
	const walks, maxSteps = 30, 400
	var src, held interp.Machine
	var pool [3]interp.Machine
	var heldKey []byte
	var trs []transition
	var copies, twoDeferred, twoAddrs, args, violations, touched int
	names, programs := copyPrograms(t)
	for i, prog := range programs {
		name, c := names[i], compileWatchingFences(t, prog)
		for _, model := range []memmodel.Model{memmodel.TSO, memmodel.PSO, memmodel.RMO} {
			rng := rand.New(rand.NewSource(int64(len(name)) + int64(model)))
			for w := 0; w < walks; w++ {
				src.Reset(c, model, nil)
				holdAt := rng.Intn(40)
				for step := 0; step < maxSteps && !src.Done(); step++ {
					if step == holdAt {
						if heldKey != nil && !bytes.Equal(stateKey(&held), heldKey) {
							t.Fatalf("%s/%v walk %d: running and resetting the source moved an earlier copy", name, model, w)
						}
						held.CopyFrom(&src)
						heldKey = stateKey(&held)
					}
					cp := &pool[copies%len(pool)]
					copies++
					cp.CopyFrom(&src)
					if !sameState(cp, &src) {
						t.Fatalf("%s/%v walk %d step %d: copy differs from source", name, model, w, step)
					}
					for tid := 0; tid < src.NumThreads(); tid++ {
						if src.DeferredCount(tid) >= 2 {
							twoDeferred++
						}
						if len(src.Thread(tid).Buffers().PendingAddrsView()) >= 2 {
							twoAddrs++
						}
					}
					for _, e := range src.History() {
						args += len(e.Args)
					}
					trs = transitions(&src, trs[:0])
					if len(trs) == 0 {
						break // deadlock
					}
					tr := trs[rng.Intn(len(trs))]
					// Alternate which side moves first: each must leave the
					// other untouched.
					want := stateKey(&src)
					first, second := &src, cp
					if step%2 == 1 {
						first, second = cp, &src
					}
					tr.apply(first)
					if !bytes.Equal(stateKey(second), want) {
						t.Fatalf("%s/%v walk %d step %d: stepping one machine moved the other", name, model, w, step)
					}
					tr.apply(second)
					if !sameState(&src, cp) {
						t.Fatalf("%s/%v walk %d step %d: %+v diverged the copy from its source", name, model, w, step, tr)
					}
				}
				if src.Violation() != nil {
					violations++
				}
				if src.Result(false).FenceTouched != 0 {
					touched++
				}
			}
		}
	}
	if !bytes.Equal(stateKey(&held), heldKey) {
		t.Fatal("running and resetting the source moved the last held copy")
	}
	// The walks must have reached what the copy has to get right.
	if twoDeferred == 0 || twoAddrs == 0 || args == 0 || violations == 0 || touched == 0 {
		t.Errorf("walks covered %d states with two deferred loads, %d with stores buffered at two addresses, "+
			"%d history arguments, %d violating and %d fence-touching walks: want all > 0",
			twoDeferred, twoAddrs, args, violations, touched)
	}
}

// TestCopyFromAllocs is the pool guard: once the destination has held the
// source's high-water mark, copying allocates nothing.
func TestCopyFromAllocs(t *testing.T) {
	cl, err := progs.ByName("chase-lev")
	if err != nil {
		t.Fatal(err)
	}
	src := interp.NewMachine(cl.Program(), memmodel.RMO, nil)
	rng := rand.New(rand.NewSource(1))
	var trs []transition
	for step := 0; step < 200 && !src.Done(); step++ {
		trs = transitions(src, trs[:0])
		if len(trs) == 0 {
			break
		}
		trs[rng.Intn(len(trs))].apply(src)
	}
	if len(src.History()) == 0 {
		t.Fatal("walk recorded no history: the guard would not cover argument copies")
	}
	var dst interp.Machine
	dst.CopyFrom(src)
	if n := testing.AllocsPerRun(100, func() { dst.CopyFrom(src) }); n != 0 {
		t.Errorf("Machine.CopyFrom allocates %.1f times per copy after warm-up, want 0", n)
	}
}

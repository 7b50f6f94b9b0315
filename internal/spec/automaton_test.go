package spec

import (
	"math/rand"
	"reflect"
	"testing"
)

// mutateHistory perturbs a valid serial deque history into histories of
// all kinds — overlapping, garbage-returning, reordered — so the
// brute-force comparison below covers accepting and rejecting searches
// alike.
func mutateHistory(rng *rand.Rand, ops []Op) []Op {
	out := make([]Op, len(ops))
	copy(out, ops)
	switch rng.Intn(4) {
	case 0: // keep serial (accepting path)
	case 1: // stretch responses to create overlap
		for i := range out {
			out[i].Res += rng.Intn(5)
		}
	case 2: // corrupt one return value
		if i := rng.Intn(len(out)); out[i].HasRet {
			out[i].Ret = 999
		}
	case 3: // swap two ops' positions across threads (often non-SC)
		i, j := rng.Intn(len(out)), rng.Intn(len(out))
		out[i].Thread, out[j].Thread = out[j].Thread, out[i].Thread
	}
	return out
}

// bruteSequentializable is the reference the automaton search is tested
// against: it enumerates every interleaving of the per-thread program
// orders — with realTime, only those in which no operation precedes one
// that completed before it was invoked — and replays each on a fresh spec
// state, accepting the history if any replay is accepted.
func bruteSequentializable(ops []Op, newSpec func() Sequential, realTime bool) bool {
	byThread, tids := PerThread(ops)
	queues := make([][]Op, len(tids))
	for i, tid := range tids {
		queues[i] = byThread[tid]
	}
	idx := make([]int, len(queues))
	seq := make([]Op, 0, len(ops))
	eligible := func(o Op) bool {
		for j, q := range queues {
			for _, p := range q[idx[j]:] {
				if p.Res < o.Inv {
					return false
				}
			}
		}
		return true
	}
	var rec func() bool
	rec = func() bool {
		if len(seq) == len(ops) {
			st := newSpec()
			for _, o := range seq {
				if !st.Apply(o) {
					return false
				}
			}
			return true
		}
		for i, q := range queues {
			if idx[i] == len(q) || (realTime && !eligible(q[idx[i]])) {
				continue
			}
			seq = append(seq, q[idx[i]])
			idx[i]++
			ok := rec()
			idx[i]--
			seq = seq[:len(seq)-1]
			if ok {
				return true
			}
		}
		return false
	}
	return rec()
}

// TestAutomatonMatchesLegacy pins the compiled-automaton search
// against the brute-force enumeration: one reused Checker (so the
// automaton accumulates state across checks, as in the engine) must
// produce the brute-force SC and linearizability verdict on every
// history.
func TestAutomatonMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var c Checker
	for trial := 0; trial < 500; trial++ {
		ops := mutateHistory(rng, genSerialDequeHistory(rng, 2+rng.Intn(9)))
		for _, crit := range []Criterion{SeqConsistency, Linearizability} {
			got := c.Check(crit, ops, NewDeque, false)
			want := bruteSequentializable(ops, NewDeque, crit == Linearizability)
			if got != want {
				t.Fatalf("trial %d %v: automaton=%v brute force=%v on %v", trial, crit, got, want, ops)
			}
		}
	}
	if len(c.aut.states) == 0 || len(c.aut.trans) == 0 {
		t.Fatalf("automaton never engaged: %d states, %d transitions",
			len(c.aut.states), len(c.aut.trans))
	}
}

// serialPuts returns n single-put threads (thread i puts i+1), serial in
// real time.
func serialPuts(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Thread: i, Name: "put", Args: []int64{int64(i + 1)}, Inv: 2 * i, Res: 2*i + 1}
	}
	return ops
}

// TestWideProgressKey covers histories whose progress vector does not fit
// one 62-bit word: 70 single-put threads need 70 bits, so the memo keys
// span two words. Verdicts must match brute force (linearizability keeps
// both searches to the few real-time-respecting orders).
func TestWideProgressKey(t *testing.T) {
	const n = 70
	take := func(ret int64, at int) Op {
		return Op{Thread: n, Name: "take", Ret: ret, HasRet: true, Inv: at, Res: at + 1}
	}
	puts := serialPuts(n)
	// After the puts, three overlapping threads reach the same spec state
	// along paths with different progress in the second key word: the
	// search first fails from (deque+[100], t71's put done) and must not
	// prune (deque+[100], t72's put done), from which t72's take of n
	// succeeds.
	mixed := append(serialPuts(n),
		Op{Thread: n, Name: "take", Ret: 100, HasRet: true, Inv: 2 * n, Res: 2*n + 10},
		Op{Thread: n + 1, Name: "put", Args: []int64{100}, Inv: 2 * n, Res: 2*n + 10},
		Op{Thread: n + 2, Name: "put", Args: []int64{100}, Inv: 2 * n, Res: 2*n + 10},
		Op{Thread: n + 2, Name: "take", Ret: n, HasRet: true, Inv: 2*n + 2, Res: 2*n + 12},
	)
	cases := []struct {
		name string
		ops  []Op
		crit Criterion
		want bool
	}{
		{"puts/sc", puts, SeqConsistency, true},
		{"puts/lin", puts, Linearizability, true},
		{"puts+take/lin", append(serialPuts(n), take(n, 2*n)), Linearizability, true},
		{"puts+garbage-take/lin", append(serialPuts(n), take(999, 2*n)), Linearizability, false},
		{"mixed/lin", mixed, Linearizability, true},
	}
	var c Checker
	for _, tc := range cases {
		got := c.Check(tc.crit, tc.ops, NewDeque, false)
		if !c.wide {
			t.Fatalf("%s: progress packed into one word, want a wide key", tc.name)
		}
		brute := bruteSequentializable(tc.ops, NewDeque, tc.crit == Linearizability)
		if got != tc.want || brute != tc.want {
			t.Errorf("%s: automaton=%v brute force=%v, want %v", tc.name, got, brute, tc.want)
		}
	}
}

// TestAutomatonTypeGuard reuses one Checker across different spec types:
// the tables must flush on the type change (canonical keys are only
// unique within a type) and verdicts must stay correct.
func TestAutomatonTypeGuard(t *testing.T) {
	var c Checker
	deqOps := serialOps([]Op{
		{Thread: 0, Name: "put", Args: []int64{1}},
		{Thread: 1, Name: "steal", Ret: 1, HasRet: true},
	})
	if !c.Check(SeqConsistency, deqOps, NewDeque, false) {
		t.Fatal("valid deque history rejected")
	}
	if c.aut.typ != reflect.TypeOf(NewDeque()) {
		t.Fatalf("automaton typed %v, want Deque", c.aut.typ)
	}
	// Queue and Deque share the encodeInts state encoding; without the
	// type guard the interned empty-deque state would be served as an
	// empty-queue state.
	qOps := serialOps([]Op{
		{Thread: 0, Name: "enqueue", Args: []int64{7}},
		{Thread: 1, Name: "dequeue", Ret: 7, HasRet: true},
	})
	if !c.Check(SeqConsistency, qOps, NewQueue, false) {
		t.Fatal("valid queue history rejected after spec-type switch")
	}
	if c.aut.typ != reflect.TypeOf(NewQueue()) {
		t.Fatalf("automaton typed %v after switch, want Queue", c.aut.typ)
	}
	badQ := serialOps([]Op{
		{Thread: 0, Name: "enqueue", Args: []int64{7}},
		{Thread: 1, Name: "dequeue", Ret: 8, HasRet: true},
	})
	if c.Check(SeqConsistency, badQ, NewQueue, false) {
		t.Fatal("invalid queue history accepted after spec-type switch")
	}
}

// TestAutomatonEnsureFlushesOverCap checks the generational flush: once a
// table exceeds its cap, the next ensure discards and retypes the tables.
func TestAutomatonEnsureFlushesOverCap(t *testing.T) {
	var a automaton
	typ := reflect.TypeOf(NewDeque())
	a.ensure(typ)
	for i := 0; i <= maxAutomatonTrans; i++ {
		a.trans[uint64(i)] = 0
	}
	a.ensure(typ)
	if len(a.trans) != 0 {
		t.Fatalf("over-cap transition table not flushed: %d entries", len(a.trans))
	}
}

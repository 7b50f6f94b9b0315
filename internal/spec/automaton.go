package spec

import (
	"encoding/binary"
	"reflect"
)

// The sequentialization search spends its time asking two questions per
// node: "have I failed from this (progress, spec state) before?" and
// "does this operation apply in this state, and what state results?".
// Answering them directly would mean re-encoding the spec state into a
// byte key at every node and a clone+Apply on every branch.
//
// The automaton below compiles the answers instead: reachable spec
// states are interned once into dense int32 ids (the canonical clone is
// frozen and owned by the automaton), operations are interned on the
// fields Apply actually consults (Name, Args, Ret, HasRet), and each
// (state id, op id) transition is computed by clone+Apply exactly once
// and then served from a flat map. The DFS then walks integer ids, and
// its memo key is a comparable struct of (mixed-radix progress index,
// state id) — no per-node string allocation at all, except for histories
// whose progress vector needs more than one 62-bit word (see
// compileProgress).
//
// The automaton persists across checks on a reused Checker: state
// identity and transitions are history-independent facts about the
// specification, so a synthesis round that judges thousands of histories
// over the same data structure amortizes every Apply. It composes with
// the verdict-by-history cache upstream: that cache removes repeated
// *histories*, this one removes repeated *spec work* across distinct
// histories. Interning maps equal-key states to one id, so the memo
// treats states with equal canonical keys as one node; verdicts are
// tested against a brute-force enumeration of every interleaving.
//
// Capacity is bounded generationally: when the tables outgrow their caps
// the automaton is discarded between checks (never mid-search, which
// would invalidate ids held on the DFS stack) and relearned. A type
// guard resets it when a Checker is reused with a different
// specification type, since canonical keys are only unique within one
// type.
const (
	maxAutomatonStates = 1 << 15
	maxAutomatonTrans  = 1 << 17
)

// illegalTransition marks a cached (state, op) pair Apply rejected.
const illegalTransition = int32(-1)

type automaton struct {
	typ    reflect.Type     // spec type the tables were built for
	states []Sequential     // id -> frozen canonical state (never mutated)
	ids    map[string]int32 // canonical state key -> id
	ops    []Op             // id -> representative op (Args copied, stable)
	opIDs  map[string]int32 // canonical op key -> id
	trans  map[uint64]int32 // stateID<<32|opID -> next id, or illegalTransition
	keyBuf []byte
}

// ensure prepares the automaton for a check over spec type t, flushing
// the learned tables when the type changed or a size cap tripped.
func (a *automaton) ensure(t reflect.Type) {
	if a.ids == nil || a.typ != t ||
		len(a.states) > maxAutomatonStates || len(a.trans) > maxAutomatonTrans {
		a.reset(t)
	}
}

func (a *automaton) reset(t reflect.Type) {
	a.typ = t
	a.states = a.states[:0]
	a.ops = a.ops[:0]
	if a.ids == nil {
		a.ids = make(map[string]int32)
		a.opIDs = make(map[string]int32)
		a.trans = make(map[uint64]int32)
	} else {
		clear(a.ids)
		clear(a.opIDs)
		clear(a.trans)
	}
}

// intern returns the dense id of state, registering it (and taking
// ownership of it — it must never be mutated afterwards) when unseen.
// fresh reports whether ownership was taken; if false the caller still
// owns state and may recycle it.
func (a *automaton) intern(state Sequential) (id int32, fresh bool) {
	b := a.keyBuf[:0]
	if ka, ok := state.(keyAppender); ok {
		b = ka.appendKey(b)
	} else {
		b = append(b, state.Key()...)
	}
	a.keyBuf = b
	if id, ok := a.ids[string(b)]; ok {
		return id, false
	}
	id = int32(len(a.states))
	a.states = append(a.states, state)
	a.ids[string(b)] = id
	return id, true
}

// internOp returns the dense id of op's Apply-relevant projection. The
// stored representative deep-copies Args: callers hand in ops whose Args
// alias reused event buffers.
func (a *automaton) internOp(op Op) int32 {
	b := a.keyBuf[:0]
	b = binary.AppendUvarint(b, uint64(len(op.Name)))
	b = append(b, op.Name...)
	b = binary.AppendUvarint(b, uint64(len(op.Args)))
	for _, v := range op.Args {
		b = binary.AppendVarint(b, v)
	}
	if op.HasRet {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, op.Ret)
	a.keyBuf = b
	if id, ok := a.opIDs[string(b)]; ok {
		return id
	}
	id := int32(len(a.ops))
	rep := Op{Name: op.Name, Ret: op.Ret, HasRet: op.HasRet}
	if len(op.Args) > 0 {
		rep.Args = append([]int64(nil), op.Args...)
	}
	a.ops = append(a.ops, rep)
	a.opIDs[string(b)] = id
	return id
}

// step returns the successor of state sid under op oid, computing and
// caching the transition on first demand. ok is false when the op is
// illegal in the state. c supplies the clone/recycle free list.
func (a *automaton) step(c *Checker, sid, oid int32) (next int32, ok bool) {
	k := uint64(uint32(sid))<<32 | uint64(uint32(oid))
	if next, hit := a.trans[k]; hit {
		return next, next != illegalTransition
	}
	st := c.clone(a.states[sid])
	if !st.Apply(a.ops[oid]) {
		c.recycle(st)
		a.trans[k] = illegalTransition
		return 0, false
	}
	nid, fresh := a.intern(st)
	if !fresh {
		c.recycle(st)
	}
	a.trans[k] = nid
	return nid, true
}

// autoKey memoizes one failed search node: the mixed-radix encoding of
// the per-thread progress vector plus the interned spec-state id. When
// the progress vector needs more than one 62-bit word, prog is 0 and
// words is the interned id of the packed words instead.
type autoKey struct {
	prog  uint64
	words int32
	state int32
}

// compileProgress lays out the current queue partition's progress vector
// as mixed-radix numbers: queue i's progress is a digit of radix
// len(queue_i)+1 with stride strides[i]. Queues fill one 62-bit word
// while the product of radixes fits, then start a new word at stride 1,
// so histories that fork many threads keep an exact memo key.
func (c *Checker) compileProgress() {
	c.strides = c.strides[:0]
	c.wide = false
	total := uint64(1)
	for i := range c.queues {
		n := uint64(len(c.queues[i])) + 1
		if total > (1<<62)/n {
			total, c.wide = 1, true
		}
		c.strides = append(c.strides, total)
		total *= n
	}
	if c.wide {
		if c.wideIDs == nil {
			c.wideIDs = make(map[string]int32)
		} else {
			clear(c.wideIDs) // ids are per-check, like the memo they key
		}
	}
}

// wideKey is the memo key of the current progress vector and state id
// when the progress spans several words. Every queue but the first has
// stride 1 exactly when it starts a new word (radixes are at least 2).
// The packed words go into the automaton's key scratch, which is free
// between transition lookups.
func (c *Checker) wideKey(sid int32) autoKey {
	b := c.aut.keyBuf[:0]
	var w uint64
	for i, n := range c.idx {
		if i > 0 && c.strides[i] == 1 {
			b = binary.LittleEndian.AppendUint64(b, w)
			w = 0
		}
		w += uint64(n) * c.strides[i]
	}
	b = binary.LittleEndian.AppendUint64(b, w)
	c.aut.keyBuf = b
	id, ok := c.wideIDs[string(b)]
	if !ok {
		id = int32(len(c.wideIDs))
		c.wideIDs[string(b)] = id
	}
	return autoKey{words: id, state: sid}
}

// dfsAuto searches for a sequentialization from the current progress
// vector in spec state sid: states are dense ids, successor states come
// from the transition table, and failed nodes are memoized.
func (c *Checker) dfsAuto(sid int32) bool {
	done := true
	var prog uint64
	for i := range c.queues {
		if c.idx[i] < len(c.queues[i]) {
			done = false
		}
		prog += uint64(c.idx[i]) * c.strides[i]
	}
	if done {
		return true
	}
	mk := autoKey{prog: prog, state: sid}
	if c.wide {
		mk = c.wideKey(sid)
	}
	if c.imemo[mk] {
		return false // known dead end
	}
	for i := range c.queues {
		if c.idx[i] >= len(c.queues[i]) {
			continue
		}
		op := c.queues[i][c.idx[i]]
		if c.realTime && !minimalInRealTime(c.queues, c.idx, i, op) {
			continue
		}
		next, ok := c.aut.step(c, sid, c.oqueues[i][c.idx[i]])
		if !ok {
			continue
		}
		c.idx[i]++
		hit := c.dfsAuto(next)
		c.idx[i]--
		if hit {
			return true
		}
	}
	c.imemo[mk] = true
	return false
}

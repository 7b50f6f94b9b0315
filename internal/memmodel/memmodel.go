// Package memmodel implements the relaxed-memory machinery of the paper's
// Semantics 1 for the model hierarchy DFENCE supports:
//
//   - SC: no buffering; stores hit main memory immediately.
//   - TSO (total store order): one FIFO buffer of (address, value) pairs per
//     thread. Loads may bypass earlier buffered stores to *other* addresses;
//     a load of a buffered address reads the newest buffered value.
//   - PSO (partial store order): one FIFO buffer per (thread, address) pair,
//     so stores to different addresses may also be reordered.
//   - RMO (relaxed memory order): PSO's store buffers plus deferred loads —
//     the scheduler may postpone a shared load's read of memory past later
//     accesses of the same thread, exhibiting load-load and load-store
//     reordering (SPARC RMO-like). The deferral machinery itself lives in
//     the interpreter; this package declares the capability.
//
// Each model is characterized by a full reordering matrix over
// {load,store} × {load,store} (Relaxes) rather than ad-hoc capability
// bits, so analyses and synthesizers are written once against the matrix
// and every present or future model plugs in. Store-atomicity is a
// separate flag: all current models are multi-copy atomic (a committed
// store is visible to every other thread at once; only the issuing thread
// can read its own stores early, via buffer forwarding).
//
// A Buffers value holds the buffers of a single thread. The interpreter
// consults it on every shared load/store/CAS; the demonic scheduler decides
// when pending entries flush to main memory. A fence that orders stores
// (fence(st-st), fence(st-ld), fence(rel), fence) executes only once the
// thread's buffers are empty, as in Semantics 1; the interpreter forces
// the flushes.
package memmodel

import (
	"fmt"
	"strings"

	"dfence/internal/ir"
)

// Model selects the memory model an execution runs under.
type Model uint8

const (
	// SC is (hardware-level) sequential consistency: no buffering.
	SC Model = iota
	// TSO buffers stores in a single per-thread FIFO (x86-like).
	TSO
	// PSO buffers stores per (thread, variable) (SPARC PSO-like).
	PSO
	// RMO additionally defers loads: per-thread pending-load queues let a
	// load's read of memory happen after later same-thread accesses
	// (SPARC RMO-like; every class pair is relaxed).
	RMO
)

func (m Model) String() string {
	switch m {
	case SC:
		return "SC"
	case TSO:
		return "TSO"
	case PSO:
		return "PSO"
	case RMO:
		return "RMO"
	}
	return fmt.Sprintf("model(%d)", uint8(m))
}

// ParseModel converts a name ("sc", "tso", "pso", "rmo", case-insensitive)
// to a Model.
func ParseModel(s string) (Model, error) {
	for _, m := range Models() {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	return SC, fmt.Errorf("memmodel: unknown model %q (want sc, tso, pso, or rmo)", s)
}

// Models lists every defined memory model, weakest-last. Exhaustive by
// construction: corpus sweeps and round-trip tests range over it so a model
// added later cannot be silently skipped.
func Models() []Model { return []Model{SC, TSO, PSO, RMO} }

// relaxMask returns the model's reordering matrix as a bitmask over
// ordered class pairs (same encoding as ir.FenceKind's coverage masks:
// bit 2*a+b set means an earlier class-a access may take effect after a
// later class-b access).
func (m Model) relaxMask() uint8 {
	const (
		ldld = 1 << 0
		ldst = 1 << 1
		stld = 1 << 2
		stst = 1 << 3
	)
	switch m {
	case SC:
		return 0
	case TSO:
		return stld
	case PSO:
		return stld | stst
	case RMO:
		return ldld | ldst | stld | stst
	}
	return 0
}

// Relaxes reports whether the model may reorder an earlier class-a access
// with a later class-b access of the same thread — the full per-model
// reordering matrix every analysis and synthesizer dispatches on. The
// matrix is cumulative down the hierarchy: SC relaxes nothing, TSO adds
// (st,ld), PSO adds (st,st), RMO adds (ld,ld) and (ld,st).
func (m Model) Relaxes(a, b ir.AccessClass) bool {
	return m.relaxMask()&(1<<(2*uint8(a)+uint8(b))) != 0
}

// MultiCopyAtomic reports the model's store-atomicity: a store that
// commits becomes visible to all other threads simultaneously, and only
// the issuing thread may read it early (through its own buffer). True for
// every store-buffer model DFENCE implements; a future non-MCA model
// (POWER-like) would return false and require per-thread memory views.
func (m Model) MultiCopyAtomic() bool {
	switch m {
	case SC, TSO, PSO, RMO:
		return true
	}
	return true
}

// RelaxesStoreLoad reports whether the model may reorder a store with a
// later load of the same thread (the store sits in a buffer while the
// load reads memory) — Relaxes(store, load).
func (m Model) RelaxesStoreLoad() bool { return m.Relaxes(ir.ClassStore, ir.ClassLoad) }

// RelaxesStoreStore reports whether the model may reorder two stores of
// the same thread to different addresses (per-address buffers commit
// independently) — Relaxes(store, store).
func (m Model) RelaxesStoreStore() bool { return m.Relaxes(ir.ClassStore, ir.ClassStore) }

// DefersLoads reports whether the model may delay a shared load's read of
// memory past later same-thread accesses — Relaxes(load, ·). When true,
// the interpreter routes shared loads through a per-thread deferred-load
// queue whose resolution the scheduler controls.
func (m Model) DefersLoads() bool {
	return m.Relaxes(ir.ClassLoad, ir.ClassLoad) || m.Relaxes(ir.ClassLoad, ir.ClassStore)
}

// FenceCost is the model-specific cost of placing one fence of the given
// kind, the weight the static hitting-set synthesizer minimizes
// (musketeer-style: full fences dominate one-way barriers, which dominate
// the single-pair membar variants). A kind that orders nothing the model
// actually relaxes is a no-op on that model and costs a nominal 1 — it can
// never help a repair, so the synthesizer will not pick it, but the table
// stays total. Costs are abstract hardware expense (cycles a stronger
// barrier wastes), not interpreter step counts.
func (m Model) FenceCost(k ir.FenceKind) int {
	relaxed := false
	for _, a := range ir.AccessClasses() {
		for _, b := range ir.AccessClasses() {
			if k.Orders(a, b) && m.Relaxes(a, b) {
				relaxed = true
			}
		}
	}
	if !relaxed {
		return 1
	}
	switch k {
	case ir.FenceFull:
		return 8
	case ir.FenceStoreLoad:
		return 5 // drains the whole buffer: nearly a full fence
	case ir.FenceAcquire, ir.FenceRelease:
		return 4 // one-way barriers: two pairs each
	case ir.FenceStoreStore, ir.FenceLoadLoad, ir.FenceLoadStore:
		return 2 // single-pair membar variants
	}
	return 8 // unknown kinds priced like a full fence (conservative)
}

// Entry is one pending buffered store. Label records the program label of
// the store instruction — the instrumented semantics (paper Semantics 2)
// need it to build ordering predicates.
type Entry struct {
	Addr  int64
	Val   int64
	Label ir.Label
}

// Buffers holds the pending stores of one thread under one memory model.
// The zero value is not usable; call New (or Reset, which accepts the zero
// value).
//
// Storage is pooled for machine reuse: the FIFOs are head-indexed queues
// whose backing arrays (and, under per-address models, whose per-address
// map entries) survive both flushes and Reset, so a thread that keeps
// executing — or a pooled thread re-armed for its next execution — stops
// allocating once the queues have grown to the workload's high-water mark.
type Buffers struct {
	model Model
	count int

	tso fifo // TSO: single FIFO

	// Per-address FIFOs. Program addresses are small dense integers
	// (globals and arrays are laid out contiguously from 0), so the hot
	// path indexes a slice grown to the highest buffered address —
	// profiles showed the former map[int64]*fifo's hashing under every
	// Put/Lookup/flush-candidate scan. Out-of-range addresses (negative
	// or huge register garbage headed for a bad-address violation at
	// flush time) fall back to a lazily-made map so a broken program
	// cannot force a giant allocation.
	pso     []fifo          // dense per-address FIFOs, index = address
	psoWild map[int64]*fifo // rare fallback for addresses outside [0, denseAddrCap)
	order   []int64         // addresses with pending entries, oldest-first insertion order (deterministic iteration)

	scratch [1]int64 // backing for the TSO PendingAddrsView result
}

// fifo is a head-indexed queue of entries: pops advance head instead of
// reslicing, so the backing array keeps its capacity, and the storage is
// reclaimed wholesale whenever the queue empties.
type fifo struct {
	ents []Entry
	head int
}

func (q *fifo) len() int       { return len(q.ents) - q.head }
func (q *fifo) slice() []Entry { return q.ents[q.head:] }
func (q *fifo) push(e Entry)   { q.ents = append(q.ents, e) }
func (q *fifo) reset()         { q.ents = q.ents[:0]; q.head = 0 }
func (q *fifo) pop() Entry {
	e := q.ents[q.head]
	q.head++
	if q.head == len(q.ents) {
		q.reset()
	}
	return e
}

// denseAddrCap bounds the dense per-address table: any program address
// below it gets an O(1) slice slot; anything at or above it (or negative)
// is register garbage that will trip the bad-address check when it
// flushes, and lives in the psoWild fallback map until then.
const denseAddrCap = 1 << 16

// queue returns addr's FIFO if it has ever buffered an entry, else nil.
// The pointer aliases the dense table and is invalidated by the next
// queueFor call — use immediately.
func (b *Buffers) queue(addr int64) *fifo {
	if uint64(addr) < uint64(len(b.pso)) {
		return &b.pso[addr]
	}
	return b.psoWild[addr]
}

// queueFor returns addr's FIFO, creating its slot on first use.
func (b *Buffers) queueFor(addr int64) *fifo {
	if addr >= 0 && addr < denseAddrCap {
		if int(addr) >= len(b.pso) {
			b.pso = append(b.pso, make([]fifo, int(addr)+1-len(b.pso))...)
		}
		return &b.pso[addr]
	}
	if b.psoWild == nil {
		b.psoWild = make(map[int64]*fifo)
	}
	q := b.psoWild[addr]
	if q == nil {
		q = &fifo{}
		b.psoWild[addr] = q
	}
	return q
}

// New returns empty buffers for one thread under model m.
func New(m Model) *Buffers {
	b := &Buffers{}
	b.Reset(m)
	return b
}

// Reset empties the buffers and switches them to model m, retaining the
// backing storage of previous runs (including the per-address queues)
// so a pooled thread's buffers are allocation-free after warm-up. The zero
// Buffers value may be Reset.
func (b *Buffers) Reset(m Model) {
	b.model = m
	b.count = 0
	b.tso.reset()
	// Non-empty queues are exactly the order-listed ones (Put appends an
	// address on its first pending entry; FlushOldest delists it on its
	// last), so resetting those — not the whole table — keeps Reset O(pending).
	for _, a := range b.order {
		b.queue(a).reset()
	}
	b.order = b.order[:0]
}

// CopyFrom makes b an independent copy of src: same model, pending
// entries and drain order. b is Reset and its queues refilled in place,
// so once b has held the workload's high-water mark a copy allocates
// nothing. Nothing is shared: flushing or resetting either side leaves
// the other unchanged.
func (b *Buffers) CopyFrom(src *Buffers) {
	b.Reset(src.model)
	b.count = src.count
	b.tso.ents = append(b.tso.ents, src.tso.slice()...)
	for _, a := range src.order {
		q := b.queueFor(a)
		q.ents = append(q.ents, src.queue(a).slice()...)
	}
	b.order = append(b.order, src.order...)
}

// Model returns the memory model these buffers implement.
func (b *Buffers) Model() Model { return b.model }

// Len returns the total number of pending entries.
func (b *Buffers) Len() int { return b.count }

// Empty reports whether no stores are pending.
func (b *Buffers) Empty() bool { return b.count == 0 }

// EmptyFor reports whether a CAS on addr may proceed: the paper's CAS rules
// require B(x) = ε. Under per-address models that is the per-address
// buffer; under TSO the single FIFO must be empty (the whole buffer orders
// before the atomic). Under SC it is always true.
func (b *Buffers) EmptyFor(addr int64) bool {
	switch b.model {
	case SC:
		return true
	case TSO:
		return b.tso.len() == 0
	case PSO, RMO:
		q := b.queue(addr)
		return q == nil || q.len() == 0
	}
	return true
}

// Put appends a pending store. It must not be called under SC (SC stores
// write memory directly).
func (b *Buffers) Put(addr, val int64, label ir.Label) {
	switch b.model {
	case SC:
		panic("memmodel: Put on SC buffers")
	case TSO:
		b.tso.push(Entry{Addr: addr, Val: val, Label: label})
	case PSO, RMO:
		q := b.queueFor(addr)
		if q.len() == 0 {
			b.order = append(b.order, addr)
		}
		q.push(Entry{Addr: addr, Val: val, Label: label})
	}
	b.count++
}

// Lookup implements the LOAD-B rule: if addr has pending stores in this
// thread's buffers, the newest buffered value is returned with ok=true.
// Otherwise ok=false and the caller reads main memory (LOAD-G).
func (b *Buffers) Lookup(addr int64) (val int64, ok bool) {
	switch b.model {
	case SC:
	case TSO:
		s := b.tso.slice()
		for i := len(s) - 1; i >= 0; i-- {
			if s[i].Addr == addr {
				return s[i].Val, true
			}
		}
	case PSO, RMO:
		if q := b.queue(addr); q != nil && q.len() > 0 {
			s := q.slice()
			return s[len(s)-1].Val, true
		}
	}
	return 0, false
}

// FlushOldest implements the FLUSH rule for one entry. Under TSO the FIFO
// head is popped regardless of addr. Under per-address models the oldest
// entry of addr's buffer is popped, or ok is false when addr has none
// pending. The popped entry is returned for the interpreter to commit to
// main memory.
func (b *Buffers) FlushOldest(addr int64) (Entry, bool) {
	switch b.model {
	case SC:
	case TSO:
		if b.tso.len() == 0 {
			return Entry{}, false
		}
		b.count--
		return b.tso.pop(), true
	case PSO, RMO:
		q := b.queue(addr)
		if q == nil || q.len() == 0 {
			return Entry{}, false
		}
		e := q.pop()
		if q.len() == 0 {
			b.removeFromOrder(addr)
		}
		b.count--
		return e, true
	}
	return Entry{}, false
}

func (b *Buffers) removeFromOrder(addr int64) {
	for i, a := range b.order {
		if a == addr {
			b.order = append(b.order[:i], b.order[i+1:]...)
			return
		}
	}
}

// PendingAddrs returns the addresses that currently have pending entries,
// in deterministic (oldest-buffer-first) order. Under TSO the result is
// the FIFO head's address only — TSO can only flush in FIFO order. Every
// returned address is a legal FlushOldest target.
func (b *Buffers) PendingAddrs() []int64 {
	switch b.model {
	case SC:
	case TSO:
		if b.tso.len() == 0 {
			return nil
		}
		return []int64{b.tso.slice()[0].Addr}
	case PSO, RMO:
		out := make([]int64, len(b.order))
		copy(out, b.order)
		return out
	}
	return nil
}

// PendingAddrsView is PendingAddrs without the copy: the returned slice
// aliases internal state (the per-address insertion-order list, or a
// one-element scratch buffer under TSO) and is only valid until the next
// buffer mutation. Callers must not retain or modify it — it exists so
// the scheduler's flush choice and the interpreter's forced flushes are
// allocation-free on the per-step hot path.
func (b *Buffers) PendingAddrsView() []int64 {
	switch b.model {
	case SC:
	case TSO:
		if b.tso.len() == 0 {
			return nil
		}
		b.scratch[0] = b.tso.slice()[0].Addr
		return b.scratch[:1]
	case PSO, RMO:
		return b.order
	}
	return nil
}

// PendingOther returns the pending entries whose address differs from
// exclude, oldest first. This realizes the premise of the instrumented
// STORE/LOAD/CAS rules of Semantics 2: the labels ly of stores sitting in
// *other* buffers of the same thread, any of which could be ordered before
// the current access to repair the execution.
func (b *Buffers) PendingOther(exclude int64) []Entry {
	return b.AppendPendingOther(nil, exclude)
}

// AppendPendingOther is PendingOther appending into dst (which may be a
// reused scratch slice), returning the extended slice. The interpreter's
// observation hook uses it to keep the per-access instrumented-semantics
// path allocation-free.
func (b *Buffers) AppendPendingOther(dst []Entry, exclude int64) []Entry {
	switch b.model {
	case SC:
	case TSO:
		for _, e := range b.tso.slice() {
			if e.Addr != exclude {
				dst = append(dst, e)
			}
		}
	case PSO, RMO:
		for _, a := range b.order {
			if a == exclude {
				continue
			}
			dst = append(dst, b.queue(a).slice()...)
		}
	}
	return dst
}

// All returns every pending entry (TSO: FIFO order; per-address models:
// grouped by address, oldest address group first). Used by tests and
// reporting.
func (b *Buffers) All() []Entry {
	return b.PendingOther(-1 << 62)
}

// Drain removes and returns all pending entries in an order they may
// legally commit: TSO pops its FIFO; per-address models pop address
// groups in buffer-creation order. Used by tests.
func (b *Buffers) Drain() []Entry {
	var out []Entry
	switch b.model {
	case SC:
	case TSO:
		out = append(out, b.tso.slice()...)
		b.tso.reset()
		b.count = 0
	case PSO, RMO:
		for b.count > 0 {
			e, _ := b.FlushOldest(b.order[0])
			out = append(out, e)
		}
	}
	return out
}

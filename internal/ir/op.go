// Package ir defines the intermediate representation interpreted by DFENCE:
// a register-based instruction set implementing the statement forms of the
// paper's Table 1 (load, store, cas, call, return, fork, join, fence, self)
// plus the ALU, branching, and allocation operations needed to lower a
// C-like surface language.
//
// Every instruction carries a stable Label that is unique within its
// Program. Labels survive program mutation: inserting a fence after label l
// allocates a fresh label for the fence and leaves all existing labels (and
// the branch targets that refer to them) untouched. Ordering predicates and
// synthesis results are expressed in terms of these labels.
package ir

import "fmt"

// Op enumerates instruction opcodes.
type Op uint8

const (
	// OpInvalid is the zero Op; a validated program never contains it.
	OpInvalid Op = iota

	// OpConst sets Dst to the immediate Imm.
	OpConst
	// OpGlobal sets Dst to the address of global GlobalName (resolved at
	// link time; Imm holds the resolved base address after linking).
	OpGlobal
	// OpMov copies register A to Dst.
	OpMov
	// OpBin applies Bin to registers A and B, storing the result in Dst.
	OpBin
	// OpNot sets Dst to 1 if register A is zero and 0 otherwise.
	OpNot
	// OpNeg sets Dst to the arithmetic negation of register A.
	OpNeg

	// OpLoad loads the word at address in register A into Dst. Subject to
	// the active memory model (reads the thread's own store buffer first).
	OpLoad
	// OpStore stores register B to the address in register A. Under TSO/PSO
	// the store enters the thread's store buffer.
	OpStore
	// OpCas compares the word at address in register A with register B and,
	// if equal, stores register C; Dst receives 1 on success, 0 on failure.
	// Executes atomically and only when the thread's store buffer for the
	// location has drained (the scheduler flushes first).
	OpCas
	// OpFence is a memory barrier; Kind selects its strength. Store-ordering
	// kinds (st-st, st-ld, release, full) execute only once the thread's
	// store buffers have drained; load-ordering kinds force the thread's
	// pending deferred loads to resolve. See FenceKind.
	OpFence

	// OpBr jumps unconditionally to the instruction labelled Target.
	OpBr
	// OpCondBr jumps to Target if register A is non-zero, else to Target2.
	OpCondBr

	// OpCall invokes function Func with argument registers Args; the return
	// value (if any) lands in Dst.
	OpCall
	// OpRet returns from the current function. If HasVal, register A holds
	// the return value.
	OpRet

	// OpFork starts a new thread running function Func with argument
	// registers Args and sets Dst to the new thread's id.
	OpFork
	// OpJoin blocks until the thread whose id is in register A finishes.
	OpJoin
	// OpSelf sets Dst to the calling thread's id.
	OpSelf

	// OpAlloc allocates a fresh memory unit of the word size in register A
	// and sets Dst to its base address. Models mmap/sbrk: the unit is
	// tracked for memory-safety checking.
	OpAlloc
	// OpFree releases the memory unit based at the address in register A.
	// Per the paper, freeing does not flush store buffers.
	OpFree

	// OpAssert checks that register A is non-zero and reports a safety
	// violation otherwise. Msg describes the assertion.
	OpAssert
	// OpPrint appends register A to the execution's output (for tests and
	// examples).
	OpPrint
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpConst:   "const",
	OpGlobal:  "global",
	OpMov:     "mov",
	OpBin:     "bin",
	OpNot:     "not",
	OpNeg:     "neg",
	OpLoad:    "load",
	OpStore:   "store",
	OpCas:     "cas",
	OpFence:   "fence",
	OpBr:      "br",
	OpCondBr:  "condbr",
	OpCall:    "call",
	OpRet:     "ret",
	OpFork:    "fork",
	OpJoin:    "join",
	OpSelf:    "self",
	OpAlloc:   "alloc",
	OpFree:    "free",
	OpAssert:  "assert",
	OpPrint:   "print",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Bin enumerates binary ALU operations.
type Bin uint8

const (
	BinAdd Bin = iota
	BinSub
	BinMul
	BinDiv
	BinMod
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
)

var binNames = [...]string{
	BinAdd: "add", BinSub: "sub", BinMul: "mul", BinDiv: "div",
	BinMod: "mod", BinAnd: "and", BinOr: "or", BinXor: "xor",
	BinShl: "shl", BinShr: "shr", BinEq: "eq", BinNe: "ne",
	BinLt: "lt", BinLe: "le", BinGt: "gt", BinGe: "ge",
}

func (b Bin) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return fmt.Sprintf("bin(%d)", uint8(b))
}

// Eval applies the binary operation to two word operands. Division and
// modulus by zero yield zero (the interpreter reports them separately).
func (b Bin) Eval(x, y int64) int64 {
	switch b {
	case BinAdd:
		return x + y
	case BinSub:
		return x - y
	case BinMul:
		return x * y
	case BinDiv:
		if y == 0 {
			return 0
		}
		return x / y
	case BinMod:
		if y == 0 {
			return 0
		}
		return x % y
	case BinAnd:
		return x & y
	case BinOr:
		return x | y
	case BinXor:
		return x ^ y
	case BinShl:
		return x << (uint64(y) & 63)
	case BinShr:
		return x >> (uint64(y) & 63)
	case BinEq:
		return b2i(x == y)
	case BinNe:
		return b2i(x != y)
	case BinLt:
		return b2i(x < y)
	case BinLe:
		return b2i(x <= y)
	case BinGt:
		return b2i(x > y)
	case BinGe:
		return b2i(x >= y)
	}
	panic(fmt.Sprintf("ir: unknown binary op %d", b))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// AccessClass classifies a shared access as a load or a store for the
// purposes of reordering: a memory model relaxes (or a fence restores)
// program order between ordered pairs of classes. CAS counts as a store
// (it writes memory); whether it can appear on either side of a relaxed
// pair is decided by the model's synchronization rules, not its class.
type AccessClass uint8

const (
	// ClassLoad is a shared read.
	ClassLoad AccessClass = iota
	// ClassStore is a shared write (store or CAS).
	ClassStore
)

func (c AccessClass) String() string {
	switch c {
	case ClassLoad:
		return "ld"
	case ClassStore:
		return "st"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// AccessClasses lists both classes, load first. Matrix builders and
// round-trip tests range over it.
func AccessClasses() []AccessClass { return []AccessClass{ClassLoad, ClassStore} }

// ClassOf returns the access class of a shared-memory opcode (OpLoad,
// OpStore, OpCas); ok is false for every other opcode.
func ClassOf(op Op) (AccessClass, bool) {
	switch op {
	case OpLoad:
		return ClassLoad, true
	case OpStore, OpCas:
		return ClassStore, true
	}
	return ClassLoad, false
}

// FenceKind distinguishes the barrier vocabulary DFENCE reasons about. Each
// kind declares which program-order pairs (AccessClass × AccessClass) it
// restores — see Orders — and the interpreter gives it operational meaning:
// store-ordering kinds drain the store buffers (the paper's Semantics 1:
// a fence needs empty buffers), load-ordering kinds force pending
// deferred loads to resolve. The kinds mirror the SPARC membar variants
// plus acquire/release one-way barriers (cf. "Don't sit on the fence":
// full fences dominate one-way barriers in both strength and cost).
type FenceKind uint8

const (
	// FenceFull is a full barrier (programmer-written fence()): orders
	// every class pair.
	FenceFull FenceKind = iota
	// FenceStoreStore orders earlier stores before later stores; the
	// interpreter drains the store buffers.
	FenceStoreStore
	// FenceStoreLoad orders earlier stores before later loads; the
	// interpreter drains the store buffers (which incidentally also orders
	// store-store — see OrdersAtRuntime).
	FenceStoreLoad
	// FenceLoadLoad orders earlier loads before later loads (resolves
	// pending deferred loads).
	FenceLoadLoad
	// FenceLoadStore orders earlier loads before later stores (resolves
	// pending deferred loads).
	FenceLoadStore
	// FenceAcquire is the one-way barrier after a load: earlier loads are
	// ordered before every later access (ld-ld and ld-st).
	FenceAcquire
	// FenceRelease is the one-way barrier before a store: every earlier
	// access is ordered before later stores (ld-st and st-st).
	FenceRelease
)

// FenceKinds lists every defined fence kind, FenceFull first. Exhaustive
// by construction: dispatch sites, cost tables, and round-trip tests range
// over it so a kind added later cannot be silently skipped.
func FenceKinds() []FenceKind {
	return []FenceKind{
		FenceFull, FenceStoreStore, FenceStoreLoad,
		FenceLoadLoad, FenceLoadStore, FenceAcquire, FenceRelease,
	}
}

// pairBit maps an ordered class pair to its bit in a coverage mask.
func pairBit(a, b AccessClass) uint8 { return 1 << (2*uint8(a) + uint8(b)) }

const (
	maskLdLd = 1 << 0 // (ClassLoad, ClassLoad)
	maskLdSt = 1 << 1 // (ClassLoad, ClassStore)
	maskStLd = 1 << 2 // (ClassStore, ClassLoad)
	maskStSt = 1 << 3 // (ClassStore, ClassStore)
	maskAll  = maskLdLd | maskLdSt | maskStLd | maskStSt
)

// ordersMask is the declared (static) coverage of each kind: the class
// pairs the kind is *specified* to order. The static delay-set analysis
// and the hitting-set fence selector trust exactly this table.
func (k FenceKind) ordersMask() uint8 {
	switch k {
	case FenceFull:
		return maskAll
	case FenceStoreStore:
		return maskStSt
	case FenceStoreLoad:
		return maskStLd
	case FenceLoadLoad:
		return maskLdLd
	case FenceLoadStore:
		return maskLdSt
	case FenceAcquire:
		return maskLdLd | maskLdSt
	case FenceRelease:
		return maskLdSt | maskStSt
	}
	return 0
}

// runtimeMask is the operational guarantee of each kind in the
// interpreter, always a superset of ordersMask: draining the store buffer
// (st-ld) cannot help but order store-store too, and resolving the
// deferred-load queue (any load-ordering kind) orders both ld-ld and
// ld-st. interp's fence tests assert dynamic ⊇ declared, which is the
// soundness direction: a fence may be stronger than it claims, never
// weaker. The st-st and release drains also order st-ld; the table
// leaves that out, so dynamic synthesis still repairs a st-ld pair with
// a st-ld fence.
func (k FenceKind) runtimeMask() uint8 {
	switch k {
	case FenceFull:
		return maskAll
	case FenceStoreStore:
		return maskStSt
	case FenceStoreLoad:
		return maskStLd | maskStSt
	case FenceLoadLoad, FenceLoadStore, FenceAcquire:
		return maskLdLd | maskLdSt
	case FenceRelease:
		return maskLdLd | maskLdSt | maskStSt
	}
	return 0
}

// Orders reports the declared coverage: a fence of this kind guarantees
// that earlier class-a accesses take effect before later class-b accesses.
func (k FenceKind) Orders(a, b AccessClass) bool {
	return k.ordersMask()&pairBit(a, b) != 0
}

// OrdersAtRuntime reports the interpreter's operational guarantee, a
// superset of Orders (see runtimeMask). Dynamic synthesis selects fence
// kinds against this table; static analysis must use Orders.
func (k FenceKind) OrdersAtRuntime(a, b AccessClass) bool {
	return k.runtimeMask()&pairBit(a, b) != 0
}

// DrainsStores reports whether executing the fence forces the thread's
// store buffers to drain completely first: every kind that orders stores
// at runtime (full, store-load, store-store and release barriers).
func (k FenceKind) DrainsStores() bool {
	return k.runtimeMask()&(maskStLd|maskStSt) != 0
}

// ResolvesLoads reports whether executing the fence forces the thread's
// pending deferred loads to resolve first (every load-ordering kind).
func (k FenceKind) ResolvesLoads() bool {
	return k.runtimeMask()&(maskLdLd|maskLdSt) != 0
}

func (k FenceKind) String() string {
	switch k {
	case FenceFull:
		return "fence"
	case FenceStoreStore:
		return "fence(st-st)"
	case FenceStoreLoad:
		return "fence(st-ld)"
	case FenceLoadLoad:
		return "fence(ld-ld)"
	case FenceLoadStore:
		return "fence(ld-st)"
	case FenceAcquire:
		return "fence(acq)"
	case FenceRelease:
		return "fence(rel)"
	}
	return fmt.Sprintf("fencekind(%d)", uint8(k))
}

// ParseFenceKind inverts FenceKind.String — used when rebuilding a
// program's fences from a serialized run journal.
func ParseFenceKind(s string) (FenceKind, error) {
	for _, k := range FenceKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("ir: unknown fence kind %q", s)
}

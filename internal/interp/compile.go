// Compiled dispatch: a one-time "compile" step that lowers a linked
// ir.Program into a flat executable form so the interpreter's step loop is
// pure array-indexed dispatch. The ir form resolves branch targets through
// a per-function label map (Func.IndexOf) and callees through the
// program-wide Funcs map on every branch, call, and fork; compilation
// pre-resolves both into integer indices held in a per-instruction side
// table, eliminating every map lookup from the per-step hot path. Compiling
// is cheap (one pass over the code) and is done once per program version —
// the batch engine compiles once per round/batch and every execution of
// that batch shares the read-only Compiled value.
package interp

import (
	"fmt"
	"hash/fnv"

	"dfence/internal/ir"
)

// rinstr is the resolved side table entry for one instruction: everything
// the ir.Instr encodes symbolically (labels, function names), pre-resolved
// to array indices.
type rinstr struct {
	target  int32 // OpBr/OpCondBr taken target as a code index
	target2 int32 // OpCondBr fall-through target as a code index
	callee  int32 // OpCall/OpFork callee as a Compiled.funcs index
	watch   int16 // watched-fence slot (Result.FenceTouched bit), -1 = unwatched
}

// cfunc is one compiled function. code aliases the source Func's Code
// slice — the program must not be mutated while any execution of the
// Compiled value is in flight (the same invariant RunBatch already
// documents for the ir.Program itself).
type cfunc struct {
	name    string
	index   int32 // position in Compiled.funcs (the state key's function id)
	numRegs int
	isOp    bool
	code    []ir.Instr
	rx      []rinstr
}

// Compiled is the executable form of a linked ir.Program. It is immutable
// after Compile and safe to share across any number of concurrent
// executions. Recompile after any program mutation (fence insertion or
// removal) — Machines never consult the ir maps at runtime, so a stale
// Compiled silently executes the old code.
type Compiled struct {
	prog  *ir.Program
	funcs []cfunc
	entry int32
}

// Program returns the source program (for global lookups and reporting).
func (c *Compiled) Program() *ir.Program { return c.prog }

// MaxWatchLabels is the capacity of the Result.FenceTouched bitmask.
const MaxWatchLabels = 64

// Compile lowers a linked program into its executable form.
func Compile(p *ir.Program) *Compiled {
	c, err := CompileWatched(p, nil)
	if err != nil {
		// Only watch-label resolution can fail; with no watch list the
		// lowering of a linked, validated program always succeeds.
		panic("interp: Compile: " + err.Error())
	}
	return c
}

// CompileWatched is Compile with a watch list: watch[i] must label a fence
// instruction in p, and executing it sets bit i of Result.FenceTouched.
// The execution cache uses this to learn which candidate fences an
// execution actually reached — a fence the execution never reaches cannot
// change its outcome. At most MaxWatchLabels labels can be watched.
func CompileWatched(p *ir.Program, watch []ir.Label) (*Compiled, error) {
	if len(watch) > MaxWatchLabels {
		return nil, fmt.Errorf("interp: CompileWatched: %d watch labels exceed the maximum %d", len(watch), MaxWatchLabels)
	}
	watchSlot := make(map[ir.Label]int16, len(watch))
	for i, l := range watch {
		watchSlot[l] = int16(i)
	}
	names := p.FuncNames() // sorted: function ids are deterministic
	id := make(map[string]int32, len(names))
	for i, n := range names {
		id[n] = int32(i)
	}
	c := &Compiled{prog: p, funcs: make([]cfunc, len(names))}
	seen := 0
	for i, n := range names {
		f := p.Funcs[n]
		cf := &c.funcs[i]
		cf.name = f.Name
		cf.index = int32(i)
		cf.numRegs = f.NumRegs
		cf.isOp = f.IsOperation
		cf.code = f.Code
		cf.rx = make([]rinstr, len(f.Code))
		for j := range f.Code {
			in := &f.Code[j]
			r := rinstr{target: -1, target2: -1, callee: -1, watch: -1}
			switch in.Op {
			case ir.OpBr:
				r.target = int32(f.IndexOf(in.Target))
			case ir.OpCondBr:
				r.target = int32(f.IndexOf(in.Target))
				r.target2 = int32(f.IndexOf(in.Target2))
			case ir.OpCall, ir.OpFork:
				r.callee = id[in.Func]
			case ir.OpFence:
				if s, ok := watchSlot[in.Label]; ok {
					r.watch = s
					seen++
				}
			}
			cf.rx[j] = r
		}
	}
	if seen != len(watch) {
		return nil, fmt.Errorf("interp: CompileWatched: %d of %d watch labels are not fence instructions in the program", len(watch)-seen, len(watch))
	}
	c.entry = id[p.Entry]
	return c, nil
}

// Fingerprint returns a 64-bit FNV-1a fingerprint of the compiled
// program's entire executable content: entry point, globals (layout and
// initial values), and every instruction field that affects execution. Two
// programs with equal fingerprints execute identically for equal seeds
// (modulo hash collision); the execution cache uses it as the
// program-identity component of its keys.
func (c *Compiled) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	ws := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	ws(c.prog.Entry)
	for _, g := range c.prog.Globals {
		ws(g.Name)
		w64(uint64(g.Size))
		w64(uint64(g.Addr))
		for _, v := range g.Init {
			w64(uint64(v))
		}
	}
	for i := range c.funcs {
		f := &c.funcs[i]
		ws(f.name)
		w64(uint64(f.numRegs))
		if f.isOp {
			w64(1)
		} else {
			w64(0)
		}
		for j := range f.code {
			in := &f.code[j]
			w64(uint64(uint32(in.Label)))
			w64(uint64(in.Op)<<32 | uint64(uint8(in.Kind))<<8 | uint64(uint8(in.Bin)))
			w64(uint64(uint32(in.Dst))<<32 | uint64(uint32(in.A)))
			w64(uint64(uint32(in.B))<<32 | uint64(uint32(in.C)))
			w64(uint64(in.Imm))
			w64(uint64(uint32(in.Target))<<32 | uint64(uint32(in.Target2)))
			ws(in.Func)
			for _, a := range in.Args {
				w64(uint64(uint32(a)))
			}
			flags := uint64(0)
			if in.HasVal {
				flags |= 1
			}
			w64(flags)
		}
	}
	return h.Sum64()
}

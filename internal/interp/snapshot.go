// State fingerprinting for exhaustive-exploration clients. The brute-force
// interleaving enumerator (internal/proggen) walks machine states depth-
// first, restoring saved states with Machine.CopyFrom, and prunes any path
// that lands in a machine state it has already expanded; that needs a
// canonical byte encoding of *all* state that can influence either future
// transitions or the recorded outcome.
// The encoding lives here because frames, buffers, and the memory image
// are unexported.
package interp

import "encoding/binary"

// keyNoExclude is an address no store can have, so AppendPendingOther
// returns every pending entry (the same sentinel memmodel.Buffers.All
// uses).
const keyNoExclude = int64(-1) << 62

// AppendStateKey appends a canonical encoding of the machine's current
// state to dst and returns the extended slice. Two machines running the
// same Compiled program that produce equal keys are in indistinguishable
// states: every future schedule from one yields the same transitions,
// outputs, and violations as from the other. The key covers the memory
// image, live allocation units, accumulated output and history, the exit
// code, every thread's frame stack (function, pc, registers, return
// slot), every thread's store buffers in canonical drain order, and every
// thread's deferred-load queue. It deliberately excludes the step counter
// and the watched-fence bitmask — neither affects future behavior, and
// including the former would defeat deduplication entirely
// (different-length paths reach equal states).
//
// The encoding is length-prefixed per section, so distinct states cannot
// collide. Keys are only comparable between machines executing the same
// *Compiled value (function indices are compile-order positions).
func (m *Machine) AppendStateKey(dst []byte) []byte {
	dst = append(dst, byte(m.model))
	if m.violated != nil {
		dst = append(dst, 1, byte(m.violated.Kind))
	} else {
		dst = append(dst, 0)
	}
	dst = appendVarint(dst, m.exitCode)
	dst = appendUvarint(dst, uint64(len(m.mem)))
	for _, v := range m.mem {
		dst = appendVarint(dst, v)
	}
	dst = appendUvarint(dst, uint64(len(m.units.units)))
	for _, u := range m.units.units {
		dst = appendVarint(dst, u.base)
		dst = appendVarint(dst, u.size)
	}
	dst = appendUvarint(dst, uint64(len(m.output)))
	for _, v := range m.output {
		dst = appendVarint(dst, v)
	}
	dst = appendUvarint(dst, uint64(len(m.history)))
	for i := range m.history {
		e := &m.history[i]
		dst = append(dst, byte(e.Kind))
		dst = appendVarint(dst, int64(e.Thread))
		dst = appendUvarint(dst, uint64(len(e.Op)))
		dst = append(dst, e.Op...)
		dst = appendUvarint(dst, uint64(len(e.Args)))
		for _, a := range e.Args {
			dst = appendVarint(dst, a)
		}
		if e.HasRet {
			dst = append(dst, 1)
			dst = appendVarint(dst, e.Ret)
		} else {
			dst = append(dst, 0)
		}
	}
	dst = appendUvarint(dst, uint64(len(m.threads)))
	for ti := range m.threads {
		t := &m.threads[ti]
		dst = appendVarint(dst, int64(t.opDepth))
		dst = appendUvarint(dst, uint64(len(t.frames)))
		for i := range t.frames {
			fr := &t.frames[i]
			dst = appendUvarint(dst, uint64(fr.fn.index))
			dst = appendVarint(dst, int64(fr.pc))
			dst = appendVarint(dst, int64(fr.retDst))
			if fr.isOp {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
			regs := t.frameRegs(fr)
			dst = appendUvarint(dst, uint64(len(regs)))
			for _, r := range regs {
				dst = appendVarint(dst, r)
			}
		}
		// Buffers in canonical drain order (TSO: FIFO; per-address models:
		// per-address FIFOs grouped oldest-address-first) — the same order
		// flushes commit in, so equal encodings mean equal flush behavior.
		ents := t.buf.AppendPendingOther(m.entScratch[:0], keyNoExclude)
		m.entScratch = ents[:0]
		dst = appendUvarint(dst, uint64(len(ents)))
		for _, e := range ents {
			dst = appendVarint(dst, e.Addr)
			dst = appendVarint(dst, e.Val)
			dst = appendVarint(dst, int64(e.Label))
		}
		// Deferred loads in issue order: the queue determines which resolve
		// transitions exist and what they will write where.
		dst = appendUvarint(dst, uint64(len(t.defq)))
		for _, d := range t.defq {
			dst = appendVarint(dst, int64(d.Label))
			dst = appendVarint(dst, d.Addr)
			dst = appendVarint(dst, int64(d.Dst))
		}
	}
	return dst
}

// appendVarint is binary.AppendVarint with a one-byte fast path: state
// keys are dominated by small values (registers, pcs, flags), whose
// zig-zag encoding fits one byte. The bytes are exactly AppendVarint's.
func appendVarint(dst []byte, v int64) []byte {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	if ux < 0x80 {
		return append(dst, byte(ux))
	}
	return binary.AppendUvarint(dst, ux)
}

// appendUvarint is binary.AppendUvarint with the same one-byte fast path.
func appendUvarint(dst []byte, x uint64) []byte {
	if x < 0x80 {
		return append(dst, byte(x))
	}
	return binary.AppendUvarint(dst, x)
}

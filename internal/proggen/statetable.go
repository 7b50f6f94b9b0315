package proggen

import (
	"bytes"
	"hash/maphash"
)

// stateTable is the enumerator's set of expanded states: it maps each
// state key (interp.Machine.AppendStateKey) to the state's visit index.
// It is an open-addressed, linearly probed hash table whose slots hold a
// key's 64-bit hash and visit index; the key bytes live in one
// append-only arena, key i at arena[ends[i-1]:ends[i]], because visit
// indices are handed out densely in insertion order. A lookup compares
// hashes first and the full bytes only on a hash match, so two states
// never merge. The hash seed decides slot positions only: the visit
// indices, and so everything Enumerate reports, do not depend on it.
//
// Resetting is O(1): a slot is occupied only when its generation equals
// the table's, so bumping the generation empties every slot at once and
// a table reused after a large enumeration does not clear its slots for
// a small one.
type stateTable struct {
	seed  maphash.Seed
	slots []stateSlot
	gen   uint32
	arena []byte
	ends  []int
}

// stateSlot is one table slot: the hash and visit index of the key it
// holds, occupied when gen is the table's generation.
type stateSlot struct {
	hash uint64
	idx  int32
	gen  uint32
}

// minStateSlots is the slot count of a new table (a power of two).
const minStateSlots = 256

// reset empties the table, keeping its storage.
func (t *stateTable) reset() {
	if t.slots == nil {
		t.seed = maphash.MakeSeed()
		t.slots = make([]stateSlot, minStateSlots)
	}
	t.gen++
	if t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
	t.arena = t.arena[:0]
	t.ends = t.ends[:0]
}

// hash returns key's hash under the table's seed.
func (t *stateTable) hash(key []byte) uint64 { return maphash.Bytes(t.seed, key) }

// key returns the bytes of the key with visit index idx.
func (t *stateTable) key(idx int32) []byte {
	start := 0
	if idx > 0 {
		start = t.ends[idx-1]
	}
	return t.arena[start:t.ends[idx]]
}

// find returns the visit index of key, whose hash is h.
func (t *stateTable) find(h uint64, key []byte) (idx int32, ok bool) {
	mask := uint64(len(t.slots) - 1)
	for pos := h & mask; ; pos = (pos + 1) & mask {
		s := &t.slots[pos]
		if s.gen != t.gen {
			return 0, false
		}
		if s.hash == h && bytes.Equal(t.key(s.idx), key) {
			return s.idx, true
		}
	}
}

// add inserts key, whose hash is h and which the table does not hold, and
// returns its visit index: the number of keys added before it.
func (t *stateTable) add(h uint64, key []byte) int32 {
	if 4*(len(t.ends)+1) > 3*len(t.slots) {
		t.grow()
	}
	idx := int32(len(t.ends))
	t.arena = append(t.arena, key...)
	t.ends = append(t.ends, len(t.arena))
	t.place(stateSlot{hash: h, idx: idx, gen: t.gen})
	return idx
}

// place stores s in the first free slot of its probe sequence.
func (t *stateTable) place(s stateSlot) {
	mask := uint64(len(t.slots) - 1)
	pos := s.hash & mask
	for t.slots[pos].gen == t.gen {
		pos = (pos + 1) & mask
	}
	t.slots[pos] = s
}

// grow doubles the slot count and re-places every held key from its
// stored hash.
func (t *stateTable) grow() {
	old, oldGen := t.slots, t.gen
	t.slots = make([]stateSlot, 2*len(old))
	t.gen = 1
	for _, s := range old {
		if s.gen == oldGen {
			s.gen = t.gen
			t.place(s)
		}
	}
}

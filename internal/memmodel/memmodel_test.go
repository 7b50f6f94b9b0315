package memmodel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dfence/internal/ir"
)

func TestParseModel(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Model
		ok   bool
	}{
		{"sc", SC, true}, {"TSO", TSO, true}, {"pso", PSO, true}, {"x86", SC, false},
		// Case-insensitivity: the doc promises any mixed-case spelling works
		// (the CLI's -model flag passes user input through verbatim).
		{"Sc", SC, true}, {"sC", SC, true}, {"tSO", TSO, true}, {"TsO", TSO, true},
		{"tso", TSO, true}, {"pSo", PSO, true}, {"PsO", PSO, true}, {"psO", PSO, true},
		{"", SC, false}, {" tso", SC, false}, {"tso ", SC, false},
	} {
		got, err := ParseModel(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseModel(%q) err = %v, ok want %v", c.in, err, c.ok)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseModel(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestParseModelRoundTrip pins ParseModel(m.String()) == m for every
// defined model, so journal deserialization can never drop a model added
// later (it would have to be added to Models() to be usable at all).
func TestParseModelRoundTrip(t *testing.T) {
	for _, m := range Models() {
		got, err := ParseModel(m.String())
		if err != nil {
			t.Fatalf("ParseModel(%q) failed: %v", m.String(), err)
		}
		if got != m {
			t.Errorf("ParseModel(%v.String()) = %v, want %v", m, got, m)
		}
	}
}

func TestTSOFIFOOrder(t *testing.T) {
	b := New(TSO)
	b.Put(10, 1, 100)
	b.Put(20, 2, 101)
	b.Put(10, 3, 102)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	// Newest value wins for lookup.
	if v, ok := b.Lookup(10); !ok || v != 3 {
		t.Errorf("Lookup(10) = %d,%v want 3,true", v, ok)
	}
	if v, ok := b.Lookup(20); !ok || v != 2 {
		t.Errorf("Lookup(20) = %d,%v want 2,true", v, ok)
	}
	if _, ok := b.Lookup(30); ok {
		t.Error("Lookup(30) found a value")
	}
	// Flush pops strictly FIFO, ignoring the addr hint.
	want := []Entry{
		{Addr: 10, Val: 1, Label: 100},
		{Addr: 20, Val: 2, Label: 101},
		{Addr: 10, Val: 3, Label: 102},
	}
	for i, w := range want {
		e, ok := b.FlushOldest(999)
		if !ok || e != w {
			t.Fatalf("flush %d = %+v,%v want %+v", i, e, ok, w)
		}
	}
	if !b.Empty() {
		t.Error("buffer not empty after draining")
	}
	if _, ok := b.FlushOldest(0); ok {
		t.Error("FlushOldest on empty buffer returned ok")
	}
}

func TestPSOPerAddressFIFO(t *testing.T) {
	b := New(PSO)
	b.Put(10, 1, 100)
	b.Put(20, 2, 101)
	b.Put(10, 3, 102)
	// Per-address FIFO: address 20 can flush before address 10's first
	// entry (store-store reordering), but within address 10 order holds.
	e, ok := b.FlushOldest(20)
	if !ok || e.Val != 2 {
		t.Fatalf("FlushOldest(20) = %+v,%v", e, ok)
	}
	e, ok = b.FlushOldest(10)
	if !ok || e.Val != 1 {
		t.Fatalf("FlushOldest(10) first = %+v, want val 1", e)
	}
	e, ok = b.FlushOldest(10)
	if !ok || e.Val != 3 {
		t.Fatalf("FlushOldest(10) second = %+v, want val 3", e)
	}
	if !b.Empty() {
		t.Error("not empty")
	}
}

func TestEmptyFor(t *testing.T) {
	sc := New(SC)
	if !sc.EmptyFor(10) {
		t.Error("SC EmptyFor must always be true")
	}

	tso := New(TSO)
	tso.Put(10, 1, 1)
	if tso.EmptyFor(20) {
		t.Error("TSO CAS must wait for the whole FIFO to drain")
	}

	pso := New(PSO)
	pso.Put(10, 1, 1)
	if pso.EmptyFor(10) {
		t.Error("PSO EmptyFor(10) with pending store to 10")
	}
	if !pso.EmptyFor(20) {
		t.Error("PSO CAS on a different address may proceed")
	}
}

func TestPendingAddrsDeterministic(t *testing.T) {
	b := New(PSO)
	b.Put(30, 1, 1)
	b.Put(10, 2, 2)
	b.Put(20, 3, 3)
	b.Put(10, 4, 4)
	got := b.PendingAddrs()
	want := []int64{30, 10, 20}
	if len(got) != len(want) {
		t.Fatalf("PendingAddrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PendingAddrs = %v, want %v", got, want)
		}
	}

	tso := New(TSO)
	tso.Put(30, 1, 1)
	tso.Put(10, 2, 2)
	if got := tso.PendingAddrs(); len(got) != 1 || got[0] != 30 {
		t.Errorf("TSO PendingAddrs = %v, want [30] (FIFO head only)", got)
	}
}

func TestPendingOther(t *testing.T) {
	b := New(PSO)
	b.Put(10, 1, 100)
	b.Put(20, 2, 200)
	b.Put(20, 3, 201)
	other := b.PendingOther(10)
	if len(other) != 2 || other[0].Label != 200 || other[1].Label != 201 {
		t.Errorf("PendingOther(10) = %+v, want the two stores to 20", other)
	}
	if got := b.PendingOther(20); len(got) != 1 || got[0].Label != 100 {
		t.Errorf("PendingOther(20) = %+v, want the store to 10", got)
	}
}

func TestDrain(t *testing.T) {
	for _, m := range []Model{TSO, PSO} {
		b := New(m)
		b.Put(10, 1, 1)
		b.Put(20, 2, 2)
		b.Put(10, 3, 3)
		got := b.Drain()
		if len(got) != 3 {
			t.Fatalf("%v: Drain returned %d entries, want 3", m, len(got))
		}
		if !b.Empty() || b.Len() != 0 {
			t.Errorf("%v: buffers not empty after Drain", m)
		}
		// Per-address order must hold in the drain sequence.
		last := map[int64]int64{}
		for _, e := range got {
			if prev, ok := last[e.Addr]; ok && prev == 3 && e.Val == 1 {
				t.Errorf("%v: drain violated per-address FIFO: %+v", m, got)
			}
			last[e.Addr] = e.Val
		}
	}
}

// Property: under both TSO and PSO, for any sequence of stores to a set of
// addresses, Lookup(a) always returns the most recent store to a (or
// nothing if a was fully flushed), and per-address flush order equals store
// order. This is the coherence invariant the models share.
func TestQuickPerAddressCoherence(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		for _, m := range []Model{TSO, PSO} {
			b := New(m)
			rng := rand.New(rand.NewSource(seed))
			latest := map[int64]int64{}    // last stored value per addr
			flushedUpTo := map[int64]int{} // count of flushes per addr
			stored := map[int64][]int64{}  // all values stored per addr, in order
			val := int64(0)
			for _, op := range ops {
				addr := int64(op%4) * 8
				if op%3 == 0 && !b.Empty() {
					// flush something legal
					addrs := b.PendingAddrs()
					a := addrs[rng.Intn(len(addrs))]
					e, ok := b.FlushOldest(a)
					if !ok {
						return false
					}
					// must be the next unflushed store to e.Addr
					idx := flushedUpTo[e.Addr]
					if idx >= len(stored[e.Addr]) || stored[e.Addr][idx] != e.Val {
						return false
					}
					flushedUpTo[e.Addr] = idx + 1
				} else {
					val++
					b.Put(addr, val, ir.Label(val))
					latest[addr] = val
					stored[addr] = append(stored[addr], val)
				}
			}
			for a, want := range latest {
				got, ok := b.Lookup(a)
				fullyFlushed := flushedUpTo[a] == len(stored[a])
				if fullyFlushed {
					if ok {
						return false // nothing pending, Lookup must miss
					}
				} else if !ok || got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: count bookkeeping — Len equals puts minus flushes at all times.
func TestQuickLenInvariant(t *testing.T) {
	f := func(ops []bool) bool {
		for _, m := range []Model{TSO, PSO} {
			b := New(m)
			n := 0
			for i, put := range ops {
				if put {
					b.Put(int64(i%5), int64(i), ir.Label(i))
					n++
				} else if !b.Empty() {
					addrs := b.PendingAddrs()
					if _, ok := b.FlushOldest(addrs[0]); ok {
						n--
					}
				}
				if b.Len() != n || b.Empty() != (n == 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModelString(t *testing.T) {
	if SC.String() != "SC" || TSO.String() != "TSO" || PSO.String() != "PSO" {
		t.Error("model names wrong")
	}
}

// bufState renders everything observable about b's pending content.
func bufState(b *Buffers) string {
	return fmt.Sprintf("model=%v len=%d pending=%v all=%+v",
		b.Model(), b.Len(), b.PendingAddrs(), b.All())
}

// TestBuffersCopyFrom checks that a copy holds exactly the source's
// pending entries and drain order — dense and psoWild addresses
// alike — that stale content of the destination is gone, and that the
// two stay independent afterwards.
func TestBuffersCopyFrom(t *testing.T) {
	wild := []int64{denseAddrCap + 5, -7}
	for _, m := range []Model{TSO, PSO, RMO} {
		src := New(m)
		src.Put(10, 1, 100)
		src.Put(20, 2, 101)
		src.FlushOldest(10) // a popped head: the copy starts past it
		src.Put(10, 3, 102)
		src.Put(wild[0], 4, 103)
		src.Put(wild[1], 5, 104)
		src.Put(30, 6, 105)

		// The destination starts under another model with stale entries
		// at addresses the source does not buffer.
		dst := New(PSO)
		if m == PSO {
			dst = New(TSO)
		}
		dst.Put(40, 7, 106)
		dst.Put(denseAddrCap+9, 8, 107)
		dst.CopyFrom(src)
		want := bufState(src)
		if got := bufState(dst); got != want {
			t.Fatalf("%v: copy\n%s\nwant\n%s", m, got, want)
		}
		for _, a := range []int64{40, denseAddrCap + 9} {
			if _, ok := dst.Lookup(a); ok {
				t.Errorf("%v: stale destination entry at %d survived the copy", m, a)
			}
		}
		for i, a := range wild {
			if v, ok := dst.Lookup(a); !ok || v != int64(4+i) {
				t.Errorf("%v: Lookup(%d) on the copy = %d,%v want %d,true", m, a, v, ok, 4+i)
			}
		}

		// Draining the copy commits in the source's order and leaves the
		// source untouched; so does a later Put on the source.
		drained := dst.Drain()
		if got := bufState(src); got != want {
			t.Fatalf("%v: draining the copy changed the source:\n%s\nwant\n%s", m, got, want)
		}
		if order := src.Drain(); !reflect.DeepEqual(drained, order) {
			t.Errorf("%v: copy drained %+v, source %+v", m, drained, order)
		}
		dst.CopyFrom(src)
		src.Put(10, 9, 108)
		if !dst.Empty() {
			t.Errorf("%v: a Put on the source reached an empty copy: %+v", m, dst.All())
		}
	}
}

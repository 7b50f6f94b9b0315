package memmodel

import (
	"testing"

	"dfence/internal/ir"
)

// TestRelaxesMatrix pins the full reordering matrix for every model —
// the single source of truth every analysis dispatches on.
func TestRelaxesMatrix(t *testing.T) {
	type pair struct{ a, b ir.AccessClass }
	ld, st := ir.ClassLoad, ir.ClassStore
	want := map[Model]map[pair]bool{
		SC:  {},
		TSO: {{st, ld}: true},
		PSO: {{st, ld}: true, {st, st}: true},
		RMO: {{st, ld}: true, {st, st}: true, {ld, ld}: true, {ld, st}: true},
	}
	for _, m := range Models() {
		for _, a := range ir.AccessClasses() {
			for _, b := range ir.AccessClasses() {
				if got := m.Relaxes(a, b); got != want[m][pair{a, b}] {
					t.Errorf("%v.Relaxes(%v,%v) = %v, want %v", m, a, b, got, want[m][pair{a, b}])
				}
			}
		}
	}
	// The hierarchy is cumulative: each model's relaxations include its
	// predecessor's.
	ms := Models()
	for i := 1; i < len(ms); i++ {
		for _, a := range ir.AccessClasses() {
			for _, b := range ir.AccessClasses() {
				if ms[i-1].Relaxes(a, b) && !ms[i].Relaxes(a, b) {
					t.Errorf("%v relaxes (%v,%v) but weaker %v does not", ms[i-1], a, b, ms[i])
				}
			}
		}
	}
}

func TestCapabilityWrappers(t *testing.T) {
	for _, m := range Models() {
		if m.RelaxesStoreLoad() != m.Relaxes(ir.ClassStore, ir.ClassLoad) {
			t.Errorf("%v: RelaxesStoreLoad disagrees with matrix", m)
		}
		if m.RelaxesStoreStore() != m.Relaxes(ir.ClassStore, ir.ClassStore) {
			t.Errorf("%v: RelaxesStoreStore disagrees with matrix", m)
		}
		wantDefer := m.Relaxes(ir.ClassLoad, ir.ClassLoad) || m.Relaxes(ir.ClassLoad, ir.ClassStore)
		if m.DefersLoads() != wantDefer {
			t.Errorf("%v: DefersLoads = %v, want %v", m, m.DefersLoads(), wantDefer)
		}
		if !m.MultiCopyAtomic() {
			t.Errorf("%v: all store-buffer models are multi-copy atomic", m)
		}
	}
	if SC.DefersLoads() || TSO.DefersLoads() || PSO.DefersLoads() {
		t.Error("only RMO defers loads")
	}
	if !RMO.DefersLoads() {
		t.Error("RMO must defer loads")
	}
}

// TestFenceCost pins the cost lattice: on a model where a kind is useful,
// a full fence is at least as expensive as any other kind, and a kind
// covering nothing the model relaxes costs the nominal nop price.
func TestFenceCost(t *testing.T) {
	for _, m := range Models() {
		full := m.FenceCost(ir.FenceFull)
		for _, k := range ir.FenceKinds() {
			c := m.FenceCost(k)
			if c <= 0 {
				t.Errorf("%v.FenceCost(%v) = %d, want positive", m, k, c)
			}
			if c > full {
				t.Errorf("%v: %v costs %d > full fence %d", m, k, c, full)
			}
			useful := false
			for _, a := range ir.AccessClasses() {
				for _, b := range ir.AccessClasses() {
					if k.Orders(a, b) && m.Relaxes(a, b) {
						useful = true
					}
				}
			}
			if !useful && c != 1 {
				t.Errorf("%v: nop kind %v costs %d, want 1", m, k, c)
			}
			if useful && c == 1 {
				t.Errorf("%v: useful kind %v priced as a nop", m, k)
			}
		}
	}
	// Under SC every fence is a nop.
	for _, k := range ir.FenceKinds() {
		if SC.FenceCost(k) != 1 {
			t.Errorf("SC.FenceCost(%v) = %d, want 1", k, SC.FenceCost(k))
		}
	}
	// Under RMO the single-pair membars are strictly cheaper than the
	// one-way barriers, which are cheaper than st-ld, which is cheaper
	// than full — the lattice the synthesizer exploits.
	costs := []int{
		RMO.FenceCost(ir.FenceLoadLoad),
		RMO.FenceCost(ir.FenceAcquire),
		RMO.FenceCost(ir.FenceStoreLoad),
		RMO.FenceCost(ir.FenceFull),
	}
	for i := 1; i < len(costs); i++ {
		if costs[i-1] >= costs[i] {
			t.Errorf("RMO cost lattice not strict: %v", costs)
		}
	}
}

// TestRMOBuffersBehaveLikePSO: the store side of RMO is PSO's per-address
// buffers; load deferral lives in the interpreter.
func TestRMOBuffersBehaveLikePSO(t *testing.T) {
	b := New(RMO)
	b.Put(10, 1, 100)
	b.Put(20, 2, 101)
	if e, ok := b.FlushOldest(20); !ok || e.Val != 2 {
		t.Fatalf("RMO FlushOldest(20) = %+v,%v (store-store reorder)", e, ok)
	}
	if !b.EmptyFor(20) || b.EmptyFor(10) {
		t.Error("RMO EmptyFor wrong")
	}
	if v, ok := b.Lookup(10); !ok || v != 1 {
		t.Errorf("RMO Lookup(10) = %d,%v", v, ok)
	}
}

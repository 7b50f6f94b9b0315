package proggen

import (
	"fmt"
	"testing"
)

// TestStateTableExact: keys whose hashes collide stay distinct, every
// key keeps the visit index it was added with across growth, and a reset
// empties the table.
func TestStateTableExact(t *testing.T) {
	var tab stateTable
	for round := 0; round < 3; round++ {
		tab.reset()
		const n = 1000
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("state-%d-%d", round, i))
		}
		// The first half shares one hash, so every lookup among them
		// falls back to comparing bytes; the second half hashes normally.
		hash := func(i int) uint64 {
			if i < n/2 {
				return 42
			}
			return tab.hash(keys[i])
		}
		for i, k := range keys {
			if _, ok := tab.find(hash(i), k); ok {
				t.Fatalf("round %d: key %d found before it was added", round, i)
			}
			if idx := tab.add(hash(i), k); idx != int32(i) {
				t.Fatalf("round %d: key %d added as visit %d", round, i, idx)
			}
		}
		for i, k := range keys {
			if idx, ok := tab.find(hash(i), k); !ok || idx != int32(i) {
				t.Fatalf("round %d: key %d found as (%d, %v)", round, i, idx, ok)
			}
			if got := tab.key(int32(i)); string(got) != string(k) {
				t.Fatalf("round %d: key %d stored as %q", round, i, got)
			}
		}
		if _, ok := tab.find(42, []byte("absent")); ok {
			t.Fatalf("round %d: an absent key with a colliding hash was found", round)
		}
	}
}

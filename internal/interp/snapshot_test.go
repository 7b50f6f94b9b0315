package interp

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestAppendVarintMatchesBinary pins the state key's varint fast paths to
// the bytes encoding/binary writes, so keys stay byte-identical.
func TestAppendVarintMatchesBinary(t *testing.T) {
	vals := []int64{math.MinInt64, math.MaxInt64, 1 << 20, -(1 << 20)}
	for v := int64(-300); v <= 300; v++ {
		vals = append(vals, v)
	}
	for _, v := range vals {
		if got, want := appendVarint([]byte{9}, v), binary.AppendVarint([]byte{9}, v); !bytes.Equal(got, want) {
			t.Errorf("appendVarint(%d) = %x, want %x", v, got, want)
		}
		if got, want := appendUvarint(nil, uint64(v)), binary.AppendUvarint(nil, uint64(v)); !bytes.Equal(got, want) {
			t.Errorf("appendUvarint(%d) = %x, want %x", uint64(v), got, want)
		}
	}
}

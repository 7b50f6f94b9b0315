package main

import (
	"reflect"
	"testing"

	"dfence/internal/memmodel"
)

func TestParseFuzzModels(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []memmodel.Model // nil: an error
	}{
		{"tso,pso,rmo", []memmodel.Model{memmodel.TSO, memmodel.PSO, memmodel.RMO}},
		{"tso,sc", []memmodel.Model{memmodel.TSO}},
		{" pso , ", []memmodel.Model{memmodel.PSO}},
		{"sc", nil},
		{"", nil},
		{"tso,bogus", nil},
	} {
		got, err := parseFuzzModels(tc.list)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseFuzzModels(%q) = %v, want an error", tc.list, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseFuzzModels(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
		}
	}
}

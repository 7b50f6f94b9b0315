package core

import (
	"testing"

	"dfence/internal/memmodel"
)

// TestRoundOptsHonorsNeverFlush: a run that asks never to flush early
// (negative FlushProb) runs every portfolio phase at flush probability 0,
// while a default run keeps the eager phases' starveEagerFlush.
func TestRoundOptsHonorsNeverFlush(t *testing.T) {
	for _, model := range []memmodel.Model{memmodel.TSO, memmodel.PSO, memmodel.RMO} {
		never := Config{Model: model, FlushProb: -1}
		never.fill()
		def := Config{Model: model}
		def.fill()
		for i := 0; i < portfolioPhases(&def); i++ {
			if p := roundOpts(&never, 0, i).FlushProb; p != 0 {
				t.Errorf("%v phase %d: never-flush run got flush probability %g", model, i, p)
			}
			want := def.FlushProb
			if i >= 3 {
				want = starveEagerFlush
			}
			if p := roundOpts(&def, 0, i).FlushProb; p != want {
				t.Errorf("%v phase %d: default run got flush probability %g, want %g", model, i, p, want)
			}
		}
	}
}

// The paper's running example in full (§2, Fig. 1–2): the Chase-Lev
// work-stealing deque needs different fences for different memory models
// and correctness criteria. This program walks the whole story:
//
//  1. the fence-free deque is correct on an SC machine,
//
//  2. TSO breaks operation-level sequential consistency (Fig. 2a) and F1
//     repairs it,
//
//  3. PSO additionally breaks it via store-store reordering (Fig. 2b) and
//     F2 repairs that,
//
//  4. linearizability on PSO needs a third fence F3 at the end of put
//     (Fig. 2c).
//
//     go run ./examples/chaselev
package main

import (
	"fmt"
	"log"

	"dfence/internal/core"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
)

func main() {
	b, err := progs.ByName("chase-lev")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Step 1: the fence-free Chase-Lev deque, checked on each model")
	for _, m := range []memmodel.Model{memmodel.SC, memmodel.TSO, memmodel.PSO} {
		for _, crit := range []spec.Criterion{spec.SeqConsistency, spec.Linearizability} {
			cfg := core.Config{
				Model: m, Criterion: crit,
				NewSpec:          b.NewSpec(),
				RelaxStealAborts: true,
				Seed:             1,
			}
			v := core.CheckOnly(b.Program(), cfg, 500)
			fmt.Printf("  %-3v / %-22v : %3d/500 violations\n", m, crit, v)
		}
	}

	fmt.Println("\nStep 2: synthesize fences per (model, criterion)")
	for _, c := range []struct {
		model memmodel.Model
		crit  spec.Criterion
		fig   string
	}{
		{memmodel.TSO, spec.SeqConsistency, "expect F1 (Fig. 2a repair)"},
		{memmodel.PSO, spec.SeqConsistency, "expect F1+F2 (Fig. 2b repair)"},
		{memmodel.PSO, spec.Linearizability, "expect F1+F2+F3 (Fig. 2c repair)"},
	} {
		res, err := core.Synthesize(b.Program(), core.Config{
			Model: c.model, Criterion: c.crit,
			NewSpec:          b.NewSpec(),
			RelaxStealAborts: true,
			ExecsPerRound:    1000,
			Seed:             1,
			ValidateFences:   true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %v / %v — %s\n", c.model, c.crit, c.fig)
		for _, f := range res.Fences {
			fmt.Printf("    %v %s\n", f.Kind, core.DescribeFence(res.Program, f))
		}
		if len(res.Fences) == 0 {
			fmt.Println("    (none)")
		}
	}

	fmt.Println("\nStep 3: the paper's Fig. 2c history, checked directly")
	// put(1) completes strictly before a steal that returns EMPTY: SC
	// accepts it (the operations may be commuted), linearizability rejects
	// it (real-time order pins put first).
	ops := []spec.Op{
		{Thread: 1, Name: "put", Args: []int64{1}, Inv: 0, Res: 1},
		{Thread: 2, Name: "steal", Ret: spec.EmptyVal, HasRet: true, Inv: 2, Res: 3},
	}
	fmt.Printf("  history: %v then %v\n", ops[0], ops[1])
	fmt.Printf("  sequentially consistent: %v\n", spec.IsSequentiallyConsistent(ops, spec.NewDeque))
	fmt.Printf("  linearizable:            %v\n", spec.IsLinearizable(ops, spec.NewDeque))
}

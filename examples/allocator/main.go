// The §6.7 study: Michael's lock-free memory allocator. Memory-safety
// checking is effective here (unlike for the WSQs, §6.6) because the code
// is full of pointer dereferences: a buffered descriptor field committed
// late becomes a null dereference in another thread. Strengthening the
// criterion to sequential consistency / linearizability surfaces an
// additional fence in free.
//
//	go run ./examples/allocator
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
	b, err := progs.ByName("michael-alloc")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("client: thread1 = m m m f f f, thread2 = m f m f (§6.7)")

	fmt.Println("\nviolations of the fence-free allocator (500 runs each):")
	for _, m := range []memmodel.Model{memmodel.SC, memmodel.TSO, memmodel.PSO} {
		for _, crit := range []spec.Criterion{spec.MemorySafety, spec.SeqConsistency} {
			cfg := core.Config{
				Model: m, Criterion: crit,
				NewSpec: b.NewSpec(),
				Seed:    1,
			}
			v := core.CheckOnly(b.Program(), cfg, 500)
			fmt.Printf("  %-3v / %-22v : %3d/500\n", m, crit, v)
		}
	}

	fmt.Println("\nsynthesis on PSO, per criterion:")
	for _, crit := range []spec.Criterion{spec.MemorySafety, spec.SeqConsistency, spec.Linearizability} {
		res, err := core.Synthesize(b.Program(), core.Config{
			Model:          memmodel.PSO,
			Criterion:      crit,
			NewSpec:        b.NewSpec(),
			ExecsPerRound:  1000,
			Seed:           1,
			ValidateFences: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %v: %d fence(s) after %d executions (converged=%v)\n",
			crit, len(res.Fences), res.TotalExecutions, res.Outcome == core.OutcomeConverged)
		for _, f := range res.Fences {
			fmt.Printf("    %v %s\n", f.Kind, core.DescribeFence(res.Program, f))
		}
	}
}

// Porting study: the paper's motivation — "the process of placing fences
// is repeated whenever the implementation is ported to a different
// architecture" (§1). This example ports the FIFO work-stealing queue
// across SC → TSO → PSO and lets DFENCE compute the fence delta each time:
// none on SC, still none on TSO (the §6.6 observation that FIFO WSQ is
// fence-free under operation-level SC on TSO), and two fences on PSO. It
// then shows the same port under the stricter linearizability criterion,
// where TSO already needs a fence.
//
//	go run ./examples/portability
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
	b, err := progs.ByName("fifo-wsq")
	if err != nil {
		log.Fatal(err)
	}

	port := func(crit spec.Criterion) {
		fmt.Printf("porting fifo-wsq under %v:\n", crit)
		for _, m := range []memmodel.Model{memmodel.SC, memmodel.TSO, memmodel.PSO} {
			res, err := core.Synthesize(b.Program(), core.Config{
				Model:            m,
				Criterion:        crit,
				NewSpec:          b.NewSpec(),
				RelaxStealAborts: true,
				ExecsPerRound:    1000,
				Seed:             1,
				ValidateFences:   true,
			})
			if err != nil {
				log.Fatal(err)
			}
			status := "ok"
			if res.Outcome == core.OutcomeUnfixable {
				status = "cannot satisfy"
			} else if res.Outcome != core.OutcomeConverged {
				status = "did not converge"
			}
			fmt.Printf("  %-3v: %d fence(s) [%s]\n", m, len(res.Fences), status)
			for _, f := range res.Fences {
				fmt.Printf("        %v %s\n", f.Kind, core.DescribeFence(res.Program, f))
			}
		}
		fmt.Println()
	}

	port(spec.SeqConsistency)
	port(spec.Linearizability)

	fmt.Println("Takeaway: weakening the criterion from linearizability to")
	fmt.Println("operation-level SC yields a FIFO WSQ with no fences at all on")
	fmt.Println("TSO (§6.6) — the tool quantifies the synchronization cost of")
	fmt.Println("each (criterion, architecture) pair during a port.")
}

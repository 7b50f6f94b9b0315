// Witness study: DFENCE captures the first violating execution as a
// complete schedule (a sched.Trace). This example synthesizes fences for
// the MSN queue on PSO, replays the recorded counterexample against the
// original program (reproducing the violation deterministically), and then
// replays the same schedule against the repaired program to show the
// violation is gone.
//
//	go run ./examples/witness
package main

import (
	"fmt"
	"log"

	"dfence/internal/core"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/sched"
	"dfence/internal/spec"
)

func main() {
	b, err := progs.ByName("msn-queue")
	if err != nil {
		log.Fatal(err)
	}
	original := b.Program()

	res, err := core.Synthesize(original, core.Config{
		Model:          memmodel.PSO,
		Criterion:      spec.SeqConsistency,
		NewSpec:        b.NewSpec(),
		ExecsPerRound:  1000,
		Seed:           1,
		ValidateFences: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesis converged=%v with %d fence(s):\n", res.Outcome == core.OutcomeConverged, len(res.Fences))
	for _, f := range res.Fences {
		fmt.Printf("  %v %s\n", f.Kind, core.DescribeFence(res.Program, f))
	}
	if res.Witness == nil {
		log.Fatal("no witness captured")
	}
	fmt.Printf("\nwitness: %d scheduling decisions\n", res.Witness.Len())
	fmt.Printf("violated: %s\n", res.WitnessViolation)

	// 1. Replay against the original program: the violation reproduces.
	rep, ok := sched.Replay(original, nil, res.Witness)
	if !ok {
		log.Fatal("replay diverged on the original program")
	}
	ops := spec.CompleteOps(rep.History)
	badThen := rep.Violation != nil || !spec.IsSequentiallyConsistent(ops, b.NewSpec())
	fmt.Printf("\nreplay on ORIGINAL program: violation reproduced = %v\n", badThen)
	fmt.Println("  history:")
	for _, o := range ops {
		fmt.Printf("    %v\n", o)
	}

	// 2. Replay the same schedule against the repaired program.
	rep2, _ := sched.Replay(res.Program, nil, res.Witness)
	ops2 := spec.CompleteOps(rep2.History)
	badNow := rep2.Violation != nil || !spec.IsSequentiallyConsistent(ops2, b.NewSpec())
	fmt.Printf("\nreplay on REPAIRED program: violation reproduced = %v\n", badNow)
	if badThen && !badNow {
		fmt.Println("\nThe inferred fence kills exactly the recorded counterexample.")
	}
}

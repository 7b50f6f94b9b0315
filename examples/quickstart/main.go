// Quickstart: compile a 30-line concurrent mini-C program, watch it break
// under PSO, and let DFENCE synthesize the missing fence.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dfence/internal/core"
	"dfence/internal/lang"
	"dfence/internal/memmodel"
	"dfence/internal/spec"
)

// A single-producer mailbox: the producer publishes a value and raises a
// flag; the consumer spins on the flag and asserts it sees the value.
// Under PSO the two stores may commit in either order, so the consumer can
// observe flag=1 with data still 0 — the assertion fires. One store-store
// fence repairs it.
const src = `
int data = 0;
int flag = 0;

void producer() {
  data = 42;
  flag = 1;
}

void consumer() {
  while (!flag) { }
  assert(data == 42);
}

int main() {
  int t1 = fork producer();
  int t2 = fork consumer();
  join t1;
  join t2;
  return 0;
}
`

func main() {
	prog, err := lang.Compile(src)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Show the bug exists under PSO but not under SC or TSO.
	for _, m := range []memmodel.Model{memmodel.SC, memmodel.TSO, memmodel.PSO} {
		cfg := core.Config{Model: m, Criterion: spec.MemorySafety, Seed: 1}
		v := core.CheckOnly(prog, cfg, 500)
		fmt.Printf("%-3v: %3d/500 executions fail the assertion\n", m, v)
	}

	// 2. Synthesize the repair for PSO.
	res, err := core.Synthesize(prog, core.Config{
		Model:          memmodel.PSO,
		Criterion:      spec.MemorySafety,
		ExecsPerRound:  500,
		Seed:           1,
		ValidateFences: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsynthesis: %d round(s), %d executions, converged=%v\n",
		len(res.Rounds), res.TotalExecutions, res.Outcome == core.OutcomeConverged)
	for _, f := range res.Fences {
		fmt.Printf("inferred: %v %s\n", f.Kind, core.DescribeFence(res.Program, f))
	}

	// 3. Confirm the repaired program is clean.
	cfg := core.Config{Model: memmodel.PSO, Criterion: spec.MemorySafety, Seed: 99}
	v := core.CheckOnly(res.Program, cfg, 500)
	fmt.Printf("\nrepaired program: %d/500 executions fail\n", v)
}

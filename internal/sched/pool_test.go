package sched_test

import (
	"context"
	"testing"

	"dfence/internal/interp"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/sched"
)

// TestRunBatchPooledAllocs pins the pooled engine's allocation bound: one
// worker runs 256 Chase-Lev PSO executions on one reused machine, so the
// steady state allocates next to nothing per execution. Losing a pooled
// buffer (machine, store buffers, history, scheduler scratch) costs at
// least one allocation per execution and fails this.
func TestRunBatchPooledAllocs(t *testing.T) {
	b, err := progs.ByName("chase-lev")
	if err != nil {
		t.Fatal(err)
	}
	c := interp.Compile(b.Program())
	const n = 256
	optsFor := func(i int) sched.Options { return sched.DefaultOptions(int64(i)) }
	reduce := func(i, _ int, _ interp.Observer, _ *interp.Result, err *sched.ExecError) (struct{}, bool) {
		if err != nil {
			t.Fatalf("execution %d: %v", i, err)
		}
		return struct{}{}, false
	}
	allocs := testing.AllocsPerRun(3, func() {
		sched.RunBatchCompiled(context.Background(), c, memmodel.PSO, n, 1, nil, optsFor, reduce)
	})
	perExec := allocs / n
	t.Logf("%.2f allocations per execution", perExec)
	if perExec >= 2 {
		t.Errorf("pooled batch allocates %.2f times per execution, want < 2", perExec)
	}
}

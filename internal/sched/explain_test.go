package sched_test

import (
	"reflect"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/litmus"
	"dfence/internal/memmodel"
	"dfence/internal/sched"
)

// TestReplayExplainedRMO replays RMO litmus traces — flushes, scheduled
// resolves, and resolves the next instruction forces — through
// ReplayExplained. Every recorded transition must yield exactly one fact
// of its own kind: an execution step renders as an instruction (or as the
// flush or resolve it was forced to be), never as some other thread
// action, and the replayed result must be Replay's.
func TestReplayExplainedRMO(t *testing.T) {
	resolving := 0
	for _, lt := range litmus.All() {
		// Unoptimized, a loaded value's copy depends on the load at once,
		// so a scheduled resolve and a forced one coincide; optimized, the
		// load's window stays open and scheduled resolves pick freely.
		opt := lt.Program().Clone()
		ir.Optimize(opt)
		for i := int64(0); i < 600; i++ {
			p, seed := lt.Program(), i
			if i >= 300 {
				p, seed = opt, i-300
			}
			opts := sched.Options{Seed: seed, FlushProb: 0.9, ResolveProb: 0.05, MaxSteps: 100000, PORWindow: 64}
			orig, tr := sched.RunTraced(p, memmodel.RMO, nil, opts)
			var steps, flushes, resolves int
			for _, d := range tr.Decisions {
				switch {
				case d.Flush:
					flushes++
				case d.Resolve:
					resolves++
				default:
					steps += d.Steps
				}
			}
			if resolves > 0 {
				resolving++
			}

			facts, res, ok := sched.ReplayExplained(p, tr)
			if !ok {
				t.Fatalf("%s run %d: recorded trace does not replay", lt.Name, i)
			}
			var execs, forced, flushFacts, resolveFacts int
			for _, f := range facts {
				switch {
				case f.Exec:
					execs++
				case f.Forced:
					forced++
				case f.Flush:
					flushFacts++
				case f.Resolve:
					resolveFacts++
				}
			}
			if execs+forced != steps || flushFacts != flushes || resolveFacts != resolves {
				t.Fatalf("%s run %d: facts %d exec + %d forced, %d flush, %d resolve; trace records %d steps, %d flushes, %d resolves",
					lt.Name, i, execs, forced, flushFacts, resolveFacts, steps, flushes, resolves)
			}
			if len(facts) != orig.Steps {
				t.Fatalf("%s run %d: %d facts for a %d-transition execution", lt.Name, i, len(facts), orig.Steps)
			}
			rep, _ := sched.Replay(p, nil, tr)
			if !reflect.DeepEqual(res, rep) {
				t.Fatalf("%s run %d: ReplayExplained result differs from Replay's", lt.Name, i)
			}
			if !reflect.DeepEqual(res.Output, orig.Output) || res.Steps != orig.Steps {
				t.Fatalf("%s run %d: replay output %v in %d steps, recorded %v in %d",
					lt.Name, i, res.Output, res.Steps, orig.Output, orig.Steps)
			}
		}
	}
	if resolving == 0 {
		t.Fatal("no trace scheduled a resolve; the test exercises nothing")
	}
}

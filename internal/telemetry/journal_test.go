package telemetry

import (
	"reflect"
	"strings"
	"testing"
)

// allEvents is one instance of every journal event type, with every field
// populated — the roundtrip fixture that catches an event added to the
// schema without a decoders row, and a field added without a reader
// update.
func allEvents() []Event {
	return []Event{
		RunStart{
			Model: "PSO", Criterion: "memory-safety", SeqSpec: "deque", Seed: 7,
			Execs: 500, MaxRounds: 10, FlushProb: 0.5, Workers: 4,
			Source: "int x = 0;", Builtin: "",
			MaxSteps: 100000, Validate: true, Static: true, CAS: true,
			MinConclusive: 0.5, MaxModels: 4096, Optimize: true,
		},
		RoundStart{Round: 1, DelayPairs: 3},
		Violation{
			Round: 1, Index: 2, Seed: 9, Desc: "assertion violation",
			Disjunction: []Pred{{L: 2, K: 5}, {L: 3, K: 7}},
			Trace: []TraceDecision{{Thread: 1, Steps: 4}, {Thread: 1, Flush: true, Addr: 2},
				{Thread: 2, Resolve: true, Idx: 1, Steps: 1}},
		},
		SolverResult{
			Round: 1, Clauses: 2, Predicates: 3, Models: 4, Conflicts: 5,
			Truncated: true, WallUS: 120, Chosen: []Pred{{L: 2, K: 5}},
		},
		FenceChange{
			Round: 1, Action: "insert", Count: 1,
			Fences: []Fence{{After: 2, Label: 90, Kind: "fence(st-st)", Func: "producer"}},
		},
		RoundEnd{
			Round: 1, Executions: 500, Violations: 22, Inconclusive: 3, Errors: 1,
			Skipped: 2, DistinctClauses: 2, Predicates: 3, WallUS: 4000,
			ExecsPerSec: 125000, PrunedPreds: 1, PruneFallbacks: 1,
		},
		Checkpoint{
			Round:           1,
			Fences:          []Fence{{After: 2, Label: 90, Kind: "fence(st-st)", Func: "producer"}},
			TotalExecutions: 500, TotalInconclusive: 5, EmptyRepairs: 1,
			UnfixableExample: "assertion violation", PrunedPredicates: 2,
			SolverTruncated: true, WitnessCaptured: true,
		},
		Converged{
			Outcome: "converged", Rounds: 2, TotalExecutions: 1000, Fences: 1,
			Redundant: 1, MergedAway: 1, CacheHits: 900, CacheMisses: 100,
			StaticallyRobust: false,
		},
	}
}

func TestJournalRoundtrip(t *testing.T) {
	var b strings.Builder
	j := NewJournal(&b)
	events := allEvents()
	for _, e := range events {
		j.Emit(e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if !reflect.DeepEqual(got[i], events[i]) {
			t.Errorf("event %d (%s) did not roundtrip:\ngot  %+v\nwant %+v",
				i, events[i].Kind(), got[i], events[i])
		}
	}
}

// TestJournalSchemaDrift: ReadJournal is strict by design — it is the
// schema-drift detector `make journal-smoke` relies on. Unknown kinds,
// unknown fields inside known events, and version mismatches must all
// fail loudly, not decode approximately.
func TestJournalSchemaDrift(t *testing.T) {
	cases := []struct {
		name, line, wantErr string
	}{
		{
			"unknown kind",
			`{"schema":1,"ev":"NewFancyEvent","data":{}}`,
			"unknown event kind",
		},
		{
			"unknown field",
			`{"schema":1,"ev":"RoundStart","data":{"round":1,"surprise":true}}`,
			"unknown field",
		},
		{
			"schema version mismatch",
			`{"schema":999,"ev":"RoundStart","data":{"round":1}}`,
			"schema version",
		},
		{
			"unknown envelope field",
			`{"schema":1,"ev":"RoundStart","data":{"round":1},"extra":1}`,
			"unknown field",
		},
		{
			"malformed line",
			`{"schema":1,"ev":`,
			"journal line 1",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadJournal(strings.NewReader(c.line + "\n"))
			if err == nil {
				t.Fatalf("drifted journal decoded without error: %s", c.line)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestDecodersComplete: every event type emitted by the writer must have
// a decoders row, or journals become unreadable the day the new event
// first fires in production.
func TestDecodersComplete(t *testing.T) {
	for _, e := range allEvents() {
		if _, ok := decoders[e.Kind()]; !ok {
			t.Errorf("event kind %q has no decoders row in journal.go", e.Kind())
		}
	}
}

func TestSummarizeJournal(t *testing.T) {
	events := []Event{
		RunStart{Model: "PSO", Criterion: "memory-safety", Source: "int x;"},
		RoundStart{Round: 1},
		Violation{Round: 1, Seed: 3, Trace: []TraceDecision{{Thread: 1, Steps: 2}}},
		Violation{Round: 1, Seed: 4}, // no trace: not a witness
		FenceChange{Round: 1, Action: "insert", Fences: []Fence{{After: 1, Label: 50, Kind: "fence", Func: "f"}}},
		RoundEnd{Round: 1},
		RoundStart{Round: 2},
		Violation{Round: 2, Seed: 8, Trace: []TraceDecision{{Thread: 2, Steps: 1}}},
		FenceChange{Round: 2, Action: "insert", Fences: []Fence{{After: 2, Label: 51, Kind: "fence", Func: "g"}}},
		FenceChange{Action: "drop-redundant", Fences: []Fence{{After: 2, Label: 51, Kind: "fence", Func: "g"}}},
		RoundEnd{Round: 2},
		Converged{Outcome: "converged", Rounds: 2},
	}
	jr := SummarizeJournal(events)
	if jr.Start == nil || jr.Start.Model != "PSO" {
		t.Fatal("RunStart not folded")
	}
	if len(jr.Violations) != 3 {
		t.Errorf("folded %d violations, want 3", len(jr.Violations))
	}
	if w := jr.Witnesses(); len(w) != 2 {
		t.Errorf("found %d witnesses, want 2", len(w))
	}
	if jr.Converged == nil || jr.Converged.Outcome != "converged" {
		t.Error("Converged not folded")
	}
	// A round-1 witness ran before any fences; a round-2 witness ran with
	// round 1's insertion; drop-redundant events never count.
	if got := jr.FencesBefore(1); len(got) != 0 {
		t.Errorf("FencesBefore(1) = %d fences, want 0", len(got))
	}
	if got := jr.FencesBefore(2); len(got) != 1 || got[0].Func != "f" {
		t.Errorf("FencesBefore(2) = %+v, want the round-1 insert", got)
	}
}

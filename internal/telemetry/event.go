// Typed run-journal events and the Sink interface they flow through.
//
// A Sink receives the story of a synthesis run as typed events: the
// round lifecycle, each violating execution's seed and repair
// disjunction, the solver's verdicts, every fence change, and the
// terminal outcome. The core loop emits them through the nil-safe Emit
// helper, so a run without telemetry pays one branch per (cold) call
// site. Journal (journal.go) serializes events as JSONL; *Metrics
// (metrics.go) folds them into the round, solver and fence metrics and the
// live /runz view; MultiSink fans one stream into several sinks.
package telemetry

import (
	"fmt"

	"dfence/internal/ir"
	"dfence/internal/sched"
	"dfence/internal/synth"
)

// SchemaVersion identifies the journal event schema. Bump it when an
// event type changes incompatibly; ReadJournal rejects mismatches, which
// is what `make journal-smoke` trips on when the schema drifts without a
// version bump and reader update. Adding a new event kind or a new
// optional field is backward compatible (old journals still decode) and
// does not bump the version; only changing the meaning or type of an
// existing field does.
const SchemaVersion = 1

// Sink receives journal events. Implementations must be safe for
// concurrent Emit calls (core emits from the coordinating goroutine
// today, but the contract leaves room for per-worker emission).
type Sink interface {
	Emit(e Event)
}

// Emit forwards e to s when s is non-nil — the guard every
// instrumentation site uses.
func Emit(s Sink, e Event) {
	if s != nil {
		s.Emit(e)
	}
}

// Event is one typed journal record. Kind returns the stable name used
// as the JSONL discriminator ("RoundStart", "Violation", ...).
type Event interface {
	Kind() string
}

// Pred mirrors synth.Predicate with stable JSON field names: the
// ordering predicate [L ⊰ K].
type Pred struct {
	L int32 `json:"l"`
	K int32 `json:"k"`
}

// PredsOf converts a repair disjunction for journaling.
func PredsOf(ps []synth.Predicate) []Pred {
	if len(ps) == 0 {
		return nil
	}
	out := make([]Pred, len(ps))
	for i, p := range ps {
		out[i] = Pred{L: int32(p.L), K: int32(p.K)}
	}
	return out
}

// Predicates converts journaled predicates back to synth form.
func Predicates(ps []Pred) []synth.Predicate {
	if len(ps) == 0 {
		return nil
	}
	out := make([]synth.Predicate, len(ps))
	for i, p := range ps {
		out[i] = synth.Predicate{L: ir.Label(p.L), K: ir.Label(p.K)}
	}
	return out
}

// TraceDecision is one scheduling decision of a witness trace. Resolve
// and Idx (a deferred-load resolution, load-deferring models only) are
// optional fields: journals written before them decode unchanged.
type TraceDecision struct {
	Thread  int   `json:"t"`
	Flush   bool  `json:"flush,omitempty"`
	Resolve bool  `json:"resolve,omitempty"`
	Addr    int64 `json:"addr,omitempty"`
	Idx     int   `json:"idx,omitempty"`
	Steps   int   `json:"steps,omitempty"`
}

// TraceOf converts a sched.Trace for journaling (nil-safe).
func TraceOf(tr *sched.Trace) []TraceDecision {
	if tr == nil {
		return nil
	}
	out := make([]TraceDecision, len(tr.Decisions))
	for i, d := range tr.Decisions {
		out[i] = TraceDecision{Thread: d.Thread, Flush: d.Flush, Resolve: d.Resolve, Addr: d.Addr, Idx: d.Idx, Steps: d.Steps}
	}
	return out
}

// Fence describes one fence for journaling, mirroring
// synth.InsertedFence with stable JSON names.
type Fence struct {
	After int32  `json:"after"` // label of the store the fence follows
	Label int32  `json:"label"` // the fence instruction's own label
	Kind  string `json:"kind"`
	Func  string `json:"func"`
}

// FencesOf converts inserted fences for journaling.
func FencesOf(fs []synth.InsertedFence) []Fence {
	if len(fs) == 0 {
		return nil
	}
	out := make([]Fence, len(fs))
	for i, f := range fs {
		out[i] = Fence{After: int32(f.After), Label: int32(f.Label), Kind: f.Kind.String(), Func: f.Func}
	}
	return out
}

// InsertedFences converts journaled fences back to synth form — the
// inverse of FencesOf, used when rebuilding a program from a journal.
func InsertedFences(fs []Fence) ([]synth.InsertedFence, error) {
	if len(fs) == 0 {
		return nil, nil
	}
	out := make([]synth.InsertedFence, len(fs))
	for i, f := range fs {
		kind, err := ir.ParseFenceKind(f.Kind)
		if err != nil {
			return nil, fmt.Errorf("telemetry: fence %d: %w", i, err)
		}
		out[i] = synth.InsertedFence{After: ir.Label(f.After), Label: ir.Label(f.Label), Kind: kind, Func: f.Func}
	}
	return out, nil
}

// RunStart opens a journal: what program ran under which configuration.
// It is also the run's description — every front end builds one, loads
// its program and configuration from it with core.Load, and journals that
// same value, so -resume and explain rebuild exactly the run that was
// recorded. Source carries the mini-C text for file-based runs (so
// `dfence explain` can rebuild the program without the original file);
// Builtin names a built-in benchmark instead.
type RunStart struct {
	Model     string  `json:"model"`
	Criterion string  `json:"criterion"`
	SeqSpec   string  `json:"seq_spec,omitempty"`
	Seed      int64   `json:"seed"`
	Execs     int     `json:"execs_per_round"`
	MaxRounds int     `json:"max_rounds"`
	FlushProb float64 `json:"flush_prob"`
	Workers   int     `json:"workers"`
	Source    string  `json:"source,omitempty"`
	Builtin   string  `json:"builtin,omitempty"`
	// The remaining fields record the determinism-relevant configuration a
	// resumed run must reproduce exactly (`dfence -resume`, dfenced).
	// Workers above is deliberately not among them: results are
	// bit-identical for every worker count.
	MaxSteps      int     `json:"max_steps,omitempty"`
	MaxIters      int     `json:"max_iters,omitempty"`
	Validate      bool    `json:"validate"`
	Static        bool    `json:"static,omitempty"`
	CAS           bool    `json:"cas,omitempty"`
	MinConclusive float64 `json:"min_conclusive,omitempty"`
	MaxModels     int     `json:"max_models,omitempty"`
	// Optimize records that the program ran after ir.Optimize.
	Optimize bool `json:"optimize,omitempty"`
}

func (RunStart) Kind() string { return "RunStart" }

// RoundStart opens one repair round.
type RoundStart struct {
	Round      int `json:"round"` // 1-based
	DelayPairs int `json:"static_delay_pairs,omitempty"`
}

func (RoundStart) Kind() string { return "RoundStart" }

// Violation records one violating execution: its seed (reproducible with
// sched.Run under the journaled options), the repair disjunction the
// instrumented semantics proposed, and — for the run's witness execution
// — the full schedule. One Violation event is emitted per *distinct*
// disjunction per round (duplicates are counted in RoundEnd), so the
// journal reconstructs φ exactly without growing with K.
type Violation struct {
	Round int    `json:"round"`
	Index int    `json:"index"` // execution index within the round
	Seed  int64  `json:"seed"`
	Desc  string `json:"desc,omitempty"` // violation description (empty-repair diagnostics)
	// Disjunction is the execution's candidate repairs; empty means the
	// execution cannot be avoided by fences (the unfixable case).
	Disjunction []Pred `json:"disjunction"`
	// Trace is the witness schedule, present on the execution captured as
	// the run's counterexample.
	Trace []TraceDecision `json:"trace,omitempty"`
}

func (Violation) Kind() string { return "Violation" }

// SolverResult records one round's minimal-model enumeration. The
// Decisions/Propagations/Restarts counters are additive optional fields
// (schema stays at version 1): journals written before them decode with
// the counters zero.
type SolverResult struct {
	Round        int    `json:"round"`
	Clauses      int    `json:"clauses"`
	Predicates   int    `json:"predicates"`
	Models       int    `json:"models"`
	Conflicts    int64  `json:"conflicts"`
	Decisions    int64  `json:"decisions,omitempty"`
	Propagations int64  `json:"propagations,omitempty"`
	Restarts     int64  `json:"restarts,omitempty"`
	Truncated    bool   `json:"truncated,omitempty"`
	WallUS       int64  `json:"wall_us"`
	Chosen       []Pred `json:"chosen"` // the assignment Algorithm 2 enforces
}

func (SolverResult) Kind() string { return "SolverResult" }

// FenceChange records fences entering or leaving the program.
// Action is "insert" (end-of-round enforcement), "drop-redundant"
// (post-convergence validation), or "merge" (static merge pass; Fences
// empty, Count set).
type FenceChange struct {
	Round  int     `json:"round,omitempty"` // 0 for post-convergence passes
	Action string  `json:"action"`
	Fences []Fence `json:"fences,omitempty"`
	Count  int     `json:"count,omitempty"`
}

func (FenceChange) Kind() string { return "FenceChange" }

// RoundEnd closes one repair round with its statistics. WallUS is
// core.Round.Wall: the round's execution batch plus the formula merge,
// not the solve or the fence enforcement that follow it.
type RoundEnd struct {
	Round           int     `json:"round"`
	Executions      int     `json:"executions"`
	Violations      int     `json:"violations"`
	Inconclusive    int     `json:"inconclusive,omitempty"`
	Errors          int     `json:"errors,omitempty"`
	Skipped         int     `json:"skipped,omitempty"`
	DistinctClauses int     `json:"distinct_clauses"`
	Predicates      int     `json:"predicates"`
	WallUS          int64   `json:"wall_us"`
	ExecsPerSec     float64 `json:"execs_per_sec"`
	PrunedPreds     int     `json:"pruned_predicates,omitempty"`
	PruneFallbacks  int     `json:"prune_fallbacks,omitempty"`
}

func (RoundEnd) Kind() string { return "RoundEnd" }

// Checkpoint marks a durable round boundary: the cumulative state a
// resumed run needs to restart after round Round without re-running
// rounds 1..Round. The synthesis loop emits it only when it is about to
// run another round — a terminal round is followed by Converged instead —
// so resuming from the last Checkpoint always re-enters the loop at a
// round the uninterrupted run would also have executed. The Journal sink
// flushes (and optionally fsyncs) on Checkpoint, making the boundary
// crash-durable; anything after the last Checkpoint in a torn journal
// belongs to the round that died and is re-run deterministically.
type Checkpoint struct {
	// Round is the number of fully completed rounds (1-based count); the
	// resumed loop starts at round Round+1.
	Round int `json:"round"`
	// Fences is the cumulative fence set in insertion order — what
	// synth.InsertFences re-applies to the original program on resume.
	Fences []Fence `json:"fences,omitempty"`
	// Cumulative Result counters as of this boundary.
	TotalExecutions   int    `json:"total_executions"`
	TotalInconclusive int    `json:"total_inconclusive,omitempty"`
	EmptyRepairs      int    `json:"empty_repairs,omitempty"`
	UnfixableExample  string `json:"unfixable_example,omitempty"`
	PrunedPredicates  int    `json:"pruned_predicates,omitempty"`
	SolverTruncated   bool   `json:"solver_truncated,omitempty"`
	// WitnessCaptured reports that an earlier round already captured the
	// run's counterexample trace, so the resumed run must not capture a
	// second one (the trace itself lives on the journaled Violation).
	WitnessCaptured bool `json:"witness_captured,omitempty"`
}

func (Checkpoint) Kind() string { return "Checkpoint" }

// Converged is the terminal event of every journal (despite the name it
// is emitted for every outcome — the Outcome field says which).
type Converged struct {
	Outcome          string `json:"outcome"`
	Rounds           int    `json:"rounds"`
	TotalExecutions  int    `json:"total_executions"`
	Fences           int    `json:"fences"`
	Redundant        int    `json:"redundant,omitempty"`
	MergedAway       int    `json:"merged_away,omitempty"`
	CacheHits        int    `json:"cache_hits,omitempty"`
	CacheMisses      int    `json:"cache_misses,omitempty"`
	StaticallyRobust bool   `json:"statically_robust,omitempty"`
}

func (Converged) Kind() string { return "Converged" }

// MultiSink fans events out to every non-nil sink; returns nil when none
// remain (so Emit's nil guard still short-circuits everything).
func MultiSink(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

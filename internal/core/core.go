// Package core implements DFENCE's top-level dynamic synthesis loop
// (paper Algorithm 1). Given a program, a correctness specification, and a
// memory model, it repeatedly executes the program under the flush-
// delaying demonic scheduler, collects the repair disjunction of every
// violating execution via the instrumented semantics, conjoins them into
// the global repair formula φ, and — at the end of each round — enforces a
// minimal satisfying assignment of φ as fences. Synthesis converges when a
// full round of executions exposes no violation.
package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/sat"
	"dfence/internal/sched"
	"dfence/internal/spec"
	"dfence/internal/staticanalysis"
	"dfence/internal/synth"
	"dfence/internal/telemetry"
	"dfence/internal/trace"
)

// Config controls one synthesis run.
type Config struct {
	// Model is the memory model to synthesize for.
	Model memmodel.Model
	// Criterion selects the specification: memory safety only,
	// operation-level sequential consistency, or linearizability.
	Criterion spec.Criterion
	// NewSpec constructs the sequential specification consulted by the SC
	// and linearizability checks. May be nil for MemorySafety.
	NewSpec func() spec.Sequential
	// CheckGarbage additionally applies the "no garbage tasks returned"
	// history check (used for the idempotent WSQs, §6.2).
	CheckGarbage bool
	// RelaxStealAborts treats contended steal()=EMPTY results as aborts
	// (spec.RelaxStealAborts) — used by the work-stealing benchmarks whose
	// published steal returns ABORT on a lost race.
	RelaxStealAborts bool
	// ExecsPerRound is K, the number of executions gathered before each
	// repair (the realization of Algorithm 1's nondeterministic choice "?"
	// as an iteration count, §5.2). Default 1000.
	ExecsPerRound int
	// MaxRounds bounds the number of repair rounds. Default 12.
	MaxRounds int
	// FlushProb is the scheduler's flush probability (§6.5: ≈0.1 for TSO,
	// ≈0.5 for PSO). Zero selects the model-specific default; a negative
	// value explicitly requests probability 0 (never flush early — the low
	// end of the §6.5 Figure 5 sweep), which the zero-means-default
	// convention could not express. EffectiveFlushProb is the resolution.
	FlushProb float64
	// MaxStepsPerExec bounds each execution. Default 100000.
	MaxStepsPerExec int
	// Seed makes the whole synthesis deterministic. Executions use seeds
	// Seed + round*ExecsPerRound + i.
	Seed int64
	// Workers is the number of goroutines the per-round executions (and
	// the validation, redundancy, and CheckOnly trials) are fanned across.
	// Results are bit-identical for every value: the seed schedule is
	// unchanged and per-execution results are merged in execution-index
	// order, not completion order. Default runtime.NumCPU(); 1 forces the
	// serial path.
	Workers int
	// MergeFences enables the redundant-fence merge pass after synthesis
	// converges (§5.2). Default off; no front-end sets it (eval's Table 3
	// cells rely on ValidateFences instead).
	MergeFences bool
	// ValidateFences greedily re-tests each synthesized fence after
	// convergence: a fence whose removal leaves ValidateExecs executions
	// violation-free is dropped as redundant. This separates needed from
	// redundant fences — the distinction behind the paper's Figure 5
	// discussion of low flush probabilities inferring redundant fences.
	ValidateFences bool
	// ValidateExecs is the per-trial execution budget of the validation
	// pass (default: 3 * ExecsPerRound, set by fill). FindRedundantFences
	// has a separate per-fence budget knob, execsPerFence, whose default
	// is 2 * ExecsPerRound.
	ValidateExecs int
	// NoMinimize disables minimal-model selection (the paper's behaviour
	// is minimization): instead of enforcing the smallest satisfying
	// assignment of φ, the union of every predicate appearing in some
	// minimal solution is enforced — kept as an ablation knob.
	NoMinimize bool
	// EnforceWithCAS realizes ordering predicates as dummy-location CAS
	// instructions instead of fences (paper §4.2, TSO only).
	EnforceWithCAS bool
	// ExecTimeout bounds each round execution's wall-clock time (0 =
	// none). A run that exceeds it stops and is counted Inconclusive —
	// the guard against pathological schedules that MaxStepsPerExec alone
	// cannot bound in time. Wall-clock cuts are machine-dependent, so
	// leave it zero when bit-identical results across runs matter.
	ExecTimeout time.Duration
	// MaxItersPerExec bounds each execution's scheduler-loop iterations
	// (0 = none) — a safety net, and the deterministic analogue of
	// ExecTimeout. Deferral spins make no machine steps, so
	// MaxStepsPerExec cannot bound them; the scheduler's vow lifetime
	// already ends the portfolio's spins, and this budget counts every
	// loop iteration so that any remaining runaway schedule is cut
	// identically on every machine (judged Inconclusive, like a
	// step-limit hit).
	MaxItersPerExec int
	// Deadline bounds the whole repair loop's wall-clock time (0 = none).
	// When it expires, the in-flight round is cut short, the rounds
	// completed so far are kept, and the Result reports Outcome ==
	// OutcomeAborted. The post-convergence validation and merge passes are
	// not covered; bound those with ValidateExecs.
	Deadline time.Duration
	// MinConclusive is the floor on the fraction of a round's execution
	// budget that must be conclusive (not step-limited, timed out,
	// errored, or skipped) for a violation-free round to count as
	// convergence — the guard against vacuous convergence, where a round
	// "sees no violations" only because nearly every run was cut off.
	// 0 selects the default 0.5; negative disables the floor.
	MinConclusive float64
	// MaxModels caps the solver's minimal-model enumeration per round
	// (0 = default 4096, negative = unlimited). Hitting the cap degrades
	// gracefully — the round enforces the best repair found so far — and
	// sets Result.SolverTruncated.
	MaxModels int
	// OptionsHook, if non-nil, may rewrite the scheduler options of
	// synthesis-round execution (round, index) before it runs — the
	// fault-injection harness's entry point (internal/faultinject), also
	// usable for per-execution tuning. It is not applied to the
	// validation, redundancy, or CheckOnly trials.
	OptionsHook func(round, index int, opts sched.Options) sched.Options
	// StaticPrune consults the static delay-set analysis
	// (internal/staticanalysis) before and during synthesis: a program
	// whose delay set is empty is reported converged with zero dynamic
	// executions (StaticallyRobust), and each violating execution's repair
	// disjunction is filtered to the predicates on some static critical
	// cycle. Pruning is sound — if filtering would empty a non-empty
	// disjunction, the full disjunction is kept and the round's
	// PruneFallbacks counter records it. Default off; results with the
	// flag off are bit-identical to earlier versions.
	StaticPrune bool
	// Metrics, when non-nil, receives the run's instrumentation: the
	// execution/verdict/cache counters and the step histogram per worker
	// shard on the hot path, and — through Metrics.Emit, which receives
	// every event Sink does — the round, solver and fence metrics and the
	// /runz view. Nil (the default) costs the instrumented paths one nil
	// check per site — telemetry off is benchmark-neutral.
	Metrics *telemetry.Metrics
	// Sink, when non-nil, receives the run's typed journal events
	// (RoundStart, Violation, SolverResult, FenceChange, RoundEnd,
	// Checkpoint, Converged) — the structured story a JSONL journal is
	// built from. The loop does not emit RunStart: the caller built the
	// run from one (Load) and journals it before Synthesize.
	// Emission happens on the coordinating goroutine only (never inside
	// worker executions), so a Sink adds no hot-path cost.
	Sink telemetry.Sink
	// Tracer, when non-nil, receives the run's timeline: run/round/phase
	// spans on the coordinator lane, sampled per-execution spans with
	// portfolio attribution on worker lanes, and instants for violations,
	// checkpoints, cache hits, and solver restarts. Purely observational —
	// results are bit-identical with tracing on or off, and nil costs the
	// instrumented sites one pointer check (no allocations).
	Tracer *trace.Tracer
	// Interrupt, when non-nil, requests a graceful stop: the loop polls it
	// (non-blocking) at each round boundary, right after journaling the
	// boundary's Checkpoint, and if it is closed the run ends with
	// OutcomeAborted and Result.Interrupted set. Because the stop lands
	// only on checkpointed boundaries, a journal cut this way resumes with
	// zero re-execution — this is how `dfence` answers SIGINT and how
	// dfenced drains in-flight jobs.
	Interrupt <-chan struct{}
	// Resume, when non-nil, restarts the loop from a journal checkpoint
	// (ResumeFromEvents): the checkpointed fences are re-applied to the
	// working clone, the completed rounds' statistics and counters are
	// restored, and execution begins at round Resume.Round+1 with the same
	// positional seeds the uninterrupted run would have used there. prog
	// must be the same original (un-fenced) program the journaled run
	// started from, and the determinism-relevant Config fields must match
	// the journal's RunStart; under those conditions the resumed Result is
	// bit-identical to the uninterrupted run's.
	Resume *ResumeState

	// mv is the nil-safe metrics view fill() caches so hot paths record
	// unconditionally through no-op handles when Metrics is nil.
	mv telemetry.Metrics
	// sink is the one stream every coordinator event goes to: Sink plus
	// Metrics, composed by fill(); nil when both are, so a run without
	// telemetry pays one nil check per event.
	sink telemetry.Sink
}

func (c *Config) fill() {
	if c.ExecsPerRound <= 0 {
		c.ExecsPerRound = 1000
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 12
	}
	// After fill, 0 means "never flush early" (the negative sentinel).
	c.FlushProb = EffectiveFlushProb(c.FlushProb, c.Model)
	if c.MaxStepsPerExec <= 0 {
		c.MaxStepsPerExec = 100000
	}
	if c.ValidateExecs <= 0 {
		c.ValidateExecs = 3 * c.ExecsPerRound
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MinConclusive == 0 {
		c.MinConclusive = 0.5
	} else if c.MinConclusive < 0 {
		c.MinConclusive = 0 // floor disabled: legacy convergence semantics
	}
	if c.MaxModels == 0 {
		c.MaxModels = 4096
	} else if c.MaxModels < 0 {
		c.MaxModels = 0 // unlimited for sat.Budget
	}
	c.mv = c.Metrics.View()
	c.sink = c.Sink
	if c.Metrics != nil {
		c.sink = telemetry.MultiSink(c.Sink, c.Metrics)
	}
}

// Outcome classifies how a synthesis ended — the unambiguous replacement
// for reading the Converged/Unfixable boolean pair.
type Outcome uint8

const (
	// OutcomeInconclusive: the round budget ran out without a conclusive
	// answer — either violations persisted without an unfixable witness,
	// or a violation-free round fell below the MinConclusive floor
	// (vacuous convergence). Also the zero value.
	OutcomeInconclusive Outcome = iota
	// OutcomeConverged: a sufficiently conclusive round saw no violations.
	OutcomeConverged
	// OutcomeUnfixable: synthesis did not converge and some violating
	// execution had no candidate repairs (the paper's Table 3 "-").
	OutcomeUnfixable
	// OutcomeAborted: the Config.Deadline expired; Rounds holds whatever
	// completed before the cut.
	OutcomeAborted
)

func (o Outcome) String() string {
	switch o {
	case OutcomeInconclusive:
		return "inconclusive"
	case OutcomeConverged:
		return "converged"
	case OutcomeUnfixable:
		return "unfixable"
	case OutcomeAborted:
		return "aborted"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Round records one repair round's statistics.
type Round struct {
	// Executions is the number of runs performed this round.
	Executions int
	// Violations is how many of them violated the specification.
	Violations int
	// Inconclusive counts executions that ran but produced no verdict:
	// step-limit hits, wall-clock timeouts, and errored (panicked) runs.
	Inconclusive int
	// Errors counts the executions whose interpreter or observer panicked
	// (a subset of Inconclusive); the structured errors land in
	// Result.ExecErrors.
	Errors int
	// Skipped counts executions never started because the round was cut
	// off (deadline, or an externally cancelled batch).
	Skipped int
	// DistinctClauses is the number of distinct repair disjunctions
	// accumulated into φ.
	DistinctClauses int
	// Predicates is the number of distinct ordering predicates seen.
	Predicates int
	// Inserted lists the fences enforced at the end of the round.
	Inserted []synth.InsertedFence
	// Wall is the wall-clock time of the round's execution batch plus the
	// formula merge (the part the parallel engine accelerates).
	Wall time.Duration
	// ExecsPerSec is Executions divided by Wall — the engine's observed
	// throughput, so Workers speedups show up directly in Summary.
	ExecsPerSec float64
	// StaticDelayPairs is the size of the static delay set computed for the
	// round's program (0 when StaticPrune is off). Fences inserted by
	// earlier rounds shrink it.
	StaticDelayPairs int
	// PrunedPredicates counts the dynamically proposed predicates this
	// round discarded because they lie on no static critical cycle.
	PrunedPredicates int
	// PruneFallbacks counts the violating executions whose entire repair
	// disjunction fell outside the static delay set; their disjunctions
	// were kept unpruned (the soundness fallback).
	PruneFallbacks int
}

// execRate divides executions by wall time, guarding the degenerate
// timings sub-millisecond rounds can produce: a zero execution count is
// rate 0, and a zero (or negative) wall time — possible on platforms with
// coarse monotonic clocks — is clamped to one microsecond so the reported
// rate is a large finite upper bound instead of 0 or +Inf.
func execRate(execs int, wall time.Duration) float64 {
	if execs <= 0 {
		return 0
	}
	if wall < time.Microsecond {
		wall = time.Microsecond
	}
	return float64(execs) / wall.Seconds()
}

// ConclusiveFraction is the share of the round's execution budget that
// produced a verdict — the coverage number the MinConclusive floor guards.
func (r *Round) ConclusiveFraction() float64 {
	total := r.Executions + r.Skipped
	if total == 0 {
		return 0
	}
	return float64(r.Executions-r.Inconclusive) / float64(total)
}

// maxExecErrors caps how many structured execution errors a Result keeps;
// the per-round Errors counters still account for all of them.
const maxExecErrors = 8

// Result is the outcome of Synthesize.
type Result struct {
	// Program is the repaired program (a clone; the input is untouched).
	Program *ir.Program
	// Fences are all fences inserted across rounds, in insertion order.
	Fences []synth.InsertedFence
	// Rounds holds per-round statistics.
	Rounds []Round
	// Outcome classifies the ending: OutcomeConverged, OutcomeUnfixable,
	// OutcomeInconclusive, or OutcomeAborted. Prefer it over the
	// Converged/Unfixable pair, which cannot express the latter two.
	Outcome Outcome
	// Converged reports that the final round saw no violations and met
	// the MinConclusive coverage floor (Outcome == OutcomeConverged).
	Converged bool
	// Unfixable reports that synthesis did not converge and at least one
	// violating execution had no candidate repairs — fences cannot fix the
	// program under this specification (the paper's Table 3 "-" entries).
	Unfixable bool
	// EmptyRepairs counts violating executions whose repair disjunction
	// was empty across the whole synthesis (they may still be transient:
	// if synthesis converges afterwards, Unfixable stays false).
	EmptyRepairs int
	// UnfixableExample describes one empty-repair violation, if any.
	UnfixableExample string
	// TotalExecutions counts all runs across rounds.
	TotalExecutions int
	// TotalInconclusive counts, across rounds, the executions that
	// produced no verdict (inconclusive) or never ran (skipped) — the
	// complement of the synthesis's effective coverage.
	TotalInconclusive int
	// ExecErrors holds the first maxExecErrors structured errors from
	// executions whose interpreter or observer panicked; each names the
	// round, index, and seed that reproduce the failure with sched.Run.
	// The per-round Errors counters account for every occurrence.
	ExecErrors []*sched.ExecError
	// SolverTruncated reports that some round's minimal-model enumeration
	// hit the MaxModels budget: the enforced repairs were
	// the best found within budget, not a provably minimal choice.
	SolverTruncated bool
	// MergedAway is the number of redundant fences removed by the merge
	// pass (0 if disabled).
	MergedAway int
	// Redundant is the number of synthesized fences dropped by the
	// validation pass (0 if disabled). Fences then holds only the
	// validated, necessary fences.
	Redundant int
	// SynthesizedFences is the raw count before validation/merging.
	SynthesizedFences int
	// StaticallyRobust reports that the pre-round static analysis proved
	// the input program's delay set empty: every execution is sequentially
	// consistent under the model, so synthesis converged with zero dynamic
	// executions. Only set when Config.StaticPrune is on.
	StaticallyRobust bool
	// StaticCandidates and StaticDelayPairs record the initial program's
	// static analysis sizes (0 when StaticPrune is off).
	StaticCandidates int
	StaticDelayPairs int
	// PrunedPredicates totals the statically pruned predicates across
	// rounds.
	PrunedPredicates int
	// CacheHits counts execution verdicts answered by the caches: verdict
	// memo hits plus validation-trial executions whose outcome transferred
	// from the baseline instead of re-running. CacheMisses counts verdicts
	// computed afresh (and memoized). These are throughput diagnostics
	// that may vary with Workers (each worker owns a memo); every other
	// Result field is bit-identical for every worker count.
	CacheHits   int
	CacheMisses int
	// Interrupted reports that the run stopped because Config.Interrupt
	// fired at a round boundary (Outcome is OutcomeAborted). The journal's
	// last Checkpoint covers every completed round, so resuming from it
	// loses nothing.
	Interrupted bool
	// Witness is the schedule of the first violating execution observed
	// (against the program as it was in that round): a reproducible
	// counterexample the user can sched.Replay. Nil if no violation or
	// witness capture is disabled.
	Witness *sched.Trace
	// WitnessViolation describes what the witness violated.
	WitnessViolation string
}

// Summary renders a human-readable account of the synthesis. This is the
// single renderer every front-end shares — cmd/dfence and cmd/experiments
// both print it verbatim (optionally preceded by their own header lines),
// so prune/cache/outcome reporting cannot drift between them. The layout
// is pinned by the snapshot test in summary_test.go; extend it there when
// adding lines.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d executions=%d converged=%v outcome=%v",
		len(r.Rounds), r.TotalExecutions, r.Converged, r.Outcome)
	if r.TotalInconclusive > 0 {
		fmt.Fprintf(&b, " inconclusive=%d", r.TotalInconclusive)
	}
	if r.Unfixable {
		fmt.Fprintf(&b, " UNFIXABLE (%s)", r.UnfixableExample)
	}
	for i, rd := range r.Rounds {
		fmt.Fprintf(&b, "\nround %d: %d/%d violations, %d predicates, %d clauses, %d fences inserted in %s (%.0f execs/s)",
			i+1, rd.Violations, rd.Executions, rd.Predicates, rd.DistinctClauses,
			len(rd.Inserted), rd.Wall.Round(time.Millisecond), rd.ExecsPerSec)
		if rd.Inconclusive > 0 || rd.Skipped > 0 {
			fmt.Fprintf(&b, ", %d inconclusive (%d errored), %d skipped, %.0f%% conclusive",
				rd.Inconclusive, rd.Errors, rd.Skipped, 100*rd.ConclusiveFraction())
		}
		if rd.StaticDelayPairs > 0 || rd.PrunedPredicates > 0 || rd.PruneFallbacks > 0 {
			fmt.Fprintf(&b, ", static: %d delay pairs, %d predicates pruned",
				rd.StaticDelayPairs, rd.PrunedPredicates)
			if rd.PruneFallbacks > 0 {
				fmt.Fprintf(&b, " (%d fallbacks)", rd.PruneFallbacks)
			}
		}
	}
	if r.StaticallyRobust {
		b.WriteString("\nstatic analysis: delay set empty — program proved robust, no dynamic rounds needed")
	} else if r.StaticCandidates > 0 {
		fmt.Fprintf(&b, "\nstatic analysis: %d candidate pairs, %d on critical cycles; %d dynamic predicates pruned",
			r.StaticCandidates, r.StaticDelayPairs, r.PrunedPredicates)
	}
	fmt.Fprintf(&b, "\nfences inserted: %d", len(r.Fences))
	if r.SynthesizedFences > len(r.Fences) || r.Redundant > 0 {
		fmt.Fprintf(&b, " (synthesized %d, %d pruned as redundant)", r.SynthesizedFences, r.Redundant)
	}
	for _, f := range r.Fences {
		fmt.Fprintf(&b, "\n  %s", f)
		if r.Program != nil {
			fmt.Fprintf(&b, " %s", DescribeFence(r.Program, f))
		}
	}
	if r.MergedAway > 0 {
		fmt.Fprintf(&b, "\nmerged away: %d", r.MergedAway)
	}
	if r.CacheHits+r.CacheMisses > 0 {
		fmt.Fprintf(&b, "\nexec cache: %d hits, %d misses (%.0f%% hit rate)",
			r.CacheHits, r.CacheMisses, 100*float64(r.CacheHits)/float64(r.CacheHits+r.CacheMisses))
	}
	if r.SolverTruncated {
		b.WriteString("\nsolver enumeration truncated by budget (repairs best-effort, not provably minimal)")
	}
	if r.WitnessViolation != "" {
		fmt.Fprintf(&b, "\nwitness violation: %s", r.WitnessViolation)
	}
	for _, e := range r.ExecErrors {
		fmt.Fprintf(&b, "\nexec error: %v", e)
	}
	return b.String()
}

// verdict is the three-valued judgement of one execution.
type verdict uint8

const (
	// verdictClean: the execution completed and satisfied the spec.
	verdictClean verdict = iota
	// verdictViolation: the execution completed and violated the spec.
	verdictViolation
	// verdictInconclusive: the execution was cut off (step limit or
	// wall-clock budget) before a verdict was possible. Previously such
	// runs were silently lumped with "no violation"; now they are counted
	// per round so coverage is visible.
	verdictInconclusive
)

// Synthesize runs Algorithm 1 on a clone of prog and returns the repaired
// program together with the synthesis trace. The input program must be
// linked.
func Synthesize(prog *ir.Program, cfg Config) (*Result, error) {
	cfg.fill()
	if cfg.Criterion != spec.MemorySafety && cfg.NewSpec == nil {
		return nil, fmt.Errorf("core: criterion %v requires a sequential specification", cfg.Criterion)
	}
	runSpan := cfg.Tracer.Begin(0, trace.SpanRun, 0)
	defer runSpan.End()
	work := prog.Clone()
	result := &Result{Program: work}

	if cfg.StaticPrune {
		sa, err := staticanalysis.Analyze(work, cfg.Model)
		if err != nil {
			return nil, fmt.Errorf("core: static analysis rejected the input program: %w", err)
		}
		result.StaticCandidates = len(sa.Candidates)
		result.StaticDelayPairs = len(sa.Delays)
		if sa.Robust() {
			// No relaxation lies on a critical cycle: every execution is
			// sequentially consistent under the model, so there is nothing
			// for the dynamic loop to find. Converge in zero rounds.
			result.StaticallyRobust = true
			result.Converged = true
			result.Outcome = OutcomeConverged
			emitConverged(&cfg, result)
			return result, nil
		}
	}

	// The deadline context bounds the whole repair loop: rounds run under
	// it, and once it expires the in-flight round's remaining executions
	// are skipped and the loop records OutcomeAborted.
	ctx := context.Background()
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		defer cancel()
	}
	aborted := false
	jcs := newJudgeCaches(&cfg)

	// Resume, if requested, is applied after the static robustness check
	// above: that check ran on the original program in the journaled run
	// too (a checkpoint exists only if the program was not statically
	// robust), while the fences below must land on the working clone so
	// the loop's per-round analysis and execution see the checkpointed
	// program state.
	startRound := 0
	witnessDone := false
	if cfg.Resume != nil {
		if err := applyResume(work, &cfg, result); err != nil {
			return nil, err
		}
		startRound = cfg.Resume.Round
		witnessDone = cfg.Resume.WitnessCaptured
	}

	// checkpoint journals a round boundary the loop is about to cross —
	// the durable commit record resume trusts — and then polls Interrupt:
	// a graceful stop lands exactly on the boundary just checkpointed, so
	// the interrupted run's journal resumes with zero lost work. Terminal
	// rounds are never checkpointed (their journals end in Converged
	// instead), which guarantees a resumed loop only re-enters rounds the
	// uninterrupted run also executed.
	checkpoint := func(completed int) (stop bool) {
		cfg.Tracer.Instant(0, trace.InstantCheckpoint, completed, 0)
		telemetry.Emit(cfg.sink, telemetry.Checkpoint{
			Round:             completed,
			Fences:            telemetry.FencesOf(result.Fences),
			TotalExecutions:   result.TotalExecutions,
			TotalInconclusive: result.TotalInconclusive,
			EmptyRepairs:      result.EmptyRepairs,
			UnfixableExample:  result.UnfixableExample,
			PrunedPredicates:  result.PrunedPredicates,
			SolverTruncated:   result.SolverTruncated,
			WitnessCaptured:   result.Witness != nil || witnessDone,
		})
		select {
		case <-cfg.Interrupt:
			return true
		default:
			return false
		}
	}

	// endRound is the single exit path of a round's bookkeeping: it
	// appends the statistics, closes the round's trace span, and emits the
	// RoundEnd event — so every break/continue below reports identically.
	var roundSpan trace.Span
	endRound := func(stats *Round, round int) {
		roundSpan.End()
		result.Rounds = append(result.Rounds, *stats)
		telemetry.Emit(cfg.sink, telemetry.RoundEnd{
			Round:           round + 1,
			Executions:      stats.Executions,
			Violations:      stats.Violations,
			Inconclusive:    stats.Inconclusive,
			Errors:          stats.Errors,
			Skipped:         stats.Skipped,
			DistinctClauses: stats.DistinctClauses,
			Predicates:      stats.Predicates,
			WallUS:          stats.Wall.Microseconds(),
			ExecsPerSec:     stats.ExecsPerSec,
			PrunedPreds:     stats.PrunedPredicates,
			PruneFallbacks:  stats.PruneFallbacks,
		})
	}

	// The repair formula is long-lived: each round resets φ to true via
	// BeginRound while the owned SAT solver keeps its learnt clauses,
	// activity, and predicate vocabulary warm across rounds.
	formula := synth.NewFormula()
	for round := startRound; round < cfg.MaxRounds; round++ {
		formula.BeginRound()
		stats := Round{}
		var delaySet map[staticanalysis.Pair]bool
		if cfg.StaticPrune {
			// Re-analyse the working program: fences inserted by earlier
			// rounds kill pending paths and shrink the delay set, so each
			// round prunes against the current program, not the original.
			sa, err := staticanalysis.Analyze(work, cfg.Model)
			if err != nil {
				return nil, fmt.Errorf("core: static analysis failed in round %d: %w", round+1, err)
			}
			delaySet = sa.DelaySet()
			stats.StaticDelayPairs = len(sa.Delays)
		}
		telemetry.Emit(cfg.sink, telemetry.RoundStart{Round: round + 1, DelayPairs: stats.StaticDelayPairs})
		roundSpan = cfg.Tracer.Begin(0, trace.SpanRound, round+1)
		collectSpan := cfg.Tracer.Begin(0, trace.SpanCollect, round+1)
		started := time.Now()
		// Fan the round's K executions across cfg.Workers goroutines; the
		// outcome slots come back in execution order, so the merge below is
		// identical to the serial loop.
		outcomes := runRound(ctx, work, &cfg, jcs, round)
		// vioEvents collects this round's journal-worthy violations (one
		// per distinct disjunction, plus the first unfixable one); the
		// witness trace, captured after the merge, lands on the entry of
		// the witness execution before emission.
		var vioEvents []telemetry.Violation
		witnessEvIdx := -1
		emittedEmpty := false
		witnessIdx := -1
		for i, o := range outcomes {
			if !o.ran {
				stats.Skipped++
				continue
			}
			stats.Executions++
			result.TotalExecutions++
			if o.err != nil {
				stats.Errors++
				stats.Inconclusive++
				if len(result.ExecErrors) < maxExecErrors {
					result.ExecErrors = append(result.ExecErrors, o.err)
				}
				continue
			}
			if o.inconclusive {
				stats.Inconclusive++
				continue
			}
			if !o.violated {
				continue
			}
			stats.Violations++
			if witnessIdx < 0 {
				witnessIdx = i
			}
			if delaySet != nil && len(o.repairs) > 0 {
				kept := make([]synth.Predicate, 0, len(o.repairs))
				for _, p := range o.repairs {
					if delaySet[staticanalysis.Pair{L: p.L, K: p.K}] {
						kept = append(kept, p)
					}
				}
				if len(kept) == 0 {
					// Every proposed predicate fell outside the static delay
					// set. The static model should over-approximate the
					// dynamic engine, so this means the violation escaped the
					// abstraction; keep the full disjunction rather than
					// declare the execution unfixable.
					stats.PruneFallbacks++
				} else {
					stats.PrunedPredicates += len(o.repairs) - len(kept)
					result.PrunedPredicates += len(o.repairs) - len(kept)
					o.repairs = kept
				}
			}
			empty := len(o.repairs) == 0
			pre := formula.NumClauses()
			if empty {
				// No candidate repairs: this execution cannot be avoided by
				// the predicate class (Algorithm 1 aborts here; we record it
				// and keep going — later rounds may still fix everything
				// else, and if a clean round is reached the empty-repair
				// executions were spurious for the final program).
				result.EmptyRepairs++
				if result.UnfixableExample == "" {
					result.UnfixableExample = o.desc
				}
			} else if err := formula.AddExecution(o.repairs); err != nil {
				return nil, err
			}
			// Journal the round's first empty-disjunction violation (they
			// recur heavily; RoundEnd's counters cover the rest) and one
			// Violation per distinct disjunction: φ dedupes clauses, so
			// "did NumClauses grow" is exactly that test.
			if cfg.sink != nil && (empty && !emittedEmpty || formula.NumClauses() > pre) {
				emittedEmpty = emittedEmpty || empty
				if i == witnessIdx {
					witnessEvIdx = len(vioEvents)
				}
				vioEvents = append(vioEvents, telemetry.Violation{
					Round: round + 1, Index: i, Seed: roundOpts(&cfg, round, i).Seed, Desc: o.desc,
					Disjunction: telemetry.PredsOf(o.repairs),
				})
			}
		}
		result.TotalInconclusive += stats.Inconclusive + stats.Skipped
		stats.DistinctClauses = formula.NumClauses()
		stats.Predicates = formula.NumPredicates()
		stats.Wall = time.Since(started)
		stats.ExecsPerSec = execRate(stats.Executions, stats.Wall)
		collectSpan.End()
		if witnessIdx >= 0 && result.Witness == nil && !witnessDone {
			// Re-run the lowest violating seed traced to capture a
			// reproducible counterexample schedule (the same execution the
			// serial loop would have traced first).
			opts := roundOpts(&cfg, round, witnessIdx)
			if wres, tr := sched.RunTraced(work.Clone(), cfg.Model, nil, opts); judge(&cfg, wres) == verdictViolation {
				result.Witness = tr
				result.WitnessViolation = describeViolation(&cfg, wres)
				if witnessEvIdx >= 0 {
					// The witness execution's journal entry carries the full
					// schedule (and the failure description) so `dfence
					// explain` can re-render it without re-running synthesis.
					vioEvents[witnessEvIdx].Trace = telemetry.TraceOf(tr)
					if vioEvents[witnessEvIdx].Desc == "" {
						vioEvents[witnessEvIdx].Desc = result.WitnessViolation
					}
				}
			}
		}
		for _, ve := range vioEvents {
			telemetry.Emit(cfg.sink, ve)
		}

		if ctx.Err() != nil {
			// The deadline expired during (or before) this round. Keep the
			// partial round's statistics but trust no verdict from it.
			endRound(&stats, round)
			aborted = true
			break
		}
		if stats.Violations == 0 {
			endRound(&stats, round)
			if stats.ConclusiveFraction() >= cfg.MinConclusive {
				result.Converged = true
				break
			}
			// Vacuous round: no violations, but too few executions produced
			// a verdict for "no violations" to mean anything. Keep going
			// with fresh seeds rather than declaring convergence.
			if round+1 < cfg.MaxRounds {
				if checkpoint(round + 1) {
					aborted = true
					result.Interrupted = true
					break
				}
			}
			continue
		}
		if formula.Empty() {
			// Every violation this round was unfixable.
			endRound(&stats, round)
			break
		}
		var sst sat.Stats
		var sols [][]synth.Predicate
		var truncated bool
		solveSpan := cfg.Tracer.Begin(0, trace.SpanSolve, round+1)
		solveStart := time.Now()
		pprof.Do(ctx, pprof.Labels("dfence_phase", "solve"), func(context.Context) {
			sols, truncated = formula.MinimalSolutions(sat.Budget{MaxModels: cfg.MaxModels}, &sst)
		})
		solverWall := time.Since(solveStart)
		solveSpan.End()
		if sst.Restarts > 0 {
			cfg.Tracer.Instant(0, trace.InstantSolverRestarts, round+1, sst.Restarts)
		}
		if truncated {
			result.SolverTruncated = true
		}
		chosen := sols[0] // smallest, lexicographically first (deterministic)
		if cfg.NoMinimize {
			// Ablation: take the union of all predicates in the largest
			// minimal solution's place — emulate a non-minimal SAT model by
			// enforcing every predicate mentioned in some minimal solution.
			seen := map[synth.Predicate]bool{}
			chosen = chosen[:0:0]
			for _, s := range sols {
				for _, p := range s {
					if !seen[p] {
						seen[p] = true
						chosen = append(chosen, p)
					}
				}
			}
		}
		telemetry.Emit(cfg.sink, telemetry.SolverResult{
			Round:        round + 1,
			Clauses:      sst.Clauses,
			Predicates:   stats.Predicates,
			Models:       sst.Models,
			Conflicts:    sst.Conflicts,
			Decisions:    sst.Decisions,
			Propagations: sst.Propagations,
			Restarts:     sst.Restarts,
			Truncated:    truncated,
			WallUS:       solverWall.Microseconds(),
			Chosen:       telemetry.PredsOf(chosen),
		})
		var fences []synth.InsertedFence
		var err error
		if cfg.EnforceWithCAS {
			fences, err = synth.EnforceWithCAS(work, cfg.Model, chosen)
		} else {
			fences, err = synth.Enforce(work, cfg.Model, chosen)
		}
		if err != nil {
			return nil, err
		}
		stats.Inserted = fences
		result.Fences = append(result.Fences, fences...)
		if len(fences) > 0 {
			telemetry.Emit(cfg.sink, telemetry.FenceChange{
				Round: round + 1, Action: "insert",
				Fences: telemetry.FencesOf(fences), Count: len(fences),
			})
		}
		endRound(&stats, round)
		if len(fences) == 0 && stats.Violations > 0 {
			// No progress possible (all fences already present yet
			// violations persist): stop rather than loop.
			break
		}
		if round+1 < cfg.MaxRounds {
			if checkpoint(round + 1) {
				aborted = true
				result.Interrupted = true
				break
			}
		}
	}

	result.Unfixable = !result.Converged && result.EmptyRepairs > 0
	switch {
	case aborted:
		result.Outcome = OutcomeAborted
	case result.Converged:
		result.Outcome = OutcomeConverged
	case result.Unfixable:
		result.Outcome = OutcomeUnfixable
	default:
		result.Outcome = OutcomeInconclusive
	}
	result.SynthesizedFences = len(result.Fences)
	if cfg.ValidateFences && !cfg.EnforceWithCAS && result.Converged && len(result.Fences) > 0 {
		validateSpan := cfg.Tracer.Begin(0, trace.SpanValidate, 0)
		if err := validateFences(prog, &cfg, result, jcs); err != nil {
			return nil, err
		}
		validateSpan.End()
	}
	if cfg.MergeFences {
		minimizeSpan := cfg.Tracer.Begin(0, trace.SpanMinimize, 0)
		merged, err := synth.MergeFences(result.Program)
		if err != nil {
			return nil, err
		}
		result.MergedAway = merged
		if merged > 0 {
			telemetry.Emit(cfg.sink, telemetry.FenceChange{Action: "merge", Count: merged})
		}
		minimizeSpan.End()
	}
	tallyJudgeCaches(jcs, result)
	emitConverged(&cfg, result)
	return result, nil
}

// emitConverged closes the journal with the terminal event (emitted for
// every outcome) and settles the gauge-style run totals.
func emitConverged(cfg *Config, result *Result) {
	telemetry.Emit(cfg.sink, telemetry.Converged{
		Outcome:          result.Outcome.String(),
		Rounds:           len(result.Rounds),
		TotalExecutions:  result.TotalExecutions,
		Fences:           len(result.Fences),
		Redundant:        result.Redundant,
		MergedAway:       result.MergedAway,
		CacheHits:        result.CacheHits,
		CacheMisses:      result.CacheMisses,
		StaticallyRobust: result.StaticallyRobust,
	})
}

// describeViolation renders what a violating execution violated: the
// interpreter fault if there was one, otherwise the specification
// checker's prose diagnosis of the failed history (which names the first
// offending operation), falling back to the raw operation list when the
// checker has nothing more specific to say.
func describeViolation(cfg *Config, res *interp.Result) string {
	if res.Violation != nil {
		return res.Violation.Error()
	}
	ops := spec.CompleteOps(res.History)
	if cfg.RelaxStealAborts {
		ops = spec.RelaxStealAborts(ops)
	}
	if d := spec.DescribeFailure(cfg.Criterion, ops, cfg.NewSpec, cfg.CheckGarbage); d != "" {
		return d
	}
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return "history not accepted: " + strings.Join(parts, " ")
}

// FindRedundantFences examines an already-fenced program (§6.3.1: "our
// tool discovered a redundant (store-load) fence in the take operation"):
// it greedily removes each existing fence instruction and re-tests; fences
// whose removal leaves every execution violation-free are reported as
// redundant. The returned labels identify the removable fences in prog;
// prog itself is not modified.
func FindRedundantFences(prog *ir.Program, cfg Config, execsPerFence int) ([]ir.Label, error) {
	cfg.fill()
	if cfg.Criterion != spec.MemorySafety && cfg.NewSpec == nil {
		return nil, fmt.Errorf("core: criterion %v requires a sequential specification", cfg.Criterion)
	}
	if execsPerFence <= 0 {
		execsPerFence = 2 * cfg.ExecsPerRound
	}
	return findRedundant(prog, &cfg, newJudgeCaches(&cfg), execsPerFence)
}

// removeFences deletes the fence instructions with the given labels,
// retargeting branches to their successors. A fence that is a function's
// last instruction has no successor: it is deleted without retargeting,
// unless a branch targets it (removal would leave the branch dangling, so
// the fence is kept — such functions fail Program.Validate anyway).
func removeFences(p *ir.Program, labels []ir.Label) {
	for _, l := range labels {
		f := p.FuncOf(l)
		if f == nil {
			continue
		}
		idx := f.IndexOf(l)
		if idx < 0 || f.Code[idx].Op != ir.OpFence {
			continue
		}
		if idx+1 < len(f.Code) {
			succ := f.Code[idx+1].Label
			for j := range f.Code {
				in := &f.Code[j]
				if in.Op != ir.OpBr && in.Op != ir.OpCondBr {
					continue
				}
				if in.Target == l {
					in.Target = succ
				}
				if in.Op == ir.OpCondBr && in.Target2 == l {
					in.Target2 = succ
				}
			}
		} else if branchesTo(f, l) {
			continue
		}
		f.Code = append(f.Code[:idx], f.Code[idx+1:]...)
		f.Rebuild()
	}
}

// branchesTo reports whether any branch in f targets label l.
func branchesTo(f *ir.Func, l ir.Label) bool {
	for j := range f.Code {
		in := &f.Code[j]
		switch in.Op {
		case ir.OpBr:
			if in.Target == l {
				return true
			}
		case ir.OpCondBr:
			if in.Target == l || in.Target2 == l {
				return true
			}
		}
	}
	return false
}

// CheckOnly runs n executions without synthesizing and reports how many
// violate the specification — used to validate programs (e.g. checking
// that Cilk's THE is not linearizable even under SC, §6.6) and by the
// scheduler-effectiveness benchmarks.
func CheckOnly(prog *ir.Program, cfg Config, n int) int {
	cfg.fill()
	return violationBatch(prog, &cfg, newJudgeCaches(&cfg), n, func(i int) sched.Options {
		return sched.Options{
			Seed:      cfg.Seed + int64(i),
			FlushProb: cfg.FlushProb,
			MaxSteps:  cfg.MaxStepsPerExec,
			MaxIters:  cfg.MaxItersPerExec,
			PORWindow: 64,
			Tracer:    cfg.Tracer,
		}
	})
}

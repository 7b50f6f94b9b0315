package core

import (
	"strings"
	"testing"

	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
	"dfence/internal/telemetry"
)

// collectSink records every emitted event in order.
type collectSink struct{ events []telemetry.Event }

func (c *collectSink) Emit(e telemetry.Event) { c.events = append(c.events, e) }

func synthConfig(extra func(*Config)) Config {
	cfg := Config{
		Model:         memmodel.PSO,
		Criterion:     spec.SeqConsistency,
		NewSpec:       spec.NewDeque,
		ExecsPerRound: 300,
		MaxRounds:     6,
		Seed:          42,
		Workers:       4,
	}
	if extra != nil {
		extra(&cfg)
	}
	return cfg
}

// TestSynthesizeEmitsJournal: the event stream must reconstruct the run —
// one RoundStart/RoundEnd pair per Result round in order, Violation
// events matching the distinct clauses of each round, SolverResult and
// FenceChange for every fencing round, and a terminal Converged agreeing
// with the Result.
func TestSynthesizeEmitsJournal(t *testing.T) {
	p, _, _ := buildSPSC(t)
	sink := &collectSink{}
	reg := telemetry.NewRegistry(4)
	met := telemetry.NewMetrics(reg)
	res, err := Synthesize(p, synthConfig(func(c *Config) {
		c.Sink = sink
		c.Metrics = met
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %s", res.Summary())
	}

	var starts, ends []telemetry.RoundEnd
	var startRounds []int
	var violations []telemetry.Violation
	var solves []telemetry.SolverResult
	var inserts []telemetry.FenceChange
	var conv *telemetry.Converged
	for _, e := range sink.events {
		switch ev := e.(type) {
		case telemetry.RoundStart:
			startRounds = append(startRounds, ev.Round)
		case telemetry.RoundEnd:
			ends = append(ends, ev)
		case telemetry.Violation:
			violations = append(violations, ev)
		case telemetry.SolverResult:
			solves = append(solves, ev)
		case telemetry.FenceChange:
			if ev.Action == "insert" {
				inserts = append(inserts, ev)
			}
		case telemetry.Converged:
			c := ev
			conv = &c
		}
	}
	_ = starts

	if len(startRounds) != len(res.Rounds) || len(ends) != len(res.Rounds) {
		t.Fatalf("%d RoundStart / %d RoundEnd events for %d rounds", len(startRounds), len(ends), len(res.Rounds))
	}
	for i, rd := range res.Rounds {
		if startRounds[i] != i+1 || ends[i].Round != i+1 {
			t.Errorf("round %d events carry rounds %d/%d", i+1, startRounds[i], ends[i].Round)
		}
		if ends[i].Executions != rd.Executions || ends[i].Violations != rd.Violations ||
			ends[i].DistinctClauses != rd.DistinctClauses || ends[i].Predicates != rd.Predicates {
			t.Errorf("RoundEnd %d = %+v does not match Round %+v", i+1, ends[i], rd)
		}
		// One Violation event per distinct clause of the round.
		n := 0
		for _, v := range violations {
			if v.Round == i+1 && len(v.Disjunction) > 0 {
				n++
			}
		}
		if n != rd.DistinctClauses {
			t.Errorf("round %d journaled %d disjunction violations, want %d (distinct clauses)", i+1, n, rd.DistinctClauses)
		}
		if len(rd.Inserted) > 0 {
			found := false
			for _, ins := range inserts {
				if ins.Round == i+1 && len(ins.Fences) == len(rd.Inserted) {
					found = true
				}
			}
			if !found {
				t.Errorf("round %d inserted %d fences but journaled no matching FenceChange", i+1, len(rd.Inserted))
			}
		}
	}
	if len(solves) == 0 {
		t.Error("no SolverResult events for a run that fenced")
	}
	for _, s := range solves {
		if s.Models <= 0 || len(s.Chosen) == 0 {
			t.Errorf("SolverResult %+v lacks models or a chosen assignment", s)
		}
	}
	if conv == nil {
		t.Fatal("no terminal Converged event")
	}
	if conv.Outcome != res.Outcome.String() || conv.Rounds != len(res.Rounds) ||
		conv.TotalExecutions != res.TotalExecutions || conv.Fences != len(res.Fences) {
		t.Errorf("Converged %+v does not match result (outcome=%v rounds=%d execs=%d fences=%d)",
			conv, res.Outcome, len(res.Rounds), res.TotalExecutions, len(res.Fences))
	}

	// The witness execution's Violation event must carry the trace.
	var withTrace *telemetry.Violation
	for i := range violations {
		if len(violations[i].Trace) > 0 {
			withTrace = &violations[i]
			break
		}
	}
	if res.Witness == nil {
		t.Fatal("no witness captured")
	}
	if withTrace == nil {
		t.Fatal("no journaled violation carries the witness trace")
	}
	if len(withTrace.Trace) != len(res.Witness.Decisions) {
		t.Errorf("journaled trace has %d decisions, witness %d", len(withTrace.Trace), len(res.Witness.Decisions))
	}
	if withTrace.Desc == "" {
		t.Error("witness violation event has no description")
	}

	// Metrics must agree with the run's own accounting.
	if got := met.Executions.Value(); got < int64(res.TotalExecutions) {
		t.Errorf("executions counter %d < result's %d", got, res.TotalExecutions)
	}
	if got := met.Rounds.Value(); got != int64(len(res.Rounds)) {
		t.Errorf("rounds counter %d, want %d", got, len(res.Rounds))
	}
	if got := met.FencesInserted.Value(); got != int64(res.SynthesizedFences) {
		t.Errorf("fences-inserted counter %d, want %d", got, res.SynthesizedFences)
	}
	if got := met.CacheHits.Value() + met.CacheMisses.Value(); got == 0 {
		t.Error("cache counters never moved")
	}
}

// TestJournalExplainsWitness is the acceptance-criterion path as a unit
// test: synthesize with a journal, read it back, and render the witness —
// interleaving, buffered stores, and the repair disjunction must all
// appear.
func TestJournalExplainsWitness(t *testing.T) {
	p, _, _ := buildSPSC(t)
	var b strings.Builder
	j := telemetry.NewJournal(&b)
	res, err := Synthesize(p.Clone(), synthConfig(func(c *Config) { c.Sink = j }))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Fences) == 0 {
		t.Fatalf("unexpected run: %s", res.Summary())
	}

	events, err := telemetry.ReadJournal(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("journal does not read back: %v", err)
	}
	jr := telemetry.SummarizeJournal(events)
	wits := jr.Witnesses()
	if len(wits) == 0 {
		t.Fatal("journal has no witness")
	}
	w := wits[0]
	prog := p.Clone()
	if fences := jr.FencesBefore(w.Round); len(fences) > 0 {
		t.Fatalf("first witness should predate all fences, got %d", len(fences))
	}
	out, err := telemetry.ExplainWitness(prog, telemetry.TraceFrom(w.Trace, memmodel.PSO), telemetry.ExplainOptions{
		Round: w.Round, Seed: w.Seed, Desc: w.Desc, Disjunction: w.Disjunction,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"violation witness — PSO, round 1",
		"program (per thread):",
		"interleaving (",
		"BUFFERED",
		"repair disjunction",
		"\u2b30", // the ⊰-style ordering arrow in [L ⤰ K]
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explanation missing %q:\n%s", want, out)
		}
	}
}

// TestTelemetryDisabledIdentical: a run with telemetry fully enabled must
// produce a bit-identical Result to one with it disabled — the
// instrumentation observes, never steers.
func TestTelemetryDisabledIdentical(t *testing.T) {
	p, _, _ := buildSPSC(t)
	bare, err := Synthesize(p.Clone(), synthConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(4)
	var b strings.Builder
	j := telemetry.NewJournal(&b)
	instrumented, err := Synthesize(p.Clone(), synthConfig(func(c *Config) {
		c.Metrics = telemetry.NewMetrics(reg)
		c.Sink = j
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Wall times, the derived rates, and the per-worker cache hit/miss
	// split are the legitimately nondeterministic parts of a Result: the
	// judge caches are per-worker, so which worker lands on which
	// execution shifts the hit/miss split (the total is scheduling-
	// independent). Normalize those before comparing.
	if bt, it := bare.CacheHits+bare.CacheMisses, instrumented.CacheHits+instrumented.CacheMisses; bt != it {
		t.Errorf("total cache lookups differ: bare %d, instrumented %d", bt, it)
	}
	for _, res := range []*Result{bare, instrumented} {
		res.CacheHits, res.CacheMisses = 0, 0
		for i := range res.Rounds {
			res.Rounds[i].Wall, res.Rounds[i].ExecsPerSec = 0, 0
		}
	}
	if bare.Summary() != instrumented.Summary() {
		t.Errorf("telemetry changed the result:\nbare:\n%s\n\ninstrumented:\n%s",
			bare.Summary(), instrumented.Summary())
	}
}

// TestComposedSinkNilWhenDisabled: with neither Sink nor Metrics the
// composed event stream is nil, so a run without telemetry pays one nil
// check per event and builds no event at all.
func TestComposedSinkNilWhenDisabled(t *testing.T) {
	var cfg Config
	cfg.fill()
	if cfg.sink != nil {
		t.Fatalf("composed sink = %#v, want nil", cfg.sink)
	}
	j := telemetry.NewJournal(&strings.Builder{})
	cfg = Config{Sink: j}
	cfg.fill()
	if cfg.sink != telemetry.Sink(j) {
		t.Errorf("composed sink with Sink only = %#v, want the Sink itself", cfg.sink)
	}
	met := telemetry.NewMetrics(telemetry.NewRegistry(1))
	cfg = Config{Metrics: met}
	cfg.fill()
	if cfg.sink != telemetry.Sink(met) {
		t.Errorf("composed sink with Metrics only = %#v, want the Metrics itself", cfg.sink)
	}
}

// TestMetricsFoldMatchesJournal: Metrics folds the event stream the journal
// records, so over a few corpus programs the journal's totals equal the
// round, solver and fence metrics exactly, and every metric-backed /runz
// field equals its metric.
func TestMetricsFoldMatchesJournal(t *testing.T) {
	met := telemetry.NewMetrics(telemetry.NewRegistry(2))
	var events []telemetry.Event
	// chase-lev under TSO and msn-queue under PSO each have fences dropped
	// as redundant by validation.
	for _, c := range []struct {
		name  string
		model memmodel.Model
	}{{"chase-lev", memmodel.TSO}, {"msn-queue", memmodel.PSO}, {"lifo-wsq", memmodel.PSO}} {
		b, err := progs.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := goldenConfig(b, c.model)
		cfg.Workers, cfg.MergeFences = 2, true
		var buf strings.Builder
		j := telemetry.NewJournal(&buf)
		cfg.Sink, cfg.Metrics = j, met
		if _, err := Synthesize(b.Program(), cfg); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		evs, err := telemetry.ReadJournal(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, evs...)
	}

	var j telemetry.RunStatus
	var rounds, roundWallUS, solverWallUS, clauses, skipped, preds, pruned int64
	lastRound := 0
	for _, e := range events {
		switch ev := e.(type) {
		case telemetry.RoundStart:
			lastRound = ev.Round
		case telemetry.RoundEnd:
			rounds++
			roundWallUS += ev.WallUS
			skipped += int64(ev.Skipped)
			preds += int64(ev.Predicates)
			pruned += int64(ev.PrunedPreds)
			j.Executions += ev.Executions
			j.Violations += ev.Violations
			j.Inconclusive += ev.Inconclusive
			j.DistinctClauses += ev.DistinctClauses
		case telemetry.SolverResult:
			j.Solver.Rounds++
			j.Solver.Models += ev.Models
			j.Solver.Conflicts += ev.Conflicts
			j.Solver.Decisions += ev.Decisions
			j.Solver.Propagations += ev.Propagations
			j.Solver.Restarts += ev.Restarts
			clauses += int64(ev.Clauses)
			solverWallUS += ev.WallUS
		case telemetry.FenceChange:
			switch ev.Action {
			case "insert":
				j.FencesInserted += len(ev.Fences)
			case "drop-redundant":
				j.FencesRemoved += len(ev.Fences)
			case "merge":
				j.FencesRemoved += ev.Count
			}
		case telemetry.Converged:
			j.Outcome = ev.Outcome
		}
	}
	if j.Solver.Rounds == 0 || j.FencesInserted == 0 || j.FencesRemoved == 0 {
		t.Fatalf("corpus runs too small to exercise the fold: %+v", j)
	}

	hist := map[string]telemetry.HistogramSnap{}
	for _, h := range met.Registry.Snapshot().Histograms {
		hist[h.Name] = h
	}
	eq := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: metrics %d, journal %d", what, got, want)
		}
	}
	eq("round wall histogram sum", hist["dfence_round_wall_us"].Sum, roundWallUS)
	eq("round wall histogram count", hist["dfence_round_wall_us"].Count, rounds)
	eq("solver wall histogram sum", hist["dfence_solver_wall_us"].Sum, solverWallUS)
	eq("solver wall histogram count", hist["dfence_solver_wall_us"].Count, int64(j.Solver.Rounds))
	eq("rounds", met.Rounds.Value(), rounds)
	eq("current round", met.CurrentRound.Value(), int64(lastRound))
	eq("skipped", met.Skipped.Value(), skipped)
	eq("predicates", met.Predicates.Value(), preds)
	eq("pruned predicates", met.PrunedPredicates.Value(), pruned)
	eq("solver models", met.SolverModels.Value(), int64(j.Solver.Models))
	eq("solver conflicts", met.SolverConflicts.Value(), j.Solver.Conflicts)
	eq("solver decisions", met.SolverDecisions.Value(), j.Solver.Decisions)
	eq("solver propagations", met.SolverPropagations.Value(), j.Solver.Propagations)
	eq("solver restarts", met.SolverRestarts.Value(), j.Solver.Restarts)
	eq("solver clauses", met.SolverClauses.Value(), clauses)
	eq("fences inserted", met.FencesInserted.Value(), int64(j.FencesInserted))
	eq("fences removed", met.FencesRemoved.Value(), int64(j.FencesRemoved))

	// /runz: metric-backed fields read their metric; the rest are the
	// journal's own fold.
	run := met.Run()
	eq("runz round", int64(run.Round), met.CurrentRound.Value())
	eq("runz rounds_completed", int64(run.Rounds), met.Rounds.Value())
	eq("runz skipped", int64(run.Skipped), met.Skipped.Value())
	eq("runz fences_inserted", int64(run.FencesInserted), met.FencesInserted.Value())
	eq("runz fences_removed", int64(run.FencesRemoved), met.FencesRemoved.Value())
	eq("runz cache_hits", int64(run.CacheHits), met.CacheHits.Value())
	eq("runz cache_misses", int64(run.CacheMisses), met.CacheMisses.Value())
	eq("runz solver models", int64(run.Solver.Models), met.SolverModels.Value())
	eq("runz solver conflicts", run.Solver.Conflicts, met.SolverConflicts.Value())
	eq("runz solver decisions", run.Solver.Decisions, met.SolverDecisions.Value())
	eq("runz solver propagations", run.Solver.Propagations, met.SolverPropagations.Value())
	eq("runz solver restarts", run.Solver.Restarts, met.SolverRestarts.Value())
	eq("runz executions", int64(run.Executions), int64(j.Executions))
	eq("runz violations", int64(run.Violations), int64(j.Violations))
	eq("runz inconclusive", int64(run.Inconclusive), int64(j.Inconclusive))
	eq("runz distinct clauses", int64(run.DistinctClauses), int64(j.DistinctClauses))
	eq("runz solver rounds", int64(run.Solver.Rounds), int64(j.Solver.Rounds))
	if len(run.Solver.RoundWallUS) != j.Solver.Rounds || run.Outcome != j.Outcome {
		t.Errorf("runz solve-time list %v / outcome %q, journal %d solves / outcome %q",
			run.Solver.RoundWallUS, run.Outcome, j.Solver.Rounds, j.Outcome)
	}
}

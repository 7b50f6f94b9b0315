package proggen

// The differential oracle. For every generated program it computes three
// independent answers and checks the lattice of containments that must
// hold between them:
//
//	E_SC, E_M   exhaustive enumeration (ground truth when Complete)
//	D_M         dynamic sampling: outcomes, violations, and the
//	            instrumented-semantics predicates of sched.Run
//	S_M         static delay-set analysis (staticanalysis.Analyze)
//	synth       dynamic fence synthesis (core.Synthesize)
//
// Invariants checked, with the divergence kind each failure reports:
//
//	sc-violation        E_SC must be violation-free: templates assert
//	                    SC-infeasible outcomes, randoms assert an
//	                    outcome enumeration proved SC-unreachable, and
//	                    generated programs cannot deadlock or fault.
//	sc-outcome-escape   E_SC ⊆ E_M — eager flushing simulates SC on a
//	                    store-buffer machine.
//	phantom-outcome     D_M outcomes ⊆ E_M (enumeration is complete).
//	phantom-violation   D_M violations ⊆ E_M violations.
//	predicate-escape    D_M predicates ⊆ S_M candidates (the static
//	                    over-approximation claim of delayset.go).
//	unsound-robust      S_M robust ⇒ E_M = E_SC (all executions SC).
//	unfixable           synthesis must never declare a generated
//	                    program unfixable (its violations are
//	                    store-buffer-induced, so fences fix them).
//	insufficient-fences a TEMPLATE program converged but exhaustive
//	                    enumeration of the fenced program still finds a
//	                    violation (after one escalated retry). Template
//	                    witnesses are single critical cycles — short and
//	                    high-probability by construction — so missing
//	                    them twice is a defect, not bad luck. For RANDOM
//	                    programs the same situation is a soft finding
//	                    (SamplingMisses + note): enumeration violations
//	                    are reached by concrete machine transitions, every
//	                    machine path has positive probability under the
//	                    scheduler, and
//	                    random programs can push that probability into an
//	                    arbitrarily deep tail (observed at ~1e-3/exec);
//	                    a reachability burst annotates the note with how
//	                    hard the residual actually is to hit.
//	panic               any execution panicked (recovered by sched.RunBatch).
//	compile-error       the rendered source failed to compile or link.
//	analyze-error       the verifier/static analysis rejected the IR.
//
// Soft findings that are expected occasionally (enumeration budget
// tripped, synthesis inconclusive) become report notes, not divergences.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dfence/internal/core"
	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/sched"
	"dfence/internal/spec"
	"dfence/internal/staticanalysis"
	"dfence/internal/synth"
)

// flushProbs are cycled across sampled executions so both store-heavy and
// flush-heavy schedules are exercised (paper §6.5 uses ~0.1 for TSO and
// ~0.5 for PSO).
var flushProbs = []float64{0.1, 0.3, 0.6}

// FuzzConfig configures one fuzzing campaign. The zero value is not
// usable; Fill applies CI-smoke defaults.
type FuzzConfig struct {
	Seed int64
	// N is the corpus size (templates + randoms).
	N int
	// Models are the weak models to differentially test; SC is always
	// enumerated as the baseline. Defaults to TSO, PSO, and RMO.
	Models []memmodel.Model
	// Execs is the dynamic sampling budget per (program, model); the
	// synthesis phase uses the same number per round.
	Execs int
	// MaxRounds bounds synthesis repair rounds.
	MaxRounds int
	// Enum bounds each exhaustive enumeration.
	Enum EnumOptions
	// NoShrink skips shrinking (used by the shrinker's own recheck and
	// by tests asserting on raw findings).
	NoShrink bool
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)

	// SkewEnum is test-only fault injection: the enumeration phase runs
	// on an assert-stripped clone of each program while every other
	// phase sees the real one. A harness that cannot catch the resulting
	// phantom-violation divergence is broken — the self-test in
	// oracle_test.go turns this on to prove the oracle actually gates.
	SkewEnum bool

	// skipSynth elides the synthesis phase — the shrinker's recheck sets
	// it when minimizing a divergence whose reproduction does not depend
	// on synthesis.
	skipSynth bool
}

// Fill applies defaults.
func (c *FuzzConfig) Fill() {
	if c.N <= 0 {
		c.N = 200
	}
	if len(c.Models) == 0 {
		c.Models = []memmodel.Model{memmodel.TSO, memmodel.PSO, memmodel.RMO}
	}
	if c.Execs <= 0 {
		// Recalibrated from 120 when the scheduler switched PRNGs
		// (sched.schedRNG): the new stream needs a slightly larger
		// fixed-seed budget to expose the deepest RMO template
		// residuals within the un-escalated pass.
		c.Execs = 160
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 8
	}
	c.Enum.fill()
}

// Divergence is one oracle disagreement, with the shrunk reproduction.
type Divergence struct {
	Index        int // corpus index
	Kind         string
	Model        memmodel.Model
	Detail       string
	Prog         *Prog  // program as generated (post assert-injection)
	Source       string // rendered Prog
	Shrunk       *Prog  // greedily minimized reproduction (nil if NoShrink)
	ShrunkSource string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("#%d [%s/%v] %s", d.Index, d.Kind, d.Model, d.Detail)
}

// FuzzReport summarizes a campaign.
type FuzzReport struct {
	Seed      int64
	Programs  int
	Templates int
	Randoms   int
	Injected  int // randoms that received a forbidden-outcome assert
	Checked   int // (program, model) differential checks run
	Violating int // programs whose enumeration found a violation under some model
	Robust    int // (program, model) pairs statically robust
	Escalated int // synthesis retries at a raised budget
	// SamplingMisses counts random programs whose escalated synthesis
	// still converged under-fenced: the repair loop's budget missed a
	// rare-but-reachable schedule (enumeration witnesses are reached by
	// concrete machine transitions, so the residual is always reachable in
	// principle).
	// Expected occasionally on random programs; the same situation on a
	// template gates as insufficient-fences instead.
	SamplingMisses int
	EnumPartial    int // enumerations that hit a budget
	Notes          []string
	Divergences    []*Divergence
}

// Corpus builds the deterministic program corpus for a seed: the full
// template pool (every RMO-admissible cycle shape over 2 and 3 threads —
// a superset of PSO's and TSO's shapes, since RelaxedEdgeKinds grows
// monotonically down the hierarchy — in all three fence variants)
// interleaved with seeded random programs at one template per four
// entries. The RMO-only shapes are exactly the deferred-load litmus
// family (MP without dependencies, LB, and their 3-thread extensions).
// Template t of the pool is shape t/3 in variant t%3; only the templates
// the corpus returns are instantiated.
func Corpus(seed int64, n int) []*Prog {
	var shapes []staticanalysis.CycleShape
	for _, threads := range []int{2, 3} {
		shapes = append(shapes, staticanalysis.CriticalCycleShapes(memmodel.RMO, threads)...)
	}
	variants := TemplateVariants()
	out := make([]*Prog, 0, n)
	for i := 0; i < n; i++ {
		if t := i / 4; i%4 == 0 && t < len(shapes)*len(variants) {
			out = append(out, TemplateProg(shapes[t/len(variants)], variants[t%len(variants)]))
		} else {
			out = append(out, RandomProg(seed, i))
		}
	}
	return out
}

// fuzzer is the per-campaign state.
type fuzzer struct {
	cfg FuzzConfig
	rep *FuzzReport
}

func (f *fuzzer) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// Fuzz runs a campaign and returns its report. It never writes files —
// the CLI owns reproduction/journal output.
func Fuzz(cfg FuzzConfig) *FuzzReport {
	cfg.Fill()
	f := &fuzzer{cfg: cfg, rep: &FuzzReport{Seed: cfg.Seed}}
	corpus := Corpus(cfg.Seed, cfg.N)
	for idx, p := range corpus {
		var prog *ir.Program
		var c *interp.Compiled
		var enums []*EnumResult
		if p.Template {
			f.rep.Templates++
		} else {
			f.rep.Randoms++
			p, prog, c, enums = f.inject(p, idx)
		}
		f.rep.Programs++
		divs := f.check(p, prog, c, idx, f.cfg.Models, enums)
		for _, d := range divs {
			if !f.cfg.NoShrink {
				f.shrink(d)
			}
			f.rep.Divergences = append(f.rep.Divergences, d)
			f.logf("DIVERGENCE %v", d)
		}
		if (idx+1)%50 == 0 {
			f.logf("checked %d/%d programs, %d divergences", idx+1, len(corpus), len(f.rep.Divergences))
		}
	}
	return f.rep
}

// inject upgrades a random program into a synthesis target: if some weak
// model reaches an outcome that SC provably cannot, assert the negation
// of the lexicographically smallest such outcome. The program is then
// SC-clean by construction with a violation reachable under that model.
// When it leaves the program unchanged it also returns the program
// compiled to IR and to the interpreter's form, and the enumerations it
// computed, so check neither compiles nor enumerates the same program
// again.
func (f *fuzzer) inject(p *Prog, idx int) (*Prog, *ir.Program, *interp.Compiled, []*EnumResult) {
	prog, err := p.Compile()
	if err != nil {
		return p, nil, nil, nil // check() will report compile-error
	}
	c := interp.Compile(prog)
	esc := enumerate(c, memmodel.SC, f.cfg.Enum)
	enums := []*EnumResult{esc}
	if !esc.Complete {
		return p, prog, c, enums
	}
	for _, model := range f.cfg.Models {
		em := enumerate(c, model, f.cfg.Enum)
		enums = append(enums, em)
		if !em.Complete {
			continue
		}
		var extra []string
		for o := range em.Outcomes {
			if !esc.Outcomes[o] {
				extra = append(extra, o)
			}
		}
		if len(extra) == 0 {
			continue
		}
		sort.Strings(extra)
		conds, ok := outcomeConds(p.Observe, extra[0])
		if !ok {
			continue
		}
		q := p.Clone()
		q.Forbidden = conds
		q.Name = p.Name + "+assert"
		f.rep.Injected++
		return q, nil, nil, nil
	}
	return p, prog, c, enums
}

// outcomeConds converts a canonical outcome string back into the
// per-global equality conjunction it denotes.
func outcomeConds(observe []string, outcome string) ([]Cond, bool) {
	body, _, ok := strings.Cut(outcome, "|")
	if !ok {
		return nil, false
	}
	var vals []string
	if body != "" {
		vals = strings.Split(body, ",")
	}
	if len(vals) != len(observe) {
		return nil, false
	}
	conds := make([]Cond, len(vals))
	for i, v := range vals {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, false
		}
		conds[i] = Cond{Global: observe[i], Equals: n}
	}
	return conds, true
}

// dynamicSample aggregates one sampling pass.
type dynamicSample struct {
	outcomes     map[string]bool
	violations   map[string]bool
	preds        []synth.Predicate
	panics       []string
	inconclusive int
}

// sample runs execs schedules of prog under model, cycling flush
// probabilities and strategies, accumulating outcomes, violations, and
// instrumented-semantics predicates. The executions run serially on one
// pooled machine (sched.RunBatch with one worker), the collector
// observing each.
func (f *fuzzer) sample(prog *ir.Program, model memmodel.Model, seed int64, execs int) *dynamicSample {
	s := &dynamicSample{outcomes: map[string]bool{}, violations: map[string]bool{}}
	col := synth.NewCollector(model)
	predSet := map[synth.Predicate]bool{}
	optsFor := func(i int) sched.Options {
		opts := sched.Options{
			Seed:      seed + int64(i),
			FlushProb: flushProbs[i%len(flushProbs)],
			MaxSteps:  f.cfg.Enum.MaxSteps,
			PORWindow: 64,
		}
		if i%4 == 3 {
			opts.Strategy = sched.Priority
		}
		return opts
	}
	sched.RunBatch(context.Background(), prog, model, execs, 1,
		func(int) interp.Observer { return col }, optsFor,
		func(_, _ int, _ interp.Observer, res *interp.Result, execErr *sched.ExecError) (struct{}, bool) {
			for _, p := range col.TakeDisjunction() {
				predSet[p] = true
			}
			switch {
			case execErr != nil:
				s.panics = append(s.panics, execErr.Error())
			case res.StepLimitHit || res.TimedOut:
				s.inconclusive++
			case res.Violation != nil:
				s.violations[violationString(res.Violation)] = true
			default:
				s.outcomes[OutcomeString(res.Output, res.ExitCode)] = true
			}
			return struct{}{}, false
		})
	for p := range predSet {
		s.preds = append(s.preds, p)
	}
	sort.Slice(s.preds, func(i, j int) bool {
		if s.preds[i].L != s.preds[j].L {
			return s.preds[i].L < s.preds[j].L
		}
		return s.preds[i].K < s.preds[j].K
	})
	return s
}

func (f *fuzzer) synthConfig(model memmodel.Model, seed int64, execs, rounds int) core.Config {
	return core.Config{
		Model:           model,
		Criterion:       spec.MemorySafety,
		ExecsPerRound:   execs,
		MaxRounds:       rounds,
		FlushProb:       0.3,
		MaxStepsPerExec: f.cfg.Enum.MaxSteps,
		Seed:            seed,
		Workers:         1, // single-threaded: verdicts must be bit-deterministic
		OptionsHook: func(round, index int, opts sched.Options) sched.Options {
			// Diversify flush probabilities across the round, but leave the
			// portfolio's eager phases (high flush, with starve+priority or
			// lazy resolve — see core's portfolioPhase) their own setting:
			// those combinations are what reach 3-thread write-cycle and
			// load-buffering residuals. A phase that set its own FlushProb
			// no longer carries the config's base value.
			if opts.FlushProb == 0.3 {
				opts.FlushProb = flushProbs[index%len(flushProbs)]
			}
			return opts
		},
	}
}

// check runs the full differential comparison of one prepared program
// under the given models and returns every divergence found. prog and c,
// when non-nil, are p already compiled to IR and to the interpreter's
// form, and enums holds enumerations of p already computed (all by
// inject); p is compiled here otherwise, once, and any model missing from
// enums is enumerated here.
func (f *fuzzer) check(p *Prog, prog *ir.Program, c *interp.Compiled, idx int, models []memmodel.Model, enums []*EnumResult) []*Divergence {
	var divs []*Divergence
	report := func(kind string, model memmodel.Model, format string, args ...any) {
		divs = append(divs, &Divergence{
			Index:  idx,
			Kind:   kind,
			Model:  model,
			Detail: fmt.Sprintf(format, args...),
			Prog:   p,
			Source: p.Render(),
		})
	}
	note := func(format string, args ...any) {
		f.rep.Notes = append(f.rep.Notes, fmt.Sprintf("#%d %s: ", idx, p.Name)+fmt.Sprintf(format, args...))
	}

	if prog == nil {
		var err error
		if prog, err = p.Compile(); err != nil {
			report("compile-error", memmodel.SC, "%v", err)
			return divs
		}
	}
	enumProg := prog
	if f.cfg.SkewEnum {
		q := p.Clone()
		q.Forbidden = nil
		if ep, err := q.Compile(); err == nil {
			enumProg = ep
		}
		c, enums = nil, nil // they describe p, not the stripped clone
	}
	enumOf := func(model memmodel.Model) *EnumResult {
		for _, r := range enums {
			if r.Model == model {
				return r
			}
		}
		if c == nil {
			c = interp.Compile(enumProg)
		}
		return enumerate(c, model, f.cfg.Enum)
	}
	baseSeed := ProgSeed(f.cfg.Seed, idx)

	esc := enumOf(memmodel.SC)
	if !esc.Complete {
		f.rep.EnumPartial++
		note("SC enumeration incomplete (%d states)", esc.States)
	}
	if esc.Complete && esc.HasViolation() {
		report("sc-violation", memmodel.SC, "SC enumeration reached: %s",
			strings.Join(esc.SortedViolations(), "; "))
	}

	violating := false
	for _, model := range models {
		f.rep.Checked++
		em := enumOf(model)
		if !em.Complete {
			f.rep.EnumPartial++
			note("%v enumeration incomplete (%d states)", model, em.States)
		}
		if em.HasViolation() {
			violating = true
		}

		// E_SC ⊆ E_M: a store-buffer machine can always emulate SC.
		if esc.Complete && em.Complete {
			var missing []string
			for o := range esc.Outcomes {
				if !em.Outcomes[o] {
					missing = append(missing, o)
				}
			}
			if len(missing) > 0 {
				sort.Strings(missing)
				report("sc-outcome-escape", model,
					"SC outcomes unreachable under %v: %s", model, strings.Join(missing, "; "))
			}
		}

		st, err := staticanalysis.Analyze(prog, model)
		if err != nil {
			report("analyze-error", model, "%v", err)
			continue
		}
		if st.Robust() {
			f.rep.Robust++
			// Robust ⇒ every execution is SC ⇒ behavior sets coincide.
			if esc.Complete && em.Complete {
				if em.HasViolation() {
					report("unsound-robust", model,
						"statically robust but %v enumeration violates: %s",
						model, strings.Join(em.SortedViolations(), "; "))
				}
				var extra []string
				for o := range em.Outcomes {
					if !esc.Outcomes[o] {
						extra = append(extra, o)
					}
				}
				if len(extra) > 0 {
					sort.Strings(extra)
					report("unsound-robust", model,
						"statically robust but %v reaches non-SC outcomes: %s",
						model, strings.Join(extra, "; "))
				}
			}
		}

		dyn := f.sample(prog, model, baseSeed, f.cfg.Execs)
		for _, msg := range dyn.panics {
			report("panic", model, "%s", msg)
		}
		cands := st.CandidateSet()
		for _, pr := range dyn.preds {
			if !cands[staticanalysis.Pair{L: pr.L, K: pr.K}] {
				report("predicate-escape", model,
					"dynamic predicate %v not in the %d static candidates", pr, len(st.Candidates))
			}
		}
		if em.Complete {
			for o := range dyn.outcomes {
				if !em.Outcomes[o] {
					report("phantom-outcome", model,
						"dynamic outcome %q not reachable per enumeration", o)
				}
			}
			for v := range dyn.violations {
				if !em.Violations[v] {
					report("phantom-violation", model,
						"dynamic violation %q not reachable per enumeration", v)
				}
			}
		}

		if !f.cfg.skipSynth {
			divs = append(divs, f.checkSynthesis(p, prog, idx, model, baseSeed, em, note)...)
		}
	}
	if violating {
		f.rep.Violating++
	}
	return divs
}

// checkSynthesis cross-checks core.Synthesize against the enumerator:
// unfixable is always a divergence, and a converged repair must leave no
// enumerable violation. The dynamic phase is probabilistic, so a failed
// sufficiency check earns one escalated retry (4× executions) before
// being reported.
func (f *fuzzer) checkSynthesis(p *Prog, prog *ir.Program, idx int, model memmodel.Model,
	seed int64, em *EnumResult, note func(string, ...any)) []*Divergence {
	var divs []*Divergence
	report := func(kind, format string, args ...any) {
		divs = append(divs, &Divergence{
			Index: idx, Kind: kind, Model: model,
			Detail: fmt.Sprintf(format, args...),
			Prog:   p, Source: p.Render(),
		})
	}

	run := func(execs, rounds int) (*core.Result, error) {
		return core.Synthesize(prog, f.synthConfig(model, seed, execs, rounds))
	}
	res, err := run(f.cfg.Execs, f.cfg.MaxRounds)
	if err != nil {
		report("synth-error", "%v", err)
		return divs
	}
	verdict := func(r *core.Result) (fixedOK bool, detail string) {
		switch r.Outcome {
		case core.OutcomeUnfixable:
			return false, "unfixable"
		case core.OutcomeConverged:
			fenced := em // no fences inserted: the repaired program is the input
			if len(r.Fences) > 0 {
				fenced = Enumerate(r.Program, model, f.cfg.Enum)
			}
			if fenced.Complete && fenced.HasViolation() {
				return false, fmt.Sprintf("converged with %d fence(s) but enumeration still violates: %s",
					len(r.Fences), strings.Join(fenced.SortedViolations(), "; "))
			}
			return true, ""
		default:
			return true, "" // inconclusive/aborted: soft
		}
	}
	ok, detail := verdict(res)
	if ok {
		if res.Outcome == core.OutcomeInconclusive || res.Outcome == core.OutcomeAborted {
			note("%v synthesis %v after %d rounds", model, res.Outcome, len(res.Rounds))
		}
		return divs
	}
	// Escalate once with a 4× budget: a thin sampling pass can both miss
	// real violations (falsely converging) and fail to gather enough
	// clauses. Only a reproducible failure is a divergence.
	f.rep.Escalated++
	res2, err := run(4*f.cfg.Execs, f.cfg.MaxRounds+4)
	if err != nil {
		report("synth-error", "escalated run: %v", err)
		return divs
	}
	ok2, detail2 := verdict(res2)
	if ok2 {
		note("%v synthesis needed an escalated budget (first: %s)", model, detail)
		return divs
	}
	if detail2 == "unfixable" {
		report("unfixable", "synthesis declared the program unfixable (example: %s)", res2.UnfixableExample)
		return divs
	}
	// Triage the reproducible under-fencing. Templates gate: their only
	// violating family is the critical cycle itself — a short schedule the
	// demonic scheduler hits with high probability — so converging past it
	// twice means synthesis (or the scheduler's distribution) is broken.
	// Random programs do not gate: an enumeration violation is reached by
	// concrete machine transitions, every machine path has positive
	// probability under the scheduler, and random programs can push the
	// residual into an arbitrarily deep tail (#27 of seed 1 needs
	// ~1e-3/exec luck twice).
	// That is the documented under-approximation of dynamic synthesis, so
	// it is counted and noted, with a reachability burst measuring how
	// deep the tail actually is.
	if p.Template {
		report("insufficient-fences", "template repair failed: %s", detail2)
		return divs
	}
	f.rep.SamplingMisses++
	if hit, burst := f.dynReachable(res2.Program, model, seed+9_999_991); hit {
		note("%v synthesis under-fenced (%s); residual reached within %d burst executions — sampling miss", model, detail2, burst)
	} else {
		note("%v synthesis under-fenced (%s); residual beyond a %d-execution burst — deep sampling tail", model, detail2, burst)
	}
	return divs
}

// dynReachable sweeps flush probabilities, both strategies, and the
// starvation discipline over a fresh seed block asking whether ANY
// violation of prog is dynamically reachable. It early-exits on the first
// hit and returns the executions spent. Execution i runs with seed
// seed+i; the sweep order is strategy, then starvation, then flush
// probability, reachBurst executions each.
func (f *fuzzer) dynReachable(prog *ir.Program, model memmodel.Model, seed int64) (found bool, execs int) {
	probs := []float64{0.05, 0.1, 0.3, 0.6}
	strats := []sched.Strategy{sched.Random, sched.Priority}
	const reachBurst = 75
	n := len(strats) * 2 * len(probs) * reachBurst
	optsFor := func(i int) sched.Options {
		cell := i / reachBurst // (strategy, starve, probability), probability fastest
		return sched.Options{
			Seed:      seed + int64(i),
			Strategy:  strats[cell/(2*len(probs))],
			FlushProb: probs[cell%len(probs)],
			MaxSteps:  f.cfg.Enum.MaxSteps,
			PORWindow: 64,
			Starve:    cell/len(probs)%2 == 1,
		}
	}
	hits := sched.RunBatch(context.Background(), prog, model, n, 1, nil, optsFor,
		func(_, _ int, _ interp.Observer, res *interp.Result, err *sched.ExecError) (bool, bool) {
			hit := err == nil && res.Violation != nil
			return hit, hit
		})
	for i, hit := range hits {
		if hit {
			return true, i + 1
		}
	}
	return false, n
}

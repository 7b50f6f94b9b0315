// Cross-phase execution caching. Two exact caches sit between the engine
// and Algorithm 1's verdict/trial logic:
//
//  1. The verdict memo: judging an execution (spec.CompleteOps + the
//     sequentialization search) is a pure function of the recorded
//     history, so each worker memoizes verdict-by-history. Round
//     executions under the demonic scheduler produce heavily recurring
//     histories, and the memo persists across rounds AND into the
//     validation pass — the sequentialization search runs once per
//     distinct history instead of once per execution.
//
//  2. The fence-touch outcome transfer: the validation and redundancy
//     passes greedily drop one fence at a time and re-run the same seed
//     block against programs differing only in which fences are present.
//     An execution that never reaches a fence is bit-identical with or
//     without it (same instruction sequence, same RNG draws, same
//     history), so its verdict transfers to every candidate program whose
//     dropped fences it never touched. Trials are compiled with
//     interp.CompileWatched, which records per seed the bitmask of fences
//     the execution reached; a trial then runs only the seeds whose
//     outcome the candidate could actually change. A fence that cannot be
//     watched — past the interp.MaxWatchLabels capacity of the mask, or
//     lost to an insertion-site collision — counts as touched by every
//     seed, so its trial runs the whole seed block. The validation pass
//     arms the baseline opportunistically: a failed drop early-stops
//     (no baseline cost), while a successful drop ran every must-run seed
//     clean, and those watched results become the baseline for every
//     later trial. The redundancy scan seeds the baseline from its
//     all-fences cleanliness check.
//
// Both caches are exact — they skip recomputation, never approximate it —
// so synthesis results are those of running every seed of every trial;
// the golden digests in testdata/golden_digests.txt, pinned when an
// uncached control path still existed, hold them to that.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/sched"
	"dfence/internal/spec"
	"dfence/internal/staticanalysis"
	"dfence/internal/synth"
	"dfence/internal/telemetry"
	"dfence/internal/trace"
)

// maxJudgeMemoEntries bounds each worker's verdict memo. At the cap the
// memo stops inserting (lookups keep working), so a pathological workload
// with unbounded distinct histories degrades to one full check plus one
// map probe per execution instead of growing without bound.
const maxJudgeMemoEntries = 1 << 16

// judgeCache is one worker's verdict memo. It is owned by the reduce
// calls of a single batch worker index (the worker-ownership invariant in
// sched/batch.go), so no locking is needed; a slice of them indexed by
// worker is shared across every batch of one synthesis, which is what
// carries hits across rounds and into the validation trials.
type judgeCache struct {
	memo map[string]verdict
	key  []byte // scratch for the alloc-free map[string(bytes)] probe
	// ck owns the reusable checker state (memo table, partition buffers,
	// recycled spec states) that makes cache misses cheap too.
	ck           spec.Checker
	hits, misses int64
}

// newJudgeCaches returns one verdict memo per worker.
func newJudgeCaches(cfg *Config) []judgeCache {
	return make([]judgeCache, cfg.Workers)
}

// tally adds the caches' hit/miss counters to the result.
func tallyJudgeCaches(jcs []judgeCache, result *Result) {
	for i := range jcs {
		result.CacheHits += int(jcs[i].hits)
		result.CacheMisses += int(jcs[i].misses)
	}
}

// judge classifies one execution against the configuration's
// specification on a throwaway checker — for the witness re-run, which
// happens outside the batch workers and their memos.
func judge(cfg *Config, res *interp.Result) verdict {
	if res.StepLimitHit || res.TimedOut {
		return verdictInconclusive
	}
	if res.Violation != nil {
		return verdictViolation
	}
	return judgeMiss(cfg, &judgeCache{}, res)
}

// lookup is what judging one execution asked of the verdict memo.
type lookup uint8

const (
	noLookup   lookup = iota // classified from the result alone
	lookupHit                // answered by the memo
	lookupMiss               // checked, then memoized
)

// judgeWorker is judge with the calling worker's verdict memo, counting
// the memo lookup at once.
func judgeWorker(cfg *Config, jcs []judgeCache, worker int, res *interp.Result) verdict {
	v, l := judgeMemo(cfg, &jcs[worker], res)
	countLookup(cfg, jcs, worker, l)
	return v
}

// judgeMemo is judge with the verdict memo jc, reporting the lookup it
// made without counting it. The memo only covers the history check:
// step-limited, timed-out, and interpreter-detected violations are
// classified directly from the result.
func judgeMemo(cfg *Config, jc *judgeCache, res *interp.Result) (verdict, lookup) {
	if res.StepLimitHit || res.TimedOut || res.Violation != nil {
		return judge(cfg, res), noLookup
	}
	jc.key = appendHistoryKey(jc.key[:0], res.History)
	if v, ok := jc.memo[string(jc.key)]; ok {
		return v, lookupHit
	}
	v := judgeMiss(cfg, jc, res)
	if jc.memo == nil {
		jc.memo = make(map[string]verdict, 256)
	}
	if len(jc.memo) < maxJudgeMemoEntries {
		jc.memo[string(jc.key)] = v
	}
	return v, lookupMiss
}

// countLookup records one memo lookup of worker in its cache counters,
// the metrics and the trace.
func countLookup(cfg *Config, jcs []judgeCache, worker int, l lookup) {
	switch l {
	case lookupHit:
		jcs[worker].hits++
		cfg.mv.CacheHits.Inc(worker)
		cfg.Tracer.InstantSampled(worker+1, trace.InstantCacheHit, 0, 0)
	case lookupMiss:
		jcs[worker].misses++
		cfg.mv.CacheMisses.Inc(worker)
	}
}

// judgeMiss runs the history check on jc's reusable Checker.
func judgeMiss(cfg *Config, jc *judgeCache, res *interp.Result) verdict {
	ops := jc.ck.CompleteOps(res.History)
	if cfg.RelaxStealAborts {
		ops = jc.ck.RelaxStealAborts(ops)
	}
	if jc.ck.Check(cfg.Criterion, ops, cfg.NewSpec, cfg.CheckGarbage) {
		return verdictClean
	}
	return verdictViolation
}

// appendHistoryKey serializes a history into dst as a memo key. The
// encoding is injective (op names are NUL-terminated, counts are
// explicit), so two executions share a key exactly when their observable
// histories are identical — the condition under which the verdict is
// guaranteed equal.
func appendHistoryKey(dst []byte, evs []interp.Event) []byte {
	for _, e := range evs {
		dst = append(dst, byte(e.Kind))
		dst = binary.AppendVarint(dst, int64(e.Thread))
		dst = append(dst, e.Op...)
		dst = append(dst, 0)
		dst = binary.AppendVarint(dst, int64(len(e.Args)))
		for _, a := range e.Args {
			dst = binary.AppendVarint(dst, a)
		}
		if e.HasRet {
			dst = append(dst, 1)
			dst = binary.AppendVarint(dst, e.Ret)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// --- fence-touch outcome transfer ---

// trialOut records one watched trial execution: whether it ran (an
// early-stopped batch leaves unstarted slots), whether it panicked or
// violated, the watch-order bitmask of fences it reached, and the memo
// lookup judging it made on which worker.
type trialOut struct {
	ran      bool
	panicked bool
	violated bool
	mask     uint64
	lookup   lookup
	worker   int
}

// watchedBatch runs the executions seeds[k] (k in order) of the watched
// compile c and reports, per seed, the violation verdict and the touched
// bitmask. With stopEarly the first violation stops the rest — callers
// use the full per-seed data only when no violation was found, in which
// case every slot completed. Executions, panics, violations and memo
// lookups are counted for the slots the serial run judges, up to the
// first violation: slots past it run only when other workers had already
// started them, so counting them would make the totals depend on the
// worker count.
func watchedBatch(c *interp.Compiled, cfg *Config, jcs []judgeCache, seeds []int, optsFor func(i int) sched.Options, stopEarly bool) []trialOut {
	out := sched.RunBatchCompiled(context.Background(), c, cfg.Model, len(seeds), cfg.Workers, nil,
		func(k int) sched.Options { return optsFor(seeds[k]) },
		func(k, worker int, _ interp.Observer, res *interp.Result, err *sched.ExecError) (trialOut, bool) {
			if err != nil {
				// The touched mask of a panicked execution is unknowable, so
				// report every fence touched: the seed is re-run in every
				// trial.
				return trialOut{ran: true, panicked: true, mask: ^uint64(0), worker: worker}, false
			}
			v, l := judgeMemo(cfg, &jcs[worker], res)
			violated := v == verdictViolation
			o := trialOut{ran: true, violated: violated, mask: res.FenceTouched, lookup: l, worker: worker}
			return o, violated && stopEarly
		})
	for _, o := range out {
		cfg.mv.Executions.Inc(o.worker)
		if o.panicked {
			cfg.mv.Panics.Inc(o.worker)
		}
		countLookup(cfg, jcs, o.worker, o.lookup)
		if o.violated {
			cfg.mv.Violations.Inc(o.worker)
			if stopEarly {
				break
			}
		}
	}
	return out
}

// baseEntry is the baseline record of one trial seed: whether the
// current fence set's execution at that seed is known (and clean — only
// clean runs are recorded), and the canonical mask (bit = fence's index
// in the original fence list) of watched fences it reached. Unknown seeds
// are must-run for every trial.
type baseEntry struct {
	known   bool
	touched uint64
}

// fenceTrialCache drives the outcome transfer for one greedy
// fence-dropping pass. Fences are identified by their index in the
// original list (the canonical bit), which stays stable as the kept set
// shrinks; only canonical bits below interp.MaxWatchLabels are watched.
type fenceTrialCache struct {
	cfg     *Config
	jcs     []judgeCache
	optsFor func(i int) sched.Options
	base    []baseEntry
	// skipped counts executions whose verdict transferred from the
	// baseline instead of running.
	skipped int
}

func newFenceTrialCache(cfg *Config, jcs []judgeCache, budget int, optsFor func(i int) sched.Options) *fenceTrialCache {
	return &fenceTrialCache{cfg: cfg, jcs: jcs, optsFor: optsFor, base: make([]baseEntry, budget)}
}

// watchable reports whether canonical fence bit fits the touched mask.
func watchable(bit int) bool { return bit < interp.MaxWatchLabels }

// canonicalize maps a watch-order touched mask to canonical fence bits.
func canonicalize(mask uint64, bits []int) uint64 {
	var out uint64
	for w, bit := range bits {
		if mask&(1<<uint(w)) != 0 {
			out |= 1 << uint(bit)
		}
	}
	return out
}

// mustRun returns the seeds whose verdict dropping canonical fence bit
// could change: seeds with no baseline record yet, and clean runs that
// reached the fence. Every other seed's execution is bit-identical under
// the candidate, so its clean verdict transfers. An unwatchable fence
// counts as touched by every seed.
func (fc *fenceTrialCache) mustRun(bit int) []int {
	var seeds []int
	for k, b := range fc.base {
		if !watchable(bit) || !b.known || b.touched&(1<<uint(bit)) != 0 {
			seeds = append(seeds, k)
		}
	}
	return seeds
}

// everySeed returns the whole seed block.
func (fc *fenceTrialCache) everySeed() []int {
	seeds := make([]int, len(fc.base))
	for k := range seeds {
		seeds[k] = k
	}
	return seeds
}

// trialCompile is a candidate program compiled for one trial: bits[w] is
// the canonical bit of watch index w. watched is false when the watch
// mapping is incomplete (an insertion-site collision skipped a fence), in
// which case the trial runs the whole seed block and records no baseline.
type trialCompile struct {
	c       *interp.Compiled
	bits    []int
	watched bool
}

// trial reports whether dropping canonical fence bit from the current set
// exposes a violation. compile builds the candidate and is called only
// when some seed must run. A violated trial leaves the baseline untouched
// (its partial results describe a program that is not becoming the kept
// set). A clean trial ran every must-run seed, the drop succeeds, and the
// candidate becomes the new kept set — so the trial's own watched results
// refresh the baseline entries of the seeds that ran, while the
// transferred seeds' entries stay valid verbatim (their executions are
// bit-identical under the new set and their masks cannot contain the
// dropped bit). This is what arms the cache without a dedicated baseline
// pass in validation.
func (fc *fenceTrialCache) trial(bit int, compile func() (trialCompile, error)) (violated bool, err error) {
	seeds := fc.mustRun(bit)
	if len(seeds) == 0 {
		fc.skipped += len(fc.base)
		return false, nil
	}
	tc, err := compile()
	if err != nil {
		return false, err
	}
	if !tc.watched {
		seeds = fc.everySeed()
	}
	fc.skipped += len(fc.base) - len(seeds)
	out := watchedBatch(tc.c, fc.cfg, fc.jcs, seeds, fc.optsFor, true)
	for _, o := range out {
		if o.ran && o.violated {
			return true, nil
		}
	}
	for k, o := range out {
		fc.base[seeds[k]] = baseEntry{known: tc.watched, touched: canonicalize(o.mask, tc.bits)}
	}
	return false, nil
}

// validateFences greedily removes synthesized fences whose absence no
// longer produces violations, rebuilding the result program from the
// original plus the surviving fences. Validation runs use a disjoint seed
// block so fences are not kept merely because the synthesis schedules
// recur; each trial's any-violation verdict covers that whole block, with
// provably unchanged executions answered from the baseline.
func validateFences(orig *ir.Program, cfg *Config, result *Result, jcs []judgeCache) error {
	seedBase := cfg.Seed + 1_000_003
	fc := newFenceTrialCache(cfg, jcs, cfg.ValidateExecs, func(i int) sched.Options {
		return trialOpts(cfg, seedBase, i)
	})
	// kept[j] pairs each surviving fence with its canonical bit (index in
	// the original Fences list).
	type keptFence struct {
		f   synth.InsertedFence
		bit int
	}
	kept := make([]keptFence, len(result.Fences))
	for i, f := range result.Fences {
		kept[i] = keptFence{f: f, bit: i}
	}
	fences := func(ks []keptFence) []synth.InsertedFence {
		ins := make([]synth.InsertedFence, len(ks))
		for j, k := range ks {
			ins[j] = k.f
		}
		return ins
	}

	// Try dropping fences newest-first: later rounds react to rarer
	// violations and are the likelier over-fit.
	for i := len(kept) - 1; i >= 0; i-- {
		candidate := append(append([]keptFence(nil), kept[:i]...), kept[i+1:]...)
		violated, err := fc.trial(kept[i].bit, func() (trialCompile, error) {
			p := orig.Clone()
			final, err := synth.InsertFences(p, fences(candidate))
			if err != nil {
				return trialCompile{}, err
			}
			tc := trialCompile{watched: len(final) == len(candidate)}
			var watch []ir.Label
			if tc.watched {
				for j, f := range final {
					if watchable(candidate[j].bit) {
						watch = append(watch, f.Label)
						tc.bits = append(tc.bits, candidate[j].bit)
					}
				}
			}
			tc.c, err = interp.CompileWatched(p, watch)
			return tc, err
		})
		if err != nil {
			return err
		}
		if violated {
			continue // a violation needs this fence: keep it
		}
		dropped := kept[i].f
		kept = candidate
		result.Redundant++
		telemetry.Emit(cfg.sink, telemetry.FenceChange{
			Action: "drop-redundant",
			Fences: telemetry.FencesOf([]synth.InsertedFence{dropped}),
		})
	}

	p := orig.Clone()
	final, err := synth.InsertFences(p, fences(kept))
	if err != nil {
		return err
	}
	result.Program = p
	result.Fences = final
	result.CacheHits += fc.skipped
	cfg.mv.CacheHits.Add(0, int64(fc.skipped))
	return nil
}

// findRedundant is FindRedundantFences' greedy loop: fences are tried
// newest-first, each trial runs over the same seed block, and provably
// unchanged executions are answered from the baseline.
func findRedundant(prog *ir.Program, cfg *Config, jcs []judgeCache, execsPerFence int) ([]ir.Label, error) {
	kept := prog.Fences()
	fc := newFenceTrialCache(cfg, jcs, execsPerFence, func(i int) sched.Options {
		return trialOpts(cfg, cfg.Seed, i)
	})
	// watchSurvivors returns the watchable fences of kept other than skip
	// and those already redundant, with their canonical bits.
	isRedundant := make([]bool, len(kept))
	watchSurvivors := func(skip int) (watch []ir.Label, bits []int) {
		for j, l := range kept {
			if j != skip && !isRedundant[j] && watchable(j) {
				watch = append(watch, l)
				bits = append(bits, j)
			}
		}
		return watch, bits
	}

	// The all-fences baseline doubles as the initial cleanliness check.
	watch, bits := watchSurvivors(-1)
	baseC, err := interp.CompileWatched(prog, watch)
	if err != nil {
		return nil, err
	}
	out := watchedBatch(baseC, cfg, jcs, fc.everySeed(), fc.optsFor, false)
	for k, o := range out {
		if o.violated {
			return nil, errors.New("core: program violates its specification even with all fences present")
		}
		fc.base[k] = baseEntry{known: true, touched: canonicalize(o.mask, bits)}
	}

	var redundant []ir.Label
	for i := len(kept) - 1; i >= 0; i-- {
		// Try without fence i (and without those already found redundant).
		trial := prog.Clone()
		removeFences(trial, append(append([]ir.Label(nil), redundant...), kept[i]))
		if err := staticanalysis.Verify(trial); err != nil {
			return nil, fmt.Errorf("core: program failed verification after fence removal: %w", err)
		}
		violated, err := fc.trial(i, func() (trialCompile, error) {
			// Labels are stable across Clone, and removeFences leaves other
			// fences' labels untouched.
			watch, bits := watchSurvivors(i)
			c, err := interp.CompileWatched(trial, watch)
			return trialCompile{c: c, bits: bits, watched: true}, err
		})
		if err != nil {
			return nil, err
		}
		if !violated {
			redundant = append(redundant, kept[i])
			isRedundant[i] = true
		}
	}
	return redundant, nil
}

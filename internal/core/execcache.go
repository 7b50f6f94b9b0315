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
//  2. The fence-touch outcome transfer: validation and the redundancy
//     scan are one greedy loop (dropRedundant) that drops one fence at a
//     time from the fenced program and re-runs the same seed block
//     against candidates differing only in which fences are present.
//     An execution that never reaches a fence is bit-identical with or
//     without it (same instruction sequence, same RNG draws, same
//     history), so its verdict transfers to every candidate program whose
//     dropped fences it never touched. Trials are compiled with
//     interp.CompileWatched, which records per seed the bitmask of fences
//     the execution reached; a trial then runs only the seeds whose
//     outcome the candidate could actually change. A fence past the
//     interp.MaxWatchLabels capacity of the mask cannot be watched and
//     counts as touched by every seed, so its trial runs the whole seed
//     block. The validation pass arms the baseline opportunistically: a
//     failed drop early-stops (no baseline cost), while a successful drop
//     ran every must-run seed clean, and those watched results become the
//     baseline for every later trial. The redundancy scan seeds the
//     baseline from its all-fences cleanliness check.
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

// trialOut records one watched execution: whether it ran (an
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

// watchedBatch runs n executions of the watched compile c, execution k
// with optsFor(k), and reports per execution the violation verdict and
// the touched bitmask. With stopEarly the first violation stops the rest
// — callers use the full per-execution data only when no violation was
// found, in which case every slot completed. Executions, panics,
// violations (each with its worker-lane trace instant) and memo lookups
// are counted for the slots the serial run judges, up to the first
// violation: slots past it run only when other workers had already
// started them, so counting them would make the totals depend on the
// worker count.
func watchedBatch(c *interp.Compiled, cfg *Config, jcs []judgeCache, n int, optsFor func(k int) sched.Options, stopEarly bool) []trialOut {
	out := sched.RunBatchCompiled(context.Background(), c, cfg.Model, n, cfg.Workers, nil, optsFor,
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
			cfg.Tracer.Instant(o.worker+1, trace.InstantViolation, 0, 0)
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

// survivors splits fences for a candidate program: gone lists the fences
// it removes — fences[skip] and the dropped ones — and watch the
// watchable rest, bits[w] being the canonical bit of watch index w.
func survivors(fences []ir.Label, dropped []bool, skip int) (gone, watch []ir.Label, bits []int) {
	for j, l := range fences {
		switch {
		case j == skip || dropped[j]:
			gone = append(gone, l)
		case watchable(j):
			watch = append(watch, l)
			bits = append(bits, j)
		}
	}
	return gone, watch, bits
}

// trial reports whether removing fences[i] from prog, on top of the
// fences already dropped, exposes a violation. The candidate — a clone
// of prog without those fences, verified and compiled watching its
// watchable survivors — is built only when some seed must run. Labels
// are stable across Clone, and removeFences leaves the other fences'
// labels untouched, so the watch list names the survivors directly.
//
// A violated trial leaves the baseline untouched (its partial results
// describe a program that is not becoming the kept set). A clean trial
// ran every must-run seed, the drop succeeds, and the candidate becomes
// the new kept set — so the trial's own watched results refresh the
// baseline entries of the seeds that ran, while the transferred seeds'
// entries stay valid verbatim (their executions are bit-identical under
// the new set and their masks cannot contain the dropped bit). This is
// what arms the cache without a dedicated baseline pass in validation.
func (fc *fenceTrialCache) trial(prog *ir.Program, fences []ir.Label, dropped []bool, i int) (violated bool, err error) {
	seeds := fc.mustRun(i)
	fc.skipped += len(fc.base) - len(seeds)
	if len(seeds) == 0 {
		return false, nil
	}
	cand := prog.Clone()
	gone, watch, bits := survivors(fences, dropped, i)
	removeFences(cand, gone)
	if err := staticanalysis.Verify(cand); err != nil {
		return false, fmt.Errorf("core: program failed verification after fence removal: %w", err)
	}
	c, err := interp.CompileWatched(cand, watch)
	if err != nil {
		return false, err
	}
	out := watchedBatch(c, fc.cfg, fc.jcs, len(seeds), func(k int) sched.Options { return fc.optsFor(seeds[k]) }, true)
	for _, o := range out {
		if o.ran && o.violated {
			return true, nil
		}
	}
	for k, o := range out {
		fc.base[seeds[k]] = baseEntry{known: true, touched: canonicalize(o.mask, bits)}
	}
	return false, nil
}

// dropRedundant is the greedy loop validation and the redundancy scan
// share. fences label fence instructions of prog, each identified by its
// index (its canonical bit). They are tried newest-first — later rounds
// react to rarer violations and are the likelier over-fit — and a fence
// whose removal, together with the fences already dropped, exposes no
// violation over fc's seed block is dropped; dropped[i] reports it.
func dropRedundant(prog *ir.Program, fences []ir.Label, fc *fenceTrialCache) ([]bool, error) {
	dropped := make([]bool, len(fences))
	for i := len(fences) - 1; i >= 0; i-- {
		violated, err := fc.trial(prog, fences, dropped, i)
		if err != nil {
			return nil, err
		}
		dropped[i] = !violated
	}
	return dropped, nil
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
	labels := make([]ir.Label, len(result.Fences))
	for i, f := range result.Fences {
		labels[i] = f.Label
	}
	dropped, err := dropRedundant(result.Program, labels, fc)
	if err != nil {
		return err
	}
	for i := len(result.Fences) - 1; i >= 0; i-- {
		if dropped[i] {
			result.Redundant++
			telemetry.Emit(cfg.sink, telemetry.FenceChange{
				Action: "drop-redundant",
				Fences: telemetry.FencesOf(result.Fences[i : i+1]),
			})
		}
	}
	var kept []synth.InsertedFence
	for i, f := range result.Fences {
		if !dropped[i] {
			kept = append(kept, f)
		}
	}

	p := orig.Clone()
	final, err := synth.InsertFences(p, kept)
	if err != nil {
		return err
	}
	result.Program = p
	result.Fences = final
	result.CacheHits += fc.skipped
	cfg.mv.CacheHits.Add(0, int64(fc.skipped))
	return nil
}

// findRedundant is FindRedundantFences' pass: after a cleanliness check
// of the program with every fence present, which also arms the baseline,
// it runs the greedy loop over prog's fences and returns the dropped
// ones, newest first.
func findRedundant(prog *ir.Program, cfg *Config, jcs []judgeCache, execsPerFence int) ([]ir.Label, error) {
	fences := prog.Fences()
	fc := newFenceTrialCache(cfg, jcs, execsPerFence, func(i int) sched.Options {
		return trialOpts(cfg, cfg.Seed, i)
	})
	_, watch, bits := survivors(fences, make([]bool, len(fences)), -1)
	c, err := interp.CompileWatched(prog, watch)
	if err != nil {
		return nil, err
	}
	for k, o := range watchedBatch(c, cfg, jcs, len(fc.base), fc.optsFor, false) {
		if o.violated {
			return nil, errors.New("core: program violates its specification even with all fences present")
		}
		fc.base[k] = baseEntry{known: true, touched: canonicalize(o.mask, bits)}
	}

	dropped, err := dropRedundant(prog, fences, fc)
	if err != nil {
		return nil, err
	}
	var redundant []ir.Label
	for i := len(fences) - 1; i >= 0; i-- {
		if dropped[i] {
			redundant = append(redundant, fences[i])
		}
	}
	return redundant, nil
}

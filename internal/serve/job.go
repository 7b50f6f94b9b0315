// Job specification and construction: how a dfenced HTTP submission
// becomes a run description (a telemetry.RunStart, which core.Load turns
// into a program and core.Config), and how a finished run is summarized
// back to the client and the memo store.
package serve

import (
	"fmt"
	"hash/fnv"
	"time"

	"dfence/internal/core"
	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/telemetry"
)

// JobSpec is the client-facing description of one synthesis job — the
// same knobs `dfence` exposes as flags, minus anything that does not
// affect the result (introspection, profiling). Exactly one of Source
// and Builtin must be set.
type JobSpec struct {
	// Source is mini-C program text; Builtin names a built-in benchmark.
	Source  string `json:"source,omitempty"`
	Builtin string `json:"builtin,omitempty"`
	// Model is the memory model: sc, tso, pso. Default pso.
	Model string `json:"model,omitempty"`
	// Criterion is safety, sc, or lin. Default safety; sc/lin need a
	// sequential specification (SeqSpec, or the builtin's own).
	Criterion string `json:"criterion,omitempty"`
	// SeqSpec names the sequential specification for sc/lin source jobs
	// (deque, wsq-lifo, wsq-fifo, queue, set, alloc).
	SeqSpec string `json:"seq_spec,omitempty"`
	// Seed, Execs (K), Rounds, FlushProb: the synthesis budgets. Defaults
	// 1, 1000, 10, model-specific flush probability.
	Seed      int64   `json:"seed,omitempty"`
	Execs     int     `json:"execs,omitempty"`
	Rounds    int     `json:"rounds,omitempty"`
	FlushProb float64 `json:"flush_prob,omitempty"`
	// NoValidate skips the post-convergence redundant-fence pruning pass
	// (validation is on by default, like the CLI's -validate).
	NoValidate bool `json:"no_validate,omitempty"`
	// Static consults the static delay-set analysis (the CLI's -static).
	Static bool `json:"static,omitempty"`
	// Workers is the per-job execution parallelism (0 = NumCPU). It does
	// not affect the result and is excluded from the memo key.
	Workers int `json:"workers,omitempty"`
}

func (js *JobSpec) normalize() error {
	if (js.Source == "") == (js.Builtin == "") {
		return fmt.Errorf("exactly one of source and builtin must be set")
	}
	if js.Model == "" {
		js.Model = "pso"
	}
	if js.Criterion == "" {
		js.Criterion = "safety"
	}
	if js.Seed == 0 {
		js.Seed = 1
	}
	if js.Execs <= 0 {
		js.Execs = 1000
	}
	if js.Rounds <= 0 {
		js.Rounds = 10
	}
	return nil
}

// build compiles the spec into a runnable program + config and the
// RunStart event a fresh journal opens with — the run description both
// are loaded from (core.Load). The config carries no Sink, Interrupt, or
// Resume — the job runner wires those per attempt.
func (js *JobSpec) build() (prog *ir.Program, cfg core.Config, start telemetry.RunStart, err error) {
	if err = js.normalize(); err != nil {
		return
	}
	model, err := memmodel.ParseModel(js.Model)
	if err != nil {
		return
	}
	start = telemetry.RunStart{
		Model:     model.String(),
		Criterion: js.Criterion,
		SeqSpec:   js.SeqSpec,
		Seed:      js.Seed,
		Execs:     js.Execs,
		MaxRounds: js.Rounds,
		FlushProb: core.EffectiveFlushProb(js.FlushProb, model),
		Workers:   js.Workers,
		Source:    js.Source,
		Builtin:   js.Builtin,
		Validate:  !js.NoValidate,
		Static:    js.Static,
	}
	prog, cfg, err = core.Load(&start)
	return
}

// memoKey fingerprints everything the synthesis result is a function of:
// the compiled program's executable content and the determinism-relevant
// configuration. Workers is deliberately excluded — results are
// bit-identical for every worker count (the engine's determinism
// contract), so a job submitted with a different parallelism still hits
// the memo.
func memoKey(prog *ir.Program, start telemetry.RunStart) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|%s|%s|%s|%d|%d|%d|%g|%v|%v",
		interp.Compile(prog).Fingerprint(),
		start.Model, start.Criterion, start.SeqSpec,
		start.Seed, start.Execs, start.MaxRounds, start.FlushProb,
		start.Validate, start.Static)
	return fmt.Sprintf("%016x", h.Sum64())
}

// JobState is a job's lifecycle position.
type JobState string

const (
	// StateQueued: waiting for a worker (fresh, requeued after a drain or
	// crash, or waiting out a retry backoff).
	StateQueued JobState = "queued"
	// StateRunning: a worker is executing the synthesis.
	StateRunning JobState = "running"
	// StateDone: synthesis finished with a terminal outcome (converged,
	// unfixable, or inconclusive are all "done" — the job ran; what the
	// run concluded is in Result.Outcome).
	StateDone JobState = "done"
	// StateFailed: the job can never succeed (compile error, invalid
	// spec, deterministic synthesis error) — retrying is pointless.
	StateFailed JobState = "failed"
	// StateQuarantined: the job failed transiently MaxAttempts times and
	// is parked for operator inspection rather than retried forever.
	StateQuarantined JobState = "quarantined"
)

func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateQuarantined
}

// JobResult is the client-facing digest of a finished run — also the memo
// store's value, so a memo hit reproduces exactly what the original job
// reported.
type JobResult struct {
	Outcome           string            `json:"outcome"`
	Fences            []telemetry.Fence `json:"fences,omitempty"`
	SynthesizedFences int               `json:"synthesized_fences,omitempty"`
	Redundant         int               `json:"redundant,omitempty"`
	Rounds            int               `json:"rounds"`
	TotalExecutions   int               `json:"total_executions"`
	Unfixable         bool              `json:"unfixable,omitempty"`
	StaticallyRobust  bool              `json:"statically_robust,omitempty"`
	Summary           string            `json:"summary"`
}

func resultDigest(res *core.Result) *JobResult {
	return &JobResult{
		Outcome:           res.Outcome.String(),
		Fences:            telemetry.FencesOf(res.Fences),
		SynthesizedFences: res.SynthesizedFences,
		Redundant:         res.Redundant,
		Rounds:            len(res.Rounds),
		TotalExecutions:   res.TotalExecutions,
		Unfixable:         res.Unfixable,
		StaticallyRobust:  res.StaticallyRobust,
		Summary:           res.Summary(),
	}
}

// Job is the durable record of one submission: the spool persists exactly
// this struct as jobs/<id>.json, so a restarted dfenced re-discovers the
// full lifecycle state.
type Job struct {
	ID    string   `json:"id"`
	Spec  JobSpec  `json:"spec"`
	State JobState `json:"state"`
	// Attempts counts runs that ended in a transient failure. A graceful
	// drain or crash does not increment it — interrupted work is not a
	// failure.
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// MemoKey is the result-identity fingerprint (set once the spec has
	// been built successfully). FromMemo marks a job answered from the
	// memo store without running.
	MemoKey  string     `json:"memo_key,omitempty"`
	FromMemo bool       `json:"from_memo,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
	// NextRetry is when a backoff-delayed requeue fires (diagnostic).
	NextRetry  time.Time `json:"next_retry,omitempty"`
	SubmitTime time.Time `json:"submit_time"`
	UpdateTime time.Time `json:"update_time"`
}

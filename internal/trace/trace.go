// Package trace is dfence's hierarchical span tracer: a timeline
// recorder for the synthesis pipeline (service job → run → round →
// phase {collect, solve, validate} → per-worker execution
// lanes) with instant events for violations, checkpoints, cache hits,
// and solver restarts. It exports Chrome trace-event JSON viewable in
// Perfetto (export.go), re-reads its own files strictly (read.go), and
// renders a terminal summary (summary.go) — the artifact that answers
// "where did this run spend its time" without a rerun.
//
// Like internal/telemetry, the tracer is provably inert when absent:
// every method tolerates a nil *Tracer (and the zero Span), costs one
// branch, and allocates nothing — the disabled hot path is bit-identical
// and allocation-free, which TestDisabledTracerZeroAlloc and core's
// TestTracingDisabledIdentical pin. When enabled it is bounded: span
// events land in fixed-size per-lane ring buffers (oldest overwritten,
// drops counted), and per-execution spans are sampled 1-in-SampleEvery —
// while per-portfolio-phase aggregates (executions, wall, scheduler
// iterations, machine steps, deferral spins) are exact, updated on every
// execution regardless of sampling. Long service jobs therefore trace in
// O(ring), not O(executions).
package trace

import (
	"runtime"
	"sync"
	"time"
)

// Name identifies a span or instant kind — the closed vocabulary the
// strict reader validates against.
type Name uint8

const (
	nameNone Name = iota
	// SpanJob wraps one service job attempt (dfenced).
	SpanJob
	// SpanRun wraps one core.Synthesize call.
	SpanRun
	// SpanRound wraps one repair round.
	SpanRound
	// SpanCollect is a round's execution batch plus formula merge.
	SpanCollect
	// SpanSolve is a round's minimal-model enumeration.
	SpanSolve
	// SpanValidate is the post-convergence fence validation pass.
	SpanValidate
	// SpanExec is one sampled execution on a worker lane.
	SpanExec
	// InstantViolation marks a violating execution (worker lane).
	InstantViolation
	// InstantCheckpoint marks a journaled round boundary.
	InstantCheckpoint
	// InstantCacheHit marks a sampled execution-cache verdict hit.
	InstantCacheHit
	// InstantSolverRestarts marks a solve whose CDCL search restarted;
	// the event's count carries how many times.
	InstantSolverRestarts
	nameCount
)

var nameStrings = [nameCount]string{
	nameNone:              "none",
	SpanJob:               "job",
	SpanRun:               "run",
	SpanRound:             "round",
	SpanCollect:           "collect",
	SpanSolve:             "solve",
	SpanValidate:          "validate",
	SpanExec:              "exec",
	InstantViolation:      "violation",
	InstantCheckpoint:     "checkpoint",
	InstantCacheHit:       "cache-hit",
	InstantSolverRestarts: "solver-restarts",
}

func (n Name) String() string {
	if int(n) < len(nameStrings) {
		return nameStrings[n]
	}
	return "name(?)"
}

// nameOf inverts Name.String — the strict reader's vocabulary check.
func nameOf(s string) (Name, bool) {
	for n := SpanJob; n < nameCount; n++ {
		if nameStrings[n] == s {
			return n, true
		}
	}
	return nameNone, false
}

// maxPortfolio bounds the per-lane portfolio-phase aggregate array; the
// scheduler portfolio cycles through at most 6 phases today (see
// core.portfolioPhases), with headroom for growth.
const maxPortfolio = 8

// Options configures a Tracer.
type Options struct {
	// Lanes is the number of worker lanes (the coordinator lane 0 is
	// always added on top). <= 0 selects runtime.NumCPU().
	Lanes int
	// RingSize is the per-lane event ring capacity; once full, the
	// oldest events are overwritten and counted as dropped. <= 0 selects
	// 4096.
	RingSize int
	// SampleEvery records one execution span per this many executions on
	// each lane (aggregates are always exact). <= 0 selects 8; 1 records
	// every execution.
	SampleEvery int
}

// event is one ring entry. dur < 0 marks an instant.
type event struct {
	start, dur          int64 // ns since the tracer epoch
	arg                 int64 // seed (exec spans) or count (instants)
	iters, steps, spins int64 // exec spans only
	round               int32 // 1-based; 0 = outside any round
	name                Name
	phase               uint8 // portfolio phase (exec spans only)
}

// PhaseAgg is the exact per-portfolio-phase execution aggregate one lane
// maintains: every execution lands here whether or not its span was
// sampled into the ring.
type PhaseAgg struct {
	Phase  int   `json:"phase"`
	Execs  int64 `json:"execs"`
	WallNS int64 `json:"wall_ns"`
	Iters  int64 `json:"iters"`
	Steps  int64 `json:"steps"`
	Spins  int64 `json:"spins"`
}

// lane is one ring buffer plus its aggregates. The mutex makes live
// snapshots (/tracez) safe against concurrent worker writes; workers
// never contend with each other — each lane is written by exactly one
// goroutine (the worker-ownership invariant of sched/batch.go).
type lane struct {
	mu       sync.Mutex
	ring     []event
	head     int // next write position
	n        int // occupied entries (<= len(ring))
	dropped  int64
	sampleCt int // executions since the last sampled span
	instCt   int // sampled-instant counter (cache hits)
	agg      [maxPortfolio]PhaseAgg
	_        [32]byte // pad lanes apart; workers write adjacent entries
}

// push appends one event, overwriting the oldest when full.
func (ln *lane) push(ev event) {
	if ln.n < len(ln.ring) {
		ln.ring[(ln.head+ln.n)%len(ln.ring)] = ev
		ln.n++
		return
	}
	ln.ring[ln.head] = ev
	ln.head = (ln.head + 1) % len(ln.ring)
	ln.dropped++
}

// Tracer records spans and instants into per-lane rings. Lane 0 is the
// coordinator (run/round/phase spans and cold instants); lanes 1..Lanes
// are worker execution lanes. All methods are safe on a nil receiver
// (no-ops) and safe for concurrent use.
type Tracer struct {
	opts  Options
	epoch time.Time
	lanes []*lane
}

// New creates a Tracer with opts' defaults filled.
func New(opts Options) *Tracer {
	if opts.Lanes <= 0 {
		opts.Lanes = runtime.NumCPU()
	}
	if opts.RingSize <= 0 {
		opts.RingSize = 4096
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 8
	}
	t := &Tracer{opts: opts, epoch: time.Now(), lanes: make([]*lane, opts.Lanes+1)}
	for i := range t.lanes {
		t.lanes[i] = &lane{ring: make([]event, opts.RingSize)}
	}
	return t
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// laneAt clamps an out-of-range lane index onto the last lane, so a
// batch run with more workers than configured lanes degrades to shared
// attribution instead of a panic.
func (t *Tracer) laneAt(i int) *lane {
	if i < 0 {
		i = 0
	}
	if i >= len(t.lanes) {
		i = len(t.lanes) - 1
	}
	return t.lanes[i]
}

// Span is an open span handle. The zero Span (and any span from a nil
// Tracer) is inert: End is a no-op. Spans are values — beginning and
// ending one allocates nothing.
type Span struct {
	t     *Tracer
	start int64
	lane  int32
	round int32
	name  Name
}

// Begin opens a span on the given lane. round is 1-based (0 = outside
// rounds). Nil-safe: a nil Tracer returns the inert zero Span.
func (t *Tracer) Begin(laneIdx int, name Name, round int) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, start: t.now(), lane: int32(laneIdx), round: int32(round), name: name}
}

// End closes the span and records it.
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := s.t.now()
	ln := s.t.laneAt(int(s.lane))
	ln.mu.Lock()
	ln.push(event{start: s.start, dur: end - s.start, round: s.round, name: s.name})
	ln.mu.Unlock()
}

// Instant records a point event (count is the event's payload: solver
// restarts, etc.). Nil-safe.
func (t *Tracer) Instant(laneIdx int, name Name, round int, count int64) {
	if t == nil {
		return
	}
	ln := t.laneAt(laneIdx)
	ts := t.now()
	ln.mu.Lock()
	ln.push(event{start: ts, dur: -1, arg: count, round: int32(round), name: name})
	ln.mu.Unlock()
}

// InstantSampled records a point event 1-in-SampleEvery times per lane —
// for instants that fire once per execution (cache hits), where the
// unsampled rate would flood the ring. Nil-safe.
func (t *Tracer) InstantSampled(laneIdx int, name Name, round int, count int64) {
	if t == nil {
		return
	}
	ln := t.laneAt(laneIdx)
	ts := t.now()
	ln.mu.Lock()
	ln.instCt++
	if ln.instCt >= t.opts.SampleEvery {
		ln.instCt = 0
		ln.push(event{start: ts, dur: -1, arg: count, round: int32(round), name: name})
	}
	ln.mu.Unlock()
}

// ExecDone records one finished execution on the given lane: the exact
// per-portfolio-phase aggregate always, plus a sampled SpanExec ring
// event for 1-in-SampleEvery executions. dur is the execution's wall
// time; iters/steps/spins come from the scheduler's Result. Nil-safe.
func (t *Tracer) ExecDone(laneIdx int, portfolio uint8, dur time.Duration, iters, steps, spins int, seed int64) {
	if t == nil {
		return
	}
	ln := t.laneAt(laneIdx)
	end := t.now()
	p := int(portfolio) % maxPortfolio
	ln.mu.Lock()
	a := &ln.agg[p]
	a.Execs++
	a.WallNS += int64(dur)
	a.Iters += int64(iters)
	a.Steps += int64(steps)
	a.Spins += int64(spins)
	ln.sampleCt++
	if ln.sampleCt >= t.opts.SampleEvery {
		ln.sampleCt = 0
		start := end - int64(dur)
		if start < 0 {
			start = 0 // dur predates the tracer epoch (clock skew)
		}
		ln.push(event{
			start: start, dur: int64(dur), arg: seed,
			iters: int64(iters), steps: int64(steps), spins: int64(spins),
			name: SpanExec, phase: uint8(p),
		})
	}
	ln.mu.Unlock()
}

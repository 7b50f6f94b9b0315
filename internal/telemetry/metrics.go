// Package telemetry is DFENCE's observability layer: a zero-dependency
// metrics registry wired into the synthesis hot paths, a structured JSONL
// run journal that records the story of a run (rounds, violations, repair
// disjunctions, solver results, fence changes), a violation-witness
// explainer that renders a schedule as a human-readable interleaving
// report, and an optional introspection HTTP server.
//
// Everything is opt-in and nil-safe: a nil *Metrics or nil Sink costs the
// instrumented code one branch per call site, so a run with telemetry
// disabled is benchmark-neutral. Two kinds of numbers feed the registry.
// Per-execution outcomes are counted on the hot path by the worker that
// ran the execution; counters and histograms are sharded per worker — the
// batch engine's worker index (see the worker-ownership invariant in
// sched/batch.go) selects the shard, so hot-path updates never contend —
// and shards are merged only on read, which keeps exported snapshots
// deterministic: the merge is a sum, so the same observations produce the
// same snapshot regardless of which worker recorded them. Round, solver
// and fence numbers are folded from the coordinator's journal events by
// Metrics.Emit — *Metrics is a Sink — so the journal, the metrics and the
// /runz view are one derivation of one event stream.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// pad is the cache-line padding appended to each shard so two workers'
// counters never share a line (the usual false-sharing mitigation).
type pad [56]byte

// shard is one worker's slot of a Counter.
type shard struct {
	v atomic.Int64
	_ pad
}

// Counter is a monotonically increasing metric sharded per worker. The
// nil Counter is a valid no-op, which is what makes instrumentation sites
// branch-cheap when telemetry is disabled.
type Counter struct {
	name, help string
	shards     []shard
}

// Add increments the counter by n on the given worker's shard. worker
// indexes past the shard count wrap around (correctness is unaffected;
// only contention changes). Safe on a nil Counter.
func (c *Counter) Add(worker int, n int64) {
	if c == nil || n == 0 {
		return
	}
	if worker < 0 {
		worker = 0
	}
	c.shards[worker%len(c.shards)].v.Add(n)
}

// Inc is Add(worker, 1).
func (c *Counter) Inc(worker int) { c.Add(worker, 1) }

// Value merges the shards and returns the counter's current total.
// Returns 0 on a nil Counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Gauge is a settable instantaneous value (single slot: gauges are
// updated from the coordinating goroutine, not the workers). The nil
// Gauge is a valid no-op.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores the gauge's value. Safe on a nil Gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the gauge's current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histShard is one worker's slot of a Histogram: one bucket counter per
// upper bound plus the overflow bucket, and the count/sum pair.
type histShard struct {
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sum     atomic.Int64
	_       pad
}

// Histogram is a bounded-bucket histogram of integer observations
// (steps, microseconds, ...), sharded per worker. Bucket bounds are fixed
// at registration, so recording is a binary search plus two atomic adds —
// no allocation, no lock. Quantiles (p50/p95/p99) are estimated from the
// merged buckets on read; the estimate is deterministic for a given
// multiset of observations because merging is a per-bucket sum.
type Histogram struct {
	name, help string
	bounds     []int64 // strictly increasing upper bounds (inclusive)
	shards     []histShard
}

// Observe records one value. Safe on a nil Histogram.
func (h *Histogram) Observe(worker int, v int64) {
	if h == nil {
		return
	}
	if worker < 0 {
		worker = 0
	}
	s := &h.shards[worker%len(h.shards)]
	// Binary search for the first bound >= v; misses land in +Inf.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.buckets[lo].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
}

// merge sums the shards into one bucket slice plus count and sum.
func (h *Histogram) merge() (buckets []int64, count, sum int64) {
	buckets = make([]int64, len(h.bounds)+1)
	for i := range h.shards {
		s := &h.shards[i]
		for b := range s.buckets {
			buckets[b] += s.buckets[b].Load()
		}
		count += s.count.Load()
		sum += s.sum.Load()
	}
	return buckets, count, sum
}

// quantile estimates the q-quantile (0 < q <= 1) from merged buckets: the
// upper bound of the first bucket whose cumulative count reaches
// ceil(q*count). The +Inf bucket reports the largest finite bound (the
// estimate is then a lower bound). Deterministic given the same merged
// buckets.
func quantile(bounds []int64, buckets []int64, count int64, q float64) int64 {
	if count == 0 {
		return 0
	}
	target := int64(q * float64(count))
	if float64(target) < q*float64(count) {
		target++
	}
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, b := range buckets {
		cum += b
		if cum >= target {
			if i < len(bounds) {
				return bounds[i]
			}
			break
		}
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// CounterSnap is one counter in a Snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a Snapshot.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSnap is one histogram in a Snapshot: merged buckets plus the
// p50/p95/p99 estimates.
type HistogramSnap struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"` // len(Bounds)+1; last is +Inf
	P50     int64   `json:"p50"`
	P95     int64   `json:"p95"`
	P99     int64   `json:"p99"`
}

// Snapshot is a point-in-time, merged view of a Registry, ordered by
// metric name — the deterministic export the /runz endpoint and the merge
// tests consume.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

// Registry owns a set of named metrics. Registration (NewCounter, ...) is
// not in any hot path and takes a lock; recording on the returned handles
// is lock-free. The zero worker count is clamped to 1.
type Registry struct {
	workers int

	mu       sync.Mutex
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	names    map[string]bool
}

// NewRegistry returns a registry whose counters and histograms carry one
// shard per worker.
func NewRegistry(workers int) *Registry {
	if workers < 1 {
		workers = 1
	}
	return &Registry{workers: workers, names: map[string]bool{}}
}

func (r *Registry) claim(name string) {
	if r.names[name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.names[name] = true
}

// NewCounter registers a counter. Panics on duplicate names.
func (r *Registry) NewCounter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	c := &Counter{name: name, help: help, shards: make([]shard, r.workers)}
	r.counters = append(r.counters, c)
	return c
}

// NewGauge registers a gauge. Panics on duplicate names.
func (r *Registry) NewGauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	g := &Gauge{name: name, help: help}
	r.gauges = append(r.gauges, g)
	return g
}

// NewHistogram registers a histogram with the given inclusive upper
// bounds (must be strictly increasing; a +Inf bucket is implicit).
// Panics on duplicate names or unsorted bounds.
func (r *Registry) NewHistogram(name, help string, bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly increasing", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	h := &Histogram{name: name, help: help, bounds: append([]int64(nil), bounds...)}
	h.shards = make([]histShard, r.workers)
	for i := range h.shards {
		h.shards[i].buckets = make([]atomic.Int64, len(bounds)+1)
	}
	r.hists = append(r.hists, h)
	return h
}

// Snapshot merges every metric's shards and returns the result sorted by
// name. Concurrent recording during a snapshot is safe; the snapshot is
// then a consistent-enough point-in-time view (each metric is summed
// atomically per shard).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	gauges := append([]*Gauge(nil), r.gauges...)
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()

	var s Snapshot
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterSnap{Name: c.name, Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: g.name, Value: g.Value()})
	}
	for _, h := range hists {
		buckets, count, sum := h.merge()
		s.Histograms = append(s.Histograms, HistogramSnap{
			Name:    h.name,
			Count:   count,
			Sum:     sum,
			Bounds:  append([]int64(nil), h.bounds...),
			Buckets: buckets,
			P50:     quantile(h.bounds, buckets, count, 0.50),
			P95:     quantile(h.bounds, buckets, count, 0.95),
			P99:     quantile(h.bounds, buckets, count, 0.99),
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteOpenMetrics renders the registry in OpenMetrics text format
// (counters, gauges, and histograms with cumulative buckets), ending with
// the required "# EOF" line. Metric names are emitted as registered;
// counters get the "_total" suffix the format mandates.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	snap := r.Snapshot()
	var b strings.Builder
	help := func(name, kind, h string) {
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind)
		if h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, h)
		}
	}
	helpFor := func(kind string, name string) string {
		r.mu.Lock()
		defer r.mu.Unlock()
		switch kind {
		case "counter":
			for _, c := range r.counters {
				if c.name == name {
					return c.help
				}
			}
		case "gauge":
			for _, g := range r.gauges {
				if g.name == name {
					return g.help
				}
			}
		default:
			for _, h := range r.hists {
				if h.name == name {
					return h.help
				}
			}
		}
		return ""
	}
	for _, c := range snap.Counters {
		help(c.Name, "counter", helpFor("counter", c.Name))
		fmt.Fprintf(&b, "%s_total %d\n", c.Name, c.Value)
	}
	for _, g := range snap.Gauges {
		help(g.Name, "gauge", helpFor("gauge", g.Name))
		fmt.Fprintf(&b, "%s %d\n", g.Name, g.Value)
	}
	for _, h := range snap.Histograms {
		help(h.Name, "histogram", helpFor("histogram", h.Name))
		var cum int64
		for i, bk := range h.Buckets {
			cum += bk
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprint(h.Bounds[i])
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", h.Name, le, cum)
		}
		fmt.Fprintf(&b, "%s_sum %d\n", h.Name, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", h.Name, h.Count)
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Metrics is the pre-registered handle bundle the synthesis loop records
// into — field access instead of name lookup keeps the hot path flat.
// Obtain one with NewMetrics; a nil *Metrics (telemetry disabled) is
// handled by View, whose zero value makes every handle a nil no-op.
//
// The per-execution and cache handles are fed by the worker hot paths.
// The round, solver and fence handles are fed only by Emit, which folds
// the coordinator's journal events; attaching a *Metrics to a run is
// therefore also attaching it as a Sink.
type Metrics struct {
	Registry *Registry

	// Per-execution outcome counters (core's reduce path).
	Executions   *Counter
	Violations   *Counter
	Clean        *Counter
	Inconclusive *Counter
	Timeouts     *Counter // wall-clock cut executions (subset of Inconclusive)
	Panics       *Counter // recovered interpreter/observer panics
	Skipped      *Counter // executions never started (deadline/round cut)

	// Execution-cache counters (the verdict memo + fence-touch transfer).
	CacheHits   *Counter
	CacheMisses *Counter

	// Round / repair-loop counters.
	Rounds           *Counter
	CurrentRound     *Gauge
	Predicates       *Counter // distinct predicates entering φ per round
	PrunedPredicates *Counter // predicates discarded by the static prune

	// Solver counters (sat.Stats per minimal-model enumeration).
	SolverModels       *Counter
	SolverConflicts    *Counter
	SolverDecisions    *Counter
	SolverPropagations *Counter
	SolverRestarts     *Counter
	SolverClauses      *Counter

	// Fence lifecycle.
	FencesInserted *Counter
	FencesRemoved  *Counter // validation + merge removals

	// Distributions.
	ExecSteps    *Histogram // interpreter steps per execution
	RoundWallUS  *Histogram // round execution batch + formula merge, microseconds
	SolverWallUS *Histogram // solver enumeration wall time, microseconds

	// run folds the /runz fields no metric carries. A pointer, so the
	// copies View hands out share it.
	run *runFold
}

// NewMetrics registers the standard DFENCE metric set on reg.
func NewMetrics(reg *Registry) *Metrics {
	stepBounds := []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}
	wallBounds := []int64{100, 500, 1000, 5000, 10000, 50000, 100000, 500000, 1000000, 5000000, 10000000}
	return &Metrics{
		Registry:           reg,
		Executions:         reg.NewCounter("dfence_executions", "program executions performed"),
		Violations:         reg.NewCounter("dfence_violations", "executions that violated the specification"),
		Clean:              reg.NewCounter("dfence_clean_executions", "executions that satisfied the specification"),
		Inconclusive:       reg.NewCounter("dfence_inconclusive_executions", "executions cut off before a verdict"),
		Timeouts:           reg.NewCounter("dfence_exec_timeouts", "executions cut by a wall-clock budget"),
		Panics:             reg.NewCounter("dfence_exec_panics", "recovered interpreter/observer panics"),
		Skipped:            reg.NewCounter("dfence_skipped_executions", "executions never started (round cut off)"),
		CacheHits:          reg.NewCounter("dfence_exec_cache_hits", "verdicts answered by the execution caches"),
		CacheMisses:        reg.NewCounter("dfence_exec_cache_misses", "verdicts computed afresh"),
		Rounds:             reg.NewCounter("dfence_rounds", "repair rounds completed"),
		CurrentRound:       reg.NewGauge("dfence_current_round", "repair round in progress (1-based)"),
		Predicates:         reg.NewCounter("dfence_predicates", "distinct ordering predicates entering the repair formula"),
		PrunedPredicates:   reg.NewCounter("dfence_pruned_predicates", "predicates discarded by the static delay-set prune"),
		SolverModels:       reg.NewCounter("dfence_solver_models", "minimal models enumerated by the SAT solver"),
		SolverConflicts:    reg.NewCounter("dfence_solver_conflicts", "CDCL conflicts during minimal-model enumeration"),
		SolverDecisions:    reg.NewCounter("dfence_solver_decisions", "CDCL branching decisions during minimal-model enumeration"),
		SolverPropagations: reg.NewCounter("dfence_solver_propagations", "literals unit-propagated during minimal-model enumeration"),
		SolverRestarts:     reg.NewCounter("dfence_solver_restarts", "CDCL search restarts during minimal-model enumeration"),
		SolverClauses:      reg.NewCounter("dfence_solver_clauses", "clauses handed to the SAT solver"),
		FencesInserted:     reg.NewCounter("dfence_fences_inserted", "fences enforced across rounds"),
		FencesRemoved:      reg.NewCounter("dfence_fences_removed", "fences removed as redundant (validation + merge)"),
		ExecSteps:          reg.NewHistogram("dfence_exec_steps", "interpreter transitions per execution", stepBounds),
		RoundWallUS:        reg.NewHistogram("dfence_round_wall_us", "round execution batch plus formula merge (core.Round.Wall) in microseconds", wallBounds),
		SolverWallUS:       reg.NewHistogram("dfence_solver_wall_us", "solver enumeration wall time in microseconds", wallBounds),
		run:                &runFold{},
	}
}

// View dereferences the bundle nil-safely: the zero Metrics value has nil
// handles everywhere, and every handle method is a no-op on nil — so hot
// paths copy the view once and record unconditionally.
func (m *Metrics) View() Metrics {
	if m == nil {
		return Metrics{}
	}
	return *m
}

// maxRoundWallSamples bounds the per-round solve-time list RunStatus
// carries; beyond it the list stops growing and Truncated counts the
// overflow, so a pathological many-round run cannot grow /runz without
// limit.
const maxRoundWallSamples = 64

// SolverStatus is the live solver section of /runz: cumulative effort
// counters plus the per-round solve-time list (microseconds, in round
// order, capped at maxRoundWallSamples).
type SolverStatus struct {
	Rounds       int     `json:"rounds"`
	Models       int     `json:"models"`
	Conflicts    int64   `json:"conflicts"`
	Decisions    int64   `json:"decisions"`
	Propagations int64   `json:"propagations"`
	Restarts     int64   `json:"restarts"`
	RoundWallUS  []int64 `json:"round_wall_us,omitempty"`
	Truncated    int     `json:"round_wall_truncated,omitempty"`
}

// RunStatus is the live view /runz serves: where the run is and what it
// has seen so far. Every field with a registered metric is read from that
// metric (Metrics.Run); the rest are folded from the event stream.
type RunStatus struct {
	Round           int          `json:"round"`
	Rounds          int          `json:"rounds_completed"`
	Executions      int          `json:"executions"`
	Violations      int          `json:"violations"`
	Inconclusive    int          `json:"inconclusive"`
	Skipped         int          `json:"skipped"`
	DistinctClauses int          `json:"distinct_clauses"`
	FencesInserted  int          `json:"fences_inserted"`
	FencesRemoved   int          `json:"fences_removed"`
	CacheHits       int          `json:"cache_hits"`
	CacheMisses     int          `json:"cache_misses"`
	Solver          SolverStatus `json:"solver"`
	Outcome         string       `json:"outcome"` // "" while running
}

// runFold holds the RunStatus fields no metric carries: the synthesis
// rounds' execution, violation and inconclusive counts (the execution
// counters also count validation and redundancy trials), distinct
// clauses, the solver round count and solve-time list, and the outcome.
type runFold struct {
	mu  sync.Mutex
	cur RunStatus
}

// Emit implements Sink: the one fold of the synthesis loop's coordinator
// events. Coordinator events are observed on shard 0.
func (m *Metrics) Emit(e Event) {
	switch ev := e.(type) {
	case RoundStart:
		m.CurrentRound.Set(int64(ev.Round))
	case RoundEnd:
		m.Rounds.Inc(0)
		m.Skipped.Add(0, int64(ev.Skipped))
		m.Predicates.Add(0, int64(ev.Predicates))
		m.PrunedPredicates.Add(0, int64(ev.PrunedPreds))
		m.RoundWallUS.Observe(0, ev.WallUS)
		m.run.mu.Lock()
		m.run.cur.Executions += ev.Executions
		m.run.cur.Violations += ev.Violations
		m.run.cur.Inconclusive += ev.Inconclusive
		m.run.cur.DistinctClauses += ev.DistinctClauses
		m.run.mu.Unlock()
	case SolverResult:
		m.SolverModels.Add(0, int64(ev.Models))
		m.SolverConflicts.Add(0, ev.Conflicts)
		m.SolverDecisions.Add(0, ev.Decisions)
		m.SolverPropagations.Add(0, ev.Propagations)
		m.SolverRestarts.Add(0, ev.Restarts)
		m.SolverClauses.Add(0, int64(ev.Clauses))
		m.SolverWallUS.Observe(0, ev.WallUS)
		m.run.mu.Lock()
		s := &m.run.cur.Solver
		s.Rounds++
		if len(s.RoundWallUS) < maxRoundWallSamples {
			s.RoundWallUS = append(s.RoundWallUS, ev.WallUS)
		} else {
			s.Truncated++
		}
		m.run.mu.Unlock()
	case FenceChange:
		switch ev.Action {
		case "insert":
			m.FencesInserted.Add(0, int64(len(ev.Fences)))
		case "drop-redundant":
			m.FencesRemoved.Add(0, int64(len(ev.Fences)))
		case "merge":
			m.FencesRemoved.Add(0, int64(ev.Count))
		}
	case Converged:
		m.run.mu.Lock()
		m.run.cur.Outcome = ev.Outcome
		m.run.mu.Unlock()
	}
}

// Run returns the /runz view: the folded fields, with every metric-backed
// field read from its handle. The solve-time list is copied so callers can
// serialize it while Emit keeps appending.
func (m *Metrics) Run() RunStatus {
	m.run.mu.Lock()
	out := m.run.cur
	out.Solver.RoundWallUS = append([]int64(nil), m.run.cur.Solver.RoundWallUS...)
	m.run.mu.Unlock()
	out.Round = int(m.CurrentRound.Value())
	out.Rounds = int(m.Rounds.Value())
	out.Skipped = int(m.Skipped.Value())
	out.FencesInserted = int(m.FencesInserted.Value())
	out.FencesRemoved = int(m.FencesRemoved.Value())
	out.CacheHits = int(m.CacheHits.Value())
	out.CacheMisses = int(m.CacheMisses.Value())
	out.Solver.Models = int(m.SolverModels.Value())
	out.Solver.Conflicts = m.SolverConflicts.Value()
	out.Solver.Decisions = m.SolverDecisions.Value()
	out.Solver.Propagations = m.SolverPropagations.Value()
	out.Solver.Restarts = m.SolverRestarts.Value()
	return out
}

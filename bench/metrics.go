package main

// metricDef declares one reported metric. The tables below are the
// benchmark's single source of truth: BENCHMARK.json at the repository
// root mirrors them (bench_test.go asserts the two agree), and compare
// applies the bounds from here.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are measured with tracing off and reported on every workload.
// Bound is the share of the parent's median by which a metric may worsen
// before a change counts as a regression. The timing bounds are wide
// because on a shared 2-vCPU machine the same run's timings move by 3–16 %
// (interquartile range over ten runs) with other tenants' memory traffic;
// decided_ratio is a count and moves only with the inputs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "decided_ratio", Unit: "ratio", Better: "higher", Bound: 0.03},
}

// perLayer come from the traced run. The comment on each says which
// end-to-end (workload, metric) it should move.
var perLayer = []metricDef{
	// table3 ops_per_s and op_ms_p90.
	{Name: "core.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "core.validate_ms", Unit: "ms", Better: "lower"},
	// table3 ops_per_s.
	{Name: "core.execs_per_s", Unit: "1/s", Better: "higher"},
	// table3 op_ms_p90.
	{Name: "core.verdict_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	// rmo op_ms_p90: the spinning executions are the inconclusive ones.
	{Name: "core.conclusive_ratio", Unit: "ratio", Better: "higher"},
	// table3 and enum op_ms_p50.
	{Name: "interp.ns_per_step", Unit: "ns", Better: "lower"},
	// rmo op_ms_p90 and ops_per_s; flat on table3.
	{Name: "sched.ns_per_iter", Unit: "ns", Better: "lower"},
	{Name: "sched.spin_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sched.iters_per_exec", Unit: "count", Better: "lower"},
	// table3 op_ms_p90.
	{Name: "spec.ns_per_check", Unit: "ns", Better: "lower"},
	// table3 ops_per_s.
	{Name: "synth.collect_ns_per_violation", Unit: "ns", Better: "lower"},
	// table3 and rmo ops_per_s.
	{Name: "synth.observe_ns_per_exec", Unit: "ns", Better: "lower"},
	// table3 ops_per_s; flat on rmo.
	{Name: "sat.solve_us_per_round", Unit: "us", Better: "lower"},
	{Name: "sat.conflicts_per_round", Unit: "count", Better: "lower"},
	// service op_ms_p90.
	{Name: "staticanalysis.analyze_us_p50", Unit: "us", Better: "lower"},
	// enum ops_per_s and decided_ratio.
	{Name: "proggen.us_per_state", Unit: "us", Better: "lower"},
	{Name: "proggen.states_per_enum_p50", Unit: "count", Better: "lower"},
	// service op_ms_p50 and op_ms_p90.
	{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.attempt_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	// Nothing: guards later tracing work.
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number. A nil Value is emitted as JSON null
// with the reason it could not be measured.
type metricValue struct {
	Value  *float64 `json:"value"`
	Unit   string   `json:"unit"`
	Reason string   `json:"reason,omitempty"`
}

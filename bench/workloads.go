package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"dfence/internal/core"
	"dfence/internal/eval"
	"dfence/internal/ir"
	"dfence/internal/lang"
	"dfence/internal/memmodel"
	"dfence/internal/proggen"
	"dfence/internal/progs"
	"dfence/internal/spec"
	"dfence/internal/trace"
)

// env is what every workload is built from: the seed its inputs derive
// from, the parallelism, and where it may write.
type env struct {
	seed int64
	j    int
	dir  string // scratch directory inside the checkout
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop callers: each sends its next
	// operation only after the previous one completed.
	clients func(j int) int
	// passOps is how many operations a pass runs: at least 100, so that
	// p90 has ten samples beyond it.
	passOps int
	// setup builds the workload's inputs and returns the runner for one
	// pass. Everything it does is charged to setup_s.
	setup func(e env, acc *synthAcc) (runner, error)
}

// runner executes one pass of a workload's operations. Operation i's
// inputs are a pure function of (seed, i), so two passes that run the same
// operations must produce the same digest.
type runner interface {
	// op runs operation i; sp is its span, under which the calls it makes
	// record theirs.
	op(i int, sp span) opResult
	// targets are the workload's synthesis inputs, for the layer probes.
	targets() []target
	close() error
}

// opResult is what one operation produced.
type opResult struct {
	out     string // canonical rendering of the outputs, hashed into the digest
	decided int    // units that reached a verdict
	units   int
	err     error
	// lat is the operation's latency when the call also spent time that
	// is not the operation's own; 0 means the call's wall time.
	lat time.Duration
}

// target is one synthesis input: a program and the configuration it is
// synthesized under (Seed, Workers, Tracer and Metrics are set by callers).
type target struct {
	name string
	prog *ir.Program
	cfg  core.Config
}

var workloads = []workload{
	{
		name:    "table3",
		why:     "the paper's Table 3 corpus under TSO/PSO via eval.SynthesizeCell: interpreter, checker and SAT all matter",
		clients: func(int) int { return 1 },
		passOps: 264,
		setup:   func(e env, acc *synthAcc) (runner, error) { return newCellRunner(e, acc, false) },
	},
	{
		name:    "rmo",
		why:     "the same corpus under RMO with an iteration budget: load-starve spins dominate, SAT work is near zero",
		clients: func(int) int { return 1 },
		passOps: 198,
		setup:   func(e env, acc *synthAcc) (runner, error) { return newCellRunner(e, acc, true) },
	},
	{
		name:    "enum",
		why:     "differential fuzz campaigns: exhaustive enumeration dominates and the scheduler, checker and SAT are bypassed",
		clients: func(j int) int { return j },
		passOps: 150,
		setup:   func(e env, _ *synthAcc) (runner, error) { return newEnumRunner(e) },
	},
	{
		name:    "service",
		why:     "small jobs through the in-process dfenced server: spool fsyncs, the result memo and static pruning",
		clients: func(j int) int { return j },
		passOps: 900,
		setup:   func(e env, _ *synthAcc) (runner, error) { return newServiceRunner(e, serviceMix()) },
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// Table 3's columns, as in eval.Table3.
var (
	table3Criteria = []spec.Criterion{spec.MemorySafety, spec.SeqConsistency, spec.Linearizability}
	table3Models   = []memmodel.Model{memmodel.TSO, memmodel.PSO}
)

// The rmo workload's budgets. rmoMaxIters is the deterministic
// per-execution iteration budget (cmd/dfence's -max-iters): without it the
// load-starving scheduler phases crawl on ms2-queue and lazylist-set. With
// a 200000 budget and eval's 1000 executions per round those six cells
// still take about 0.7 s each on a 2-CPU x86-64 machine, too slow for a
// pass of 200 cells to repeat three times in a run; these budgets bring
// them to about 0.1 s, and spins are still half of all scheduler
// iterations.
const (
	rmoMaxIters      = 50000
	rmoExecsPerRound = 250
)

// cell is one Table 3 cell.
type cell struct {
	bench *progs.Benchmark
	prog  *ir.Program
	crit  spec.Criterion
	model memmodel.Model
}

func (c cell) name() string { return fmt.Sprintf("%s/%v/%v", c.bench.Name, c.crit, c.model) }

// corpusCells compiles the corpus and lists its run cells: every benchmark
// under every criterion and model, except the iWSQs' SC and
// linearizability columns, which eval.Table3 skips too.
func corpusCells(models []memmodel.Model) ([]cell, error) {
	var cells []cell
	for _, b := range progs.All() {
		p, err := lang.Compile(b.Source)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", b.Name, err)
		}
		for _, crit := range table3Criteria {
			if b.SkipSeqCheck && crit != spec.MemorySafety {
				continue
			}
			for _, m := range models {
				cells = append(cells, cell{bench: b, prog: p, crit: crit, model: m})
			}
		}
	}
	return cells, nil
}

// cellConfig is eval.SynthesizeCell's configuration for a cell (plus the
// rmo budgets), which the rmo workload and the layer probes use through
// core.Synthesize directly.
func cellConfig(c cell, rmo bool) core.Config {
	cfg := core.Config{
		Model:            c.model,
		Criterion:        c.crit,
		NewSpec:          c.bench.NewSpec(),
		CheckGarbage:     c.bench.CheckGarbage,
		RelaxStealAborts: c.bench.RelaxStealAborts,
		ExecsPerRound:    1000,
		MaxRounds:        10,
		FlushProb:        0.5,
		ValidateFences:   true,
	}
	if c.model == memmodel.TSO {
		cfg.FlushProb = 0.1
	}
	if rmo {
		cfg.ExecsPerRound, cfg.MaxItersPerExec = rmoExecsPerRound, rmoMaxIters
	}
	return cfg
}

// cellRunner runs the table3 and rmo workloads. Operation i is cell
// perm_p[i mod n] synthesized with seed S+p, where p = i div n and perm_p is
// a seeded shuffle, so a pass cut off mid-corpus still samples every kind
// of cell evenly.
type cellRunner struct {
	e     env
	rmo   bool
	cells []cell
	acc   *synthAcc // non-nil on the traced pass
}

func newCellRunner(e env, acc *synthAcc, rmo bool) (*cellRunner, error) {
	models := table3Models
	if rmo {
		models = []memmodel.Model{memmodel.RMO}
	}
	cells, err := corpusCells(models)
	if err != nil {
		return nil, err
	}
	return &cellRunner{e: e, rmo: rmo, cells: cells, acc: acc}, nil
}

func (r *cellRunner) cellFor(i int) (cell, int64) {
	n := len(r.cells)
	p := i / n
	seed := r.e.seed + int64(p)
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	return r.cells[perm[i%n]], seed
}

func (r *cellRunner) op(i int, sp span) opResult {
	c, seed := r.cellFor(i)
	var tracer *trace.Tracer
	if r.acc != nil {
		tracer = trace.New(trace.Options{Lanes: r.e.j})
	}
	var (
		outcome      core.Outcome
		fences       []string
		execs, inc   int
		errs         int
		err          error
		spanName     = "eval.SynthesizeCell"
		metricsOrNil = r.acc.metricsOrNil()
	)
	if r.rmo {
		spanName = "core.Synthesize"
	}
	s := sp.child(spanName)
	if r.rmo {
		cfg := cellConfig(c, true)
		cfg.Seed, cfg.Workers, cfg.Tracer, cfg.Metrics = seed, r.e.j, tracer, metricsOrNil
		var res *core.Result
		res, err = core.Synthesize(c.prog, cfg)
		if err == nil {
			outcome, execs, inc, errs = res.Outcome, res.TotalExecutions, res.TotalInconclusive, len(res.ExecErrors)
			for _, f := range res.Fences {
				fences = append(fences, core.DescribeFence(res.Program, f).String())
			}
			sort.Strings(fences)
		}
	} else {
		var cl eval.Cell
		cl, err = eval.SynthesizeCell(c.bench, c.crit, c.model, eval.Options{
			Seed: seed, Validate: true, Workers: r.e.j, Tracer: tracer, Metrics: metricsOrNil,
		})
		if err == nil {
			outcome, execs, inc = cl.Outcome, cl.Executions, cl.Inconclusive
			fences = []string{cl.String()}
		}
	}
	s.end()
	if err != nil {
		return opResult{err: fmt.Errorf("%s seed %d: %w", c.name(), seed, err), units: 1}
	}
	if errs > 0 {
		err = fmt.Errorf("%s seed %d: %d executions panicked", c.name(), seed, errs)
	}
	if r.acc != nil {
		r.acc.add(tracer.Snapshot(), execs, inc)
	}
	res := opResult{
		out:   fmt.Sprintf("%s seed=%d outcome=%v fences=[%s] execs=%d inconclusive=%d", c.name(), seed, outcome, strings.Join(fences, " "), execs, inc),
		units: 1,
		err:   err,
	}
	if outcome == core.OutcomeConverged || outcome == core.OutcomeUnfixable {
		res.decided = 1
	}
	return res
}

func (r *cellRunner) targets() []target {
	out := make([]target, len(r.cells))
	for k, c := range r.cells {
		out[k] = target{name: c.name(), prog: c.prog, cfg: cellConfig(c, r.rmo)}
	}
	return out
}

func (r *cellRunner) close() error { return nil }

// The enum workload's campaign shape. Each operation is one differential
// fuzz campaign over a litmus template and one seeded random program. The
// state budget is below proggen's default (60000) because at the default a
// random program that exhausts it costs ~5 s on a 2-CPU x86-64 machine, so
// a handful of them would decide a run's throughput and percentiles; at
// 2000 campaign costs form one mode (median ~80 ms, p90 ~140 ms, slowest
// ~0.2 s) and proggen.Enumerate is still about three quarters of the time.
const (
	enumPrograms = 2
	enumStates   = 2000
)

type enumRunner struct {
	e    env
	tgts []target
}

// newEnumRunner builds the inputs the layer probes use: the first eight
// programs of the seed's fuzz corpus under each weak model, configured as
// dfence fuzz synthesizes them (memory safety: the templates assert their
// forbidden outcome).
func newEnumRunner(e env) (*enumRunner, error) {
	r := &enumRunner{e: e}
	for k, p := range proggen.Corpus(e.seed, 8) {
		prog, err := p.Compile()
		if err != nil {
			return nil, fmt.Errorf("compile corpus program %d: %w", k, err)
		}
		for _, m := range []memmodel.Model{memmodel.TSO, memmodel.PSO, memmodel.RMO} {
			r.tgts = append(r.tgts, target{
				name: fmt.Sprintf("%s/%v", p.Name, m),
				prog: prog,
				cfg: core.Config{
					Model: m, Criterion: spec.MemorySafety,
					ExecsPerRound: 160, MaxRounds: 8, FlushProb: 0.3,
					MaxStepsPerExec: 20000, ValidateFences: true,
				},
			})
		}
	}
	return r, nil
}

func (r *enumRunner) op(i int, sp span) opResult {
	seed := r.e.seed + int64(i)
	s := sp.child("proggen.Fuzz")
	rep := proggen.Fuzz(proggen.FuzzConfig{Seed: seed, N: enumPrograms, NoShrink: true, Enum: proggen.EnumOptions{MaxStates: enumStates}})
	s.end()
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d programs=%d templates=%d randoms=%d injected=%d checked=%d violating=%d robust=%d escalated=%d misses=%d partial=%d notes=%d",
		seed, rep.Programs, rep.Templates, rep.Randoms, rep.Injected, rep.Checked, rep.Violating,
		rep.Robust, rep.Escalated, rep.SamplingMisses, rep.EnumPartial, len(rep.Notes))
	var err error
	for _, d := range rep.Divergences {
		fmt.Fprintf(&b, " divergence=%v", d)
	}
	if n := len(rep.Divergences); n > 0 {
		err = fmt.Errorf("fuzz seed %d: %d divergences, first %v", seed, n, rep.Divergences[0])
	}
	units := rep.Programs + rep.Checked
	return opResult{out: b.String(), decided: units - rep.EnumPartial, units: units, err: err}
}

func (r *enumRunner) targets() []target { return r.tgts }
func (r *enumRunner) close() error      { return nil }

// Package eval regenerates the paper's evaluation artifacts: Table 2
// (benchmark inventory), Table 3 (inferred fences per benchmark ×
// specification × memory model), Figure 4 (inferred fences vs executions
// per round, multi-round vs one round), and Figure 5 (synthesized fences
// vs flush probability). The cmd/experiments binary and the repository's
// benchmark harness both drive this package.
package eval

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"dfence/internal/core"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
	"dfence/internal/synth"
	"dfence/internal/telemetry"
	"dfence/internal/trace"
)

// Options tunes an evaluation run. Zero values select the paper's
// settings.
type Options struct {
	// ExecsPerRound is K (default 1000; §6.3.2).
	ExecsPerRound int
	// MaxRounds bounds repair rounds (default 10).
	MaxRounds int
	// Seed makes everything deterministic (default 1).
	Seed int64
	// Validate prunes redundant fences after convergence (default true in
	// the Table 3 runs).
	Validate bool
	// Workers is the parallel execution engine's worker count, passed
	// through to core.Config.Workers (0 = NumCPU). Every artifact is
	// bit-identical for any value.
	Workers int
	// JournalDir, when non-empty, writes one JSONL run journal per cell
	// to <JournalDir>/<bench>_<criterion>_<model>.jsonl — the per-cell
	// provenance of a Table 3 artifact, each replayable with
	// `dfence explain`.
	JournalDir string
	// Metrics passes through to every cell's core.Config: one bundle
	// accumulates across the whole table, folding every cell's events
	// (the /runz view of `experiments -listen`) besides its hot-path
	// counters.
	Metrics *telemetry.Metrics
	// Tracer, when non-nil, records every cell's spans into one shared
	// trace (cells are sequential, so round spans never interleave).
	Tracer *trace.Tracer
}

func (o *Options) fill() {
	if o.ExecsPerRound <= 0 {
		o.ExecsPerRound = 1000
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// FenceDesc renders one inferred fence the way Table 3 does: method plus
// the source lines the fence sits between. The canonical type lives in
// core (the unified Result renderer uses it); the alias preserves this
// package's historical API.
type FenceDesc = core.FenceDesc

// DescribeFence locates a synthesized fence in source terms.
func DescribeFence(p *ir.Program, f synth.InsertedFence) FenceDesc {
	return core.DescribeFence(p, f)
}

// Cell is one Table 3 cell: the outcome of synthesis for one benchmark
// under one (criterion, model) pair.
type Cell struct {
	Fences      []FenceDesc
	Converged   bool
	Unfixable   bool
	Outcome     core.Outcome
	Synthesized int // before validation
	Executions  int
	// Inconclusive counts the executions of the run that produced no
	// verdict (step-limit hits, timeouts, panics) or never ran; Coverage is
	// the conclusive fraction of the run's total execution budget. Together
	// they qualify the cell: a "-" or "?" backed by 20% coverage says far
	// less than one backed by 100%.
	Inconclusive int
	Coverage     float64
}

// String renders the cell Table 3 style: "0" for no fences, "-" for
// cannot-satisfy, "?" for an inconclusive run (round budget exhausted, or
// too many executions cut off for a clean round to count), "!" for a run
// aborted by the deadline.
func (c Cell) String() string {
	if c.Unfixable {
		return "-"
	}
	if !c.Converged {
		if c.Outcome == core.OutcomeAborted {
			return "!"
		}
		return "?"
	}
	if len(c.Fences) == 0 {
		return "0"
	}
	parts := make([]string, len(c.Fences))
	for i, f := range c.Fences {
		parts[i] = f.String()
	}
	return strings.Join(parts, " ")
}

// Row is one Table 3 row.
type Row struct {
	Benchmark *progs.Benchmark
	// Cells indexed by [criterion][model]: criteria MemorySafety, SC, Lin;
	// models TSO, PSO.
	Cells map[spec.Criterion]map[memmodel.Model]Cell
	// Size metrics (Table 3's last columns).
	SourceLOC       int
	IRInstrs        int
	InsertionPoints int
}

// criteria lists Table 3's specification columns in order.
var criteria = []spec.Criterion{spec.MemorySafety, spec.SeqConsistency, spec.Linearizability}

// models lists Table 3's memory-model sub-columns in order.
var models = []memmodel.Model{memmodel.TSO, memmodel.PSO}

// SynthesizeCell runs fence synthesis for one cell of a registered
// benchmark, at the model's default flush probability (§6.5). With
// JournalDir set, the cell's journal opens with the RunStart the cell was
// loaded from, so `dfence -resume` and `dfence explain` rebuild exactly
// this run.
func SynthesizeCell(b *progs.Benchmark, crit spec.Criterion, model memmodel.Model, o Options) (Cell, error) {
	o.fill()
	start := telemetry.RunStart{
		Model:     model.String(),
		Criterion: crit.String(),
		Seed:      o.Seed,
		Execs:     o.ExecsPerRound,
		MaxRounds: o.MaxRounds,
		FlushProb: core.EffectiveFlushProb(0, model),
		Workers:   o.Workers,
		Builtin:   b.Name,
		Validate:  o.Validate,
	}
	prog, cfg, err := core.Load(&start)
	if err != nil {
		return Cell{}, err
	}
	cfg.Metrics, cfg.Tracer = o.Metrics, o.Tracer
	var journal *telemetry.Journal
	if o.JournalDir != "" {
		path := filepath.Join(o.JournalDir, fmt.Sprintf("%s_%v_%v.jsonl", b.Name, crit, model))
		journal, err = telemetry.CreateJournal(path)
		if err != nil {
			return Cell{}, err
		}
		cfg.Sink = journal
	}
	telemetry.Emit(cfg.Sink, start)
	res, err := core.Synthesize(prog, cfg)
	if journal != nil {
		if cerr := journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return Cell{}, err
	}
	return cellFrom(res), nil
}

func cellFrom(res *core.Result) Cell {
	c := Cell{
		Converged:    res.Converged,
		Unfixable:    res.Unfixable,
		Outcome:      res.Outcome,
		Synthesized:  res.SynthesizedFences,
		Executions:   res.TotalExecutions,
		Inconclusive: res.TotalInconclusive,
		Coverage:     1,
	}
	skipped := 0
	for _, r := range res.Rounds {
		skipped += r.Skipped
	}
	if budget := res.TotalExecutions + skipped; budget > 0 {
		c.Coverage = float64(budget-res.TotalInconclusive) / float64(budget)
	}
	for _, f := range res.Fences {
		c.Fences = append(c.Fences, DescribeFence(res.Program, f))
	}
	sort.Slice(c.Fences, func(i, j int) bool {
		a, b := c.Fences[i], c.Fences[j]
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.LineBefore < b.LineBefore
	})
	return c
}

// Table3 runs the full Table 3 matrix. Benchmarks whose SC/linearizability
// specifications are future work (the iWSQs) get "-" in those columns
// without running, as in the paper.
func Table3(benchmarks []*progs.Benchmark, o Options) ([]Row, error) {
	o.fill()
	var rows []Row
	for _, b := range benchmarks {
		p := b.Program()
		row := Row{
			Benchmark:       b,
			Cells:           map[spec.Criterion]map[memmodel.Model]Cell{},
			SourceLOC:       b.SourceLOC(),
			IRInstrs:        p.CountInstrs(),
			InsertionPoints: p.CountStores(),
		}
		for _, crit := range criteria {
			row.Cells[crit] = map[memmodel.Model]Cell{}
			for _, m := range models {
				if b.SkipSeqCheck && crit != spec.MemorySafety {
					row.Cells[crit][m] = Cell{Unfixable: true, Outcome: core.OutcomeUnfixable, Coverage: 1}
					continue
				}
				cell, err := SynthesizeCell(b, crit, m, o)
				if err != nil {
					return nil, fmt.Errorf("%s %v/%v: %w", b.Name, crit, m, err)
				}
				row.Cells[crit][m] = cell
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable3 renders rows as text.
func FormatTable3(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s | %-28s | %-44s | %-44s | %5s %5s %5s\n",
		"Benchmark", "Memory Safety (TSO | PSO)", "Sequential Consistency (TSO | PSO)",
		"Linearizability (TSO | PSO)", "SLOC", "IR", "Ins")
	b.WriteString(strings.Repeat("-", 170) + "\n")
	for _, r := range rows {
		cell := func(c spec.Criterion) string {
			return r.Cells[c][memmodel.TSO].String() + " | " + r.Cells[c][memmodel.PSO].String()
		}
		fmt.Fprintf(&b, "%-14s | %-28s | %-44s | %-44s | %5d %5d %5d\n",
			r.Benchmark.Name, cell(spec.MemorySafety), cell(spec.SeqConsistency),
			cell(spec.Linearizability), r.SourceLOC, r.IRInstrs, r.InsertionPoints)
	}
	// Coverage notes: cells whose runs had inconclusive or skipped
	// executions, so a "-"/"?"/"!" can be weighed by how much of the
	// execution budget actually produced verdicts.
	notes := ""
	for _, r := range rows {
		for _, crit := range criteria {
			for _, m := range models {
				c := r.Cells[crit][m]
				if c.Inconclusive == 0 {
					continue
				}
				notes += fmt.Sprintf("  %s %v/%v: %s with %.0f%% conclusive coverage (%d inconclusive)\n",
					r.Benchmark.Name, crit, m, c.String(), 100*c.Coverage, c.Inconclusive)
			}
		}
	}
	if notes != "" {
		b.WriteString("coverage:\n" + notes)
	}
	return b.String()
}

// Table2 renders the benchmark inventory.
func Table2(benchmarks []*progs.Benchmark) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-28s %-10s %s\n", "Name", "Paper name", "Spec", "Notes")
	for _, bm := range benchmarks {
		notes := ""
		if bm.CheckGarbage {
			notes = "idempotent: no-garbage + memory safety only"
		}
		fmt.Fprintf(&b, "%-14s %-28s %-10s %s\n", bm.Name, bm.Paper, bm.SpecName, notes)
	}
	return b.String()
}

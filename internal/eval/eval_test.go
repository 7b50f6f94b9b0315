package eval

import (
	"path/filepath"
	"strings"
	"testing"

	"dfence/internal/core"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
	"dfence/internal/telemetry"
)

// fastOpts keeps the evaluation tests quick while still converging.
func fastOpts() Options {
	return Options{ExecsPerRound: 400, MaxRounds: 8, Seed: 1, Validate: true}
}

func TestSynthesizeCellChaseLevTSO(t *testing.T) {
	b, err := progs.ByName("chase-lev")
	if err != nil {
		t.Fatal(err)
	}
	cell, err := SynthesizeCell(b, spec.SeqConsistency, memmodel.TSO, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !cell.Converged {
		t.Fatal("did not converge")
	}
	if len(cell.Fences) != 1 {
		t.Fatalf("fences = %v, want exactly F1", cell.Fences)
	}
	f := cell.Fences[0]
	if f.Func != "take" {
		t.Errorf("F1 in %s, want take", f.Func)
	}
	s := cell.String()
	if !strings.Contains(s, "(take,") {
		t.Errorf("cell string %q does not mention take", s)
	}
}

func TestSynthesizeCellChaseLevPSO(t *testing.T) {
	b, _ := progs.ByName("chase-lev")
	// The F1 mechanism is rare under PSO/SC: use the paper's full K=1000
	// budget (the Figure 4 lesson — small K under-infers).
	o := fastOpts()
	o.ExecsPerRound = 1000
	cell, err := SynthesizeCell(b, spec.SeqConsistency, memmodel.PSO, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.Fences) != 2 {
		t.Fatalf("fences = %v, want F1+F2", cell.Fences)
	}
	funcs := map[string]bool{}
	for _, f := range cell.Fences {
		funcs[f.Func] = true
	}
	if !funcs["put"] || !funcs["take"] {
		t.Errorf("expected fences in put and take, got %v", cell.Fences)
	}
}

func TestCellStringForms(t *testing.T) {
	if got := (Cell{Converged: true}).String(); got != "0" {
		t.Errorf("empty converged cell = %q, want 0", got)
	}
	if got := (Cell{Unfixable: true}).String(); got != "-" {
		t.Errorf("unfixable cell = %q, want -", got)
	}
	c := Cell{Converged: true, Fences: []FenceDesc{{Func: "put", LineBefore: 4, LineAfter: 5}}}
	if got := c.String(); got != "(put, 4:5)" {
		t.Errorf("cell = %q", got)
	}
	end := Cell{Converged: true, Fences: []FenceDesc{{Func: "put", LineBefore: 5}}}
	if got := end.String(); got != "(put, 5:-)" {
		t.Errorf("method-end cell = %q", got)
	}
}

func TestTable3SingleRow(t *testing.T) {
	b, _ := progs.ByName("lifo-wsq")
	rows, err := Table3([]*progs.Benchmark{b}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.SourceLOC == 0 || r.IRInstrs == 0 || r.InsertionPoints == 0 {
		t.Error("size metrics missing")
	}
	// TSO columns all clean, PSO SC/lin have the put fence.
	if got := r.Cells[spec.SeqConsistency][memmodel.TSO].String(); got != "0" {
		t.Errorf("SC/TSO = %q, want 0", got)
	}
	if got := r.Cells[spec.SeqConsistency][memmodel.PSO].String(); !strings.Contains(got, "(put,") {
		t.Errorf("SC/PSO = %q, want a put fence", got)
	}
	text := FormatTable3(rows)
	if !strings.Contains(text, "lifo-wsq") {
		t.Error("formatted table missing benchmark name")
	}
}

func TestTable3SkipsIWSQSeqColumns(t *testing.T) {
	b, _ := progs.ByName("lifo-iwsq")
	rows, err := Table3([]*progs.Benchmark{b}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0].Cells[spec.SeqConsistency][memmodel.TSO].String(); got != "-" {
		t.Errorf("iWSQ SC column = %q, want -", got)
	}
	if got := rows[0].Cells[spec.Linearizability][memmodel.PSO].String(); got != "-" {
		t.Errorf("iWSQ lin column = %q, want -", got)
	}
	if got := rows[0].Cells[spec.MemorySafety][memmodel.TSO].String(); got == "-" {
		t.Error("iWSQ memory-safety column must run")
	}
}

func TestFig4ShapeHolds(t *testing.T) {
	o := Options{ExecsPerRound: 0, Seed: 1}
	pts, err := Fig4([]int{100, 500}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Multi-round at K=500 must converge and find at least as many fences
	// as one-round at K=500.
	var multi500, one500 Fig4Point
	for _, p := range pts {
		if p.ExecsPerRound == 500 {
			if p.OneRound {
				one500 = p
			} else {
				multi500 = p
			}
		}
	}
	if !multi500.Converged {
		t.Error("multi-round K=500 did not converge")
	}
	if one500.Converged {
		t.Error("one-round mode claimed convergence (it never verifies)")
	}
	if multi500.Fences < one500.Fences {
		t.Errorf("multi-round found %d fences, one-round %d — repair-per-round should find at least as many", multi500.Fences, one500.Fences)
	}
	if !strings.Contains(FormatFig4(pts), "one-round") {
		t.Error("formatting broken")
	}
}

func TestFig5ExposureFallsWithFlushProb(t *testing.T) {
	o := Options{ExecsPerRound: 400, Seed: 1}
	pts, err := Fig5([]float64{0.1, 0.9}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Violations <= pts[1].Violations {
		t.Errorf("round-1 violations: flush 0.1 -> %d, 0.9 -> %d; want strictly more at low flush", pts[0].Violations, pts[1].Violations)
	}
	if !strings.Contains(FormatFig5(pts), "flushProb") {
		t.Error("formatting broken")
	}
}

func TestSchedulerSweep(t *testing.T) {
	res, err := SchedulerSweep("chase-lev", memmodel.PSO, spec.SeqConsistency, []float64{0.3, 0.9}, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0.3] <= res[0.9] {
		t.Errorf("sweep: %d at 0.3 vs %d at 0.9 — expected more exposure at lower flush probability", res[0.3], res[0.9])
	}
	if _, err := SchedulerSweep("nope", memmodel.PSO, spec.SeqConsistency, nil, 1, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestTable2Lists13(t *testing.T) {
	text := Table2(progs.All())
	for _, want := range []string{"chase-lev", "michael-alloc", "harris-set", "idempotent"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestSynthesizeCellMSNQueue(t *testing.T) {
	b, _ := progs.ByName("msn-queue")
	// TSO needs nothing; PSO needs the node-init fence in enqueue (the
	// paper's (enqueue, E3:E4)).
	tso, err := SynthesizeCell(b, spec.SeqConsistency, memmodel.TSO, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if tso.String() != "0" {
		t.Errorf("MSN TSO = %q, want 0", tso.String())
	}
	pso, err := SynthesizeCell(b, spec.SeqConsistency, memmodel.PSO, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(pso.Fences) != 1 || pso.Fences[0].Func != "enqueue" {
		t.Errorf("MSN PSO = %q, want one enqueue fence", pso.String())
	}
}

func TestSynthesizeCellHarrisSet(t *testing.T) {
	b, _ := progs.ByName("harris-set")
	pso, err := SynthesizeCell(b, spec.SeqConsistency, memmodel.PSO, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(pso.Fences) != 1 || pso.Fences[0].Func != "add" {
		t.Errorf("Harris PSO = %q, want one add fence (the paper's insert,8:9)", pso.String())
	}
}

func TestSynthesizeCellLockBasedClean(t *testing.T) {
	for _, name := range []string{"ms2-queue", "lazylist-set"} {
		b, _ := progs.ByName(name)
		cell, err := SynthesizeCell(b, spec.Linearizability, memmodel.PSO, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		if cell.String() != "0" {
			t.Errorf("%s lin/PSO = %q, want 0 (lock barriers suffice)", name, cell.String())
		}
	}
}

// TestJournaledCellLoadsBack: a JournalDir cell's journal opens with the
// run description the cell ran from, so loading it back (what `dfence
// -resume` and `dfence explain` do) gives the cell's own configuration —
// validation included.
func TestJournaledCellLoadsBack(t *testing.T) {
	b, _ := progs.ByName("chase-lev")
	dir := t.TempDir()
	o := Options{ExecsPerRound: 60, MaxRounds: 2, Seed: 3, Validate: true, Workers: 2, JournalDir: dir}
	if _, err := SynthesizeCell(b, spec.MemorySafety, memmodel.TSO, o); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("journals %v (%v), want one", paths, err)
	}
	events, err := telemetry.ReadJournalFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	jr := telemetry.SummarizeJournal(events)
	if jr.Start == nil {
		t.Fatal("journal has no RunStart")
	}
	_, cfg, err := core.Load(jr.Start)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Model != memmodel.TSO || cfg.Criterion != spec.MemorySafety ||
		cfg.ExecsPerRound != 60 || cfg.MaxRounds != 2 || cfg.Seed != 3 || cfg.Workers != 2 {
		t.Errorf("loaded config %+v does not match the cell's options", cfg)
	}
	if !cfg.ValidateFences {
		t.Error("cell ran with validation, its journal loads without it")
	}
	if got := core.EffectiveFlushProb(cfg.FlushProb, cfg.Model); got != 0.1 {
		t.Errorf("loaded flush probability %g, the cell ran at TSO's 0.1", got)
	}
	if cfg.CheckGarbage != b.CheckGarbage || cfg.RelaxStealAborts != b.RelaxStealAborts || cfg.NewSpec == nil {
		t.Error("loaded config lacks the benchmark's specification settings")
	}
}

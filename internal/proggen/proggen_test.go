package proggen

import (
	"strings"
	"testing"

	"dfence/internal/memmodel"
	"dfence/internal/staticanalysis"
)

// corpusSources renders every corpus entry (stable fingerprint of the
// whole generation pipeline).
func corpusSources(seed int64, n int) []string {
	out := make([]string, 0, n)
	for _, p := range Corpus(seed, n) {
		out = append(out, p.Name+"\n"+p.Render())
	}
	return out
}

func TestCorpusDeterministic(t *testing.T) {
	a := corpusSources(42, 60)
	b := corpusSources(42, 60)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corpus entry %d differs between identically-seeded runs:\n%s\n---\n%s", i, a[i], b[i])
		}
	}
	c := corpusSources(43, 60)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	// Templates (every 4th entry) are seed-independent; the 45 randoms
	// must not all coincide across seeds.
	if same >= len(a) {
		t.Fatalf("corpus is seed-independent: all %d entries identical for seeds 42 and 43", same)
	}
}

// eagerCorpus is the reference Corpus instantiates lazily: it builds the
// whole template pool up front and takes every fourth entry from it.
func eagerCorpus(seed int64, n int) (corpus []*Prog, pool int) {
	var templates []*Prog
	for _, threads := range []int{2, 3} {
		for _, shape := range staticanalysis.CriticalCycleShapes(memmodel.RMO, threads) {
			for _, v := range TemplateVariants() {
				templates = append(templates, TemplateProg(shape, v))
			}
		}
	}
	for i := 0; i < n; i++ {
		if i%4 == 0 && i/4 < len(templates) {
			corpus = append(corpus, templates[i/4])
		} else {
			corpus = append(corpus, RandomProg(seed, i))
		}
	}
	return corpus, len(templates)
}

// TestCorpusMatchesEagerPool: Corpus, which instantiates only the
// templates it returns, renders program for program what the eager pool
// gives, over a corpus long enough to take every template and then only
// random programs.
func TestCorpusMatchesEagerPool(t *testing.T) {
	_, pool := eagerCorpus(1, 0)
	n := 4*pool + 9
	want, _ := eagerCorpus(1, n)
	got := Corpus(1, n)
	if len(got) != n {
		t.Fatalf("Corpus(1, %d) has %d programs", n, len(got))
	}
	templates := 0
	for i := range want {
		if got[i].Template {
			templates++
		}
		if got[i].Name != want[i].Name || got[i].Template != want[i].Template || got[i].Render() != want[i].Render() {
			t.Fatalf("corpus[%d]: got %s\n%s\nwant %s\n%s", i, got[i].Name, got[i].Render(), want[i].Name, want[i].Render())
		}
	}
	if templates != pool {
		t.Errorf("corpus of %d programs holds %d templates, want the whole pool of %d", n, templates, pool)
	}
}

func TestCorpusCompiles(t *testing.T) {
	for i, p := range Corpus(7, 120) {
		if _, err := p.Compile(); err != nil {
			t.Errorf("corpus[%d] %s does not compile: %v\nsource:\n%s", i, p.Name, err, p.Render())
		}
	}
}

// shapeViolates reports whether the bare template of shape admits its
// forbidden outcome under model: true iff the model relaxes at least one
// edge of the cycle (see template.go's package comment).
func shapeViolates(shape staticanalysis.CycleShape, model memmodel.Model) bool {
	for _, e := range shape.Edges {
		if e == staticanalysis.EdgeStoreLoad && model.RelaxesStoreLoad() {
			return true
		}
		if e == staticanalysis.EdgeStoreStore && model.RelaxesStoreStore() {
			return true
		}
	}
	return false
}

// partialViolates is shapeViolates restricted to the unfenced threads
// (VariantPartial fences thread 0).
func partialViolates(shape staticanalysis.CycleShape, model memmodel.Model) bool {
	for i, e := range shape.Edges {
		if i == 0 {
			continue
		}
		if e == staticanalysis.EdgeStoreLoad && model.RelaxesStoreLoad() {
			return true
		}
		if e == staticanalysis.EdgeStoreStore && model.RelaxesStoreStore() {
			return true
		}
	}
	return false
}

// TestTemplateGroundTruth checks every template against exhaustive
// enumeration: SC never reaches the forbidden outcome, and a weak model
// reaches it exactly when the variant leaves a relaxed edge unfenced.
func TestTemplateGroundTruth(t *testing.T) {
	var opts EnumOptions
	for _, threads := range []int{2, 3} {
		for _, shape := range staticanalysis.CriticalCycleShapes(memmodel.PSO, threads) {
			for _, v := range TemplateVariants() {
				p := TemplateProg(shape, v)
				prog, err := p.Compile()
				if err != nil {
					t.Fatalf("%s: compile: %v\n%s", p.Name, err, p.Render())
				}
				esc := Enumerate(prog, memmodel.SC, opts)
				if !esc.Complete {
					t.Fatalf("%s: SC enumeration incomplete (%d states)", p.Name, esc.States)
				}
				if esc.HasViolation() {
					t.Errorf("%s: forbidden outcome reachable under SC: %v", p.Name, esc.SortedViolations())
				}
				for _, model := range []memmodel.Model{memmodel.TSO, memmodel.PSO} {
					want := false
					switch v {
					case VariantBare:
						want = shapeViolates(shape, model)
					case VariantPartial:
						want = partialViolates(shape, model)
					}
					em := Enumerate(prog, model, opts)
					if !em.Complete {
						t.Fatalf("%s: %v enumeration incomplete (%d states)", p.Name, model, em.States)
					}
					if got := em.HasViolation(); got != want {
						t.Errorf("%s under %v: violation reachable = %v, want %v (violations: %v)",
							p.Name, model, got, want, em.SortedViolations())
					}
				}
			}
		}
	}
}

// TestConstructDetect closes the loop with the static analysis: a bare
// cycle built *from* the delay-set machinery's own shapes must be flagged
// non-robust by Analyze, and the fully fenced variant robust.
func TestConstructDetect(t *testing.T) {
	for _, threads := range []int{2, 3} {
		for _, shape := range staticanalysis.CriticalCycleShapes(memmodel.PSO, threads) {
			bare := TemplateProg(shape, VariantBare)
			prog, err := bare.Compile()
			if err != nil {
				t.Fatalf("%s: compile: %v", bare.Name, err)
			}
			st, err := staticanalysis.Analyze(prog, memmodel.PSO)
			if err != nil {
				t.Fatalf("%s: analyze: %v", bare.Name, err)
			}
			if st.Robust() {
				t.Errorf("%s: bare critical cycle reported statically robust under PSO", bare.Name)
			}
			if len(st.Delays) < shape.Threads() {
				t.Errorf("%s: %d delay pairs for a %d-thread cycle, want at least one per thread",
					bare.Name, len(st.Delays), shape.Threads())
			}

			fenced := TemplateProg(shape, VariantFenced)
			fprog, err := fenced.Compile()
			if err != nil {
				t.Fatalf("%s: compile: %v", fenced.Name, err)
			}
			fst, err := staticanalysis.Analyze(fprog, memmodel.PSO)
			if err != nil {
				t.Fatalf("%s: analyze: %v", fenced.Name, err)
			}
			if !fst.Robust() {
				t.Errorf("%s: fully fenced cycle not statically robust under PSO (delays: %v)",
					fenced.Name, fst.Delays)
			}
		}
	}
}

func TestTemplateShapeCounts(t *testing.T) {
	if got := staticanalysis.CriticalCycleShapes(memmodel.SC, 2); got != nil {
		t.Errorf("SC shapes = %v, want none", got)
	}
	if got := len(staticanalysis.CriticalCycleShapes(memmodel.TSO, 2)); got != 1 {
		t.Errorf("TSO 2-thread shapes = %d, want 1 (all edges st-ld)", got)
	}
	if got := len(staticanalysis.CriticalCycleShapes(memmodel.PSO, 3)); got != 8 {
		t.Errorf("PSO 3-thread shapes = %d, want 2^3", got)
	}
}

func TestRenderShape(t *testing.T) {
	shapes := staticanalysis.CriticalCycleShapes(memmodel.TSO, 2)
	p := TemplateProg(shapes[0], VariantBare)
	src := p.Render()
	for _, want := range []string{"int x0 = 0;", "void t0()", "fork t0()", "join", "assert(!("} {
		if !strings.Contains(src, want) {
			t.Errorf("rendered template missing %q:\n%s", want, src)
		}
	}
}

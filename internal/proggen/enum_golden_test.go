package proggen

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/litmus"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/staticanalysis"
)

// The enumeration golden file pins Enumerate's exact result — state and
// path counts, completeness, and the outcome and violation sets — for a
// fixed program corpus under every memory model. The state count under a
// tripped MaxStates budget depends on the order states are expanded in,
// so the file also pins the visit order: any change to how the
// enumerator walks the schedule tree that moves a line is a bug unless
// the walk was meant to change. A mismatch prints the replacement line.

const enumGoldenFile = "testdata/enum_golden.txt"

// enumGoldenCorpus is the number of Corpus(1, ·) programs pinned at
// enumGoldenBudget states; the litmus suite and the builtin benchmarks
// are pinned at the same budget. Their spin loops (MP's consumer, the
// work-stealing queues' retry loops) are the cyclic state spaces where a
// transition-pruning reduction combined with state caching can go wrong.
const (
	enumGoldenCorpus = 150
	enumGoldenBudget = 2000
)

// enumGoldenCell is one line of the golden file.
type enumGoldenCell struct {
	key     string
	compile func() (*ir.Program, error)
	opts    EnumOptions
	m       memmodel.Model
}

// builtProgram adapts an always-linked program to a cell's compile step.
func builtProgram(p *ir.Program) func() (*ir.Program, error) {
	return func() (*ir.Program, error) { return p, nil }
}

func enumGoldenCells() []enumGoldenCell {
	var cells []enumGoldenCell
	for i, p := range Corpus(1, enumGoldenCorpus) {
		for _, m := range memmodel.Models() {
			cells = append(cells, enumGoldenCell{
				key:     fmt.Sprintf("corpus[%d] %s %v", i, p.Name, m),
				compile: p.Compile,
				opts:    EnumOptions{MaxStates: enumGoldenBudget},
				m:       m,
			})
		}
	}
	for _, threads := range []int{2, 3} {
		for _, shape := range staticanalysis.CriticalCycleShapes(memmodel.RMO, threads) {
			p := TemplateProg(shape, VariantBare)
			for _, m := range memmodel.Models() {
				cells = append(cells, enumGoldenCell{
					key:     fmt.Sprintf("template %s %v", p.Name, m),
					compile: p.Compile,
					m:       m,
				})
			}
		}
	}
	for _, test := range litmus.All() {
		prog := builtProgram(test.Program())
		for _, m := range memmodel.Models() {
			cells = append(cells, enumGoldenCell{
				key:     fmt.Sprintf("litmus %s %v", test.Name, m),
				compile: prog,
				opts:    EnumOptions{MaxStates: enumGoldenBudget},
				m:       m,
			})
		}
	}
	for _, b := range progs.All() {
		prog := builtProgram(b.Program())
		for _, m := range memmodel.Models() {
			cells = append(cells, enumGoldenCell{
				key:     fmt.Sprintf("builtin %s %v", b.Name, m),
				compile: prog,
				opts:    EnumOptions{MaxStates: enumGoldenBudget},
				m:       m,
			})
		}
	}
	return cells
}

// enumDigest renders the payload of one golden line.
func enumDigest(r *EnumResult) string {
	h := sha256.New()
	for _, o := range r.SortedOutcomes() {
		fmt.Fprintf(h, "o %s\n", o)
	}
	for _, v := range r.SortedViolations() {
		fmt.Fprintf(h, "v %s\n", v)
	}
	return fmt.Sprintf("states=%d paths=%d complete=%v sha256=%x", r.States, r.Paths, r.Complete, h.Sum(nil))
}

// readEnumGolden loads the golden file as key -> full line. A key is
// every field but the four payload fields.
func readEnumGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(enumGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 {
			t.Fatalf("%s: malformed line %q", enumGoldenFile, line)
		}
		out[strings.Join(fields[:len(fields)-4], " ")] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEnumGolden checks every cell against its golden line, and that the
// file holds no line without a cell.
func TestEnumGolden(t *testing.T) {
	want := readEnumGolden(t)
	cells := enumGoldenCells()
	keys := make(map[string]bool, len(cells))
	for _, c := range cells {
		keys[c.key] = true
		prog, err := c.compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", c.key, err)
		}
		got := c.key + " " + enumDigest(Enumerate(prog, c.m, c.opts))
		if w, ok := want[c.key]; !ok {
			t.Errorf("no golden line; add:\n%s", got)
		} else if got != w {
			t.Errorf("enumeration drifted; replacement line:\n%s\nwas:\n%s", got, w)
		}
	}
	for key := range want {
		if !keys[key] {
			t.Errorf("%s: golden line has no cell", key)
		}
	}
}

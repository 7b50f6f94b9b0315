package core

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"dfence/internal/interp"
	"dfence/internal/ir"
	"dfence/internal/lang"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
	"dfence/internal/synth"
)

// The golden digests are the determinism reference of the synthesis loop:
// testdata/golden_digests.txt pins, for every benchmark program under every
// memory model, the outcome, the fence count, and a sha256 of resultKey,
// plus the redundant-fence sets of FindRedundantFences. Every cell must
// reproduce its line at Workers 1 and 4. The caches, the persistent SAT
// solver, and the compiled spec automaton are pure performance mechanisms,
// so any change to them that moves a digest is a bug. A deliberate change
// of the schedule stream re-pins the file: a mismatch prints the
// replacement line.

const goldenFile = "testdata/golden_digests.txt"

// goldenCell is one line of the golden file: key names the cell (kind,
// program, model) and run computes the line's payload under cfg.
type goldenCell struct {
	key string
	cfg Config
	run func(cfg Config) (string, error)
}

// digest renders the payload of a synthesis line.
func digest(res *Result) string {
	return fmt.Sprintf("outcome=%v fences=%d sha256=%x",
		res.Outcome, len(res.Fences), sha256.Sum256([]byte(resultKey(res))))
}

// labelDigest renders the payload of a redundant-fence line.
func labelDigest(labels []ir.Label) string {
	return fmt.Sprintf("count=%d sha256=%x", len(labels), sha256.Sum256([]byte(fmt.Sprint(labels))))
}

// goldenModels are the memory models every benchmark is pinned under.
var goldenModels = []memmodel.Model{memmodel.SC, memmodel.TSO, memmodel.PSO, memmodel.RMO}

// goldenConfig is the determinism budget of the corpus cells.
func goldenConfig(b *progs.Benchmark, model memmodel.Model) Config {
	crit := spec.SeqConsistency
	if b.SkipSeqCheck {
		crit = spec.MemorySafety
	}
	return Config{
		Model:            model,
		Criterion:        crit,
		NewSpec:          b.NewSpec(),
		CheckGarbage:     b.CheckGarbage,
		RelaxStealAborts: b.RelaxStealAborts,
		ExecsPerRound:    150,
		MaxRounds:        5,
		Seed:             7,
		ValidateFences:   true,
		// Deterministic safety net, far above what any execution in the
		// corpus uses.
		MaxItersPerExec: 200_000,
	}
}

// manyFencesStores is the store count of the many-fences program: more
// fences than interp.MaxWatchLabels, so the fence-touch transfer cannot
// watch all of them.
const manyFencesStores = 70

// manyFencesSource is message passing whose producer overwrites data
// manyFencesStores times before raising the flag; with fenced set, a
// store-store fence follows every data store. Only the last of them is
// needed under PSO.
func manyFencesSource(fenced bool) string {
	var b strings.Builder
	b.WriteString("int data = 0;\nint flag = 0;\n\nvoid producer() {\n")
	for i := 1; i <= manyFencesStores; i++ {
		fmt.Fprintf(&b, "  data = %d;\n", i)
		if fenced {
			b.WriteString("  fence_ss();\n")
		}
	}
	fmt.Fprintf(&b, "  flag = 1;\n}\n\nvoid consumer() {\n  while (!flag) { }\n  assert(data == %d);\n}\n\n", manyFencesStores)
	b.WriteString("int main() {\n  int t1 = fork producer();\n  int t2 = fork consumer();\n  join t1;\n  join t2;\n  return 0;\n}\n")
	return b.String()
}

// manyFencesConfig is the budget of the many-fences cells.
func manyFencesConfig() Config {
	return Config{
		Model:          memmodel.PSO,
		Criterion:      spec.MemorySafety,
		ExecsPerRound:  60,
		MaxRounds:      2,
		Seed:           7,
		ValidateFences: true,
		ValidateExecs:  60,
	}
}

// goldenCells lists every pinned cell in file order.
func goldenCells(t *testing.T) []goldenCell {
	t.Helper()
	var cells []goldenCell
	for _, b := range progs.All() {
		for _, model := range goldenModels {
			b := b
			cells = append(cells, goldenCell{
				key: fmt.Sprintf("synth %s %v", b.Name, model),
				cfg: goldenConfig(b, model),
				run: func(cfg Config) (string, error) {
					res, err := Synthesize(b.Program(), cfg)
					if err != nil {
						return "", err
					}
					return digest(res), nil
				},
			})
		}
	}

	// The redundancy scan over chase-lev's own PSO fences.
	cl, err := progs.ByName("chase-lev")
	if err != nil {
		t.Fatal(err)
	}
	clCfg := goldenConfig(cl, memmodel.PSO)
	clCfg.ValidateFences = false
	cells = append(cells, goldenCell{
		key: "redundant chase-lev PSO",
		cfg: clCfg,
		run: func(cfg Config) (string, error) {
			res, err := Synthesize(cl.Program(), cfg)
			if err != nil {
				return "", err
			}
			labels, err := FindRedundantFences(res.Program, cfg, 150)
			if err != nil {
				return "", err
			}
			return labelDigest(labels), nil
		},
	})

	// More fences than the fence-touch transfer can watch: the redundancy
	// scan over a source-fenced program, and the validation pass over
	// checkpointed fences (resumed into a run whose only round is clean,
	// so validation sees every fence).
	cells = append(cells, goldenCell{
		key: "redundant many-fences PSO",
		cfg: manyFencesConfig(),
		run: func(cfg Config) (string, error) {
			p, err := lang.Compile(manyFencesSource(true))
			if err != nil {
				return "", err
			}
			labels, err := FindRedundantFences(p, cfg, 60)
			if err != nil {
				return "", err
			}
			return labelDigest(labels), nil
		},
	})
	cells = append(cells, goldenCell{
		key: "synth many-fences PSO",
		cfg: manyFencesConfig(),
		run: func(cfg Config) (string, error) {
			p, err := lang.Compile(manyFencesSource(false))
			if err != nil {
				return "", err
			}
			var fences []synth.InsertedFence
			f := p.Funcs["producer"]
			for i := range f.Code {
				if f.Code[i].Op == ir.OpStore {
					fences = append(fences, synth.InsertedFence{After: f.Code[i].Label, Kind: ir.FenceStoreStore, Func: f.Name})
				}
			}
			cfg.Resume = &ResumeState{Round: 1, Fences: fences, Rounds: make([]Round, 1)}
			res, err := Synthesize(p, cfg)
			if err != nil {
				return "", err
			}
			if res.SynthesizedFences <= interp.MaxWatchLabels {
				return "", fmt.Errorf("validation saw %d fences, want more than %d", res.SynthesizedFences, interp.MaxWatchLabels)
			}
			return digest(res), nil
		},
	})
	return cells
}

// readGolden loads the golden file as key -> full line.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
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
		if len(fields) < 4 {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		out[strings.Join(fields[:3], " ")] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkGolden runs every cell keep selects at Workers 1 and 4 and compares
// its line with the golden file, printing the replacement line on a
// mismatch. It returns how many cells it checked.
func checkGolden(t *testing.T, keep func(key string) bool) int {
	t.Helper()
	want := readGolden(t)
	n := 0
	for _, c := range goldenCells(t) {
		if !keep(c.key) {
			continue
		}
		n++
		for _, workers := range []int{1, 4} {
			cfg := c.cfg
			cfg.Workers = workers
			payload, err := c.run(cfg)
			if err != nil {
				t.Errorf("%s workers=%d: %v", c.key, workers, err)
				continue
			}
			got := c.key + " " + payload
			if w, ok := want[c.key]; !ok {
				t.Errorf("%s: no golden line; add:\n%s", c.key, got)
			} else if got != w {
				t.Errorf("%s workers=%d: digest drifted; replacement line:\n%s\nwas:\n%s", c.key, workers, got, w)
			}
		}
	}
	return n
}

// TestGoldenDigests checks every cell, and that the file holds no line
// without a cell.
func TestGoldenDigests(t *testing.T) {
	cells := make(map[string]bool)
	for _, c := range goldenCells(t) {
		cells[c.key] = true
	}
	for key := range readGolden(t) {
		if !cells[key] {
			t.Errorf("%s: golden line has no cell", key)
		}
	}
	checkGolden(t, func(string) bool { return true })
}

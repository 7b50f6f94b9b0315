package eval

import (
	"fmt"
	"testing"

	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
)

// table3Column is one Table 3 cell position: criterion and model.
type table3Column struct {
	crit  spec.Criterion
	model memmodel.Model
}

// table3Columns orders the reference rows' entries as Table 3 prints them.
var table3Columns = [6]table3Column{
	{spec.MemorySafety, memmodel.TSO}, {spec.MemorySafety, memmodel.PSO},
	{spec.SeqConsistency, memmodel.TSO}, {spec.SeqConsistency, memmodel.PSO},
	{spec.Linearizability, memmodel.TSO}, {spec.Linearizability, memmodel.PSO},
}

// table3Reference pins, as rendered fence sets, the Table 3 cells that
// EXPERIMENTS.md matches against the paper (Chase-Lev's SC and Lin/PSO
// columns, Cilk THE's fence counts, the iWSQ and WSQ rows, MS2, MSN,
// LazyList and Harris) and that reach the same set at seeds 1-4 with the
// default settings. An empty entry is not pinned.
var table3Reference = map[string][6]string{
	"chase-lev": {"0", "0", "(take, 33:34)", "(put, 10:11) (take, 33:34)",
		"", "(put, 10:11) (put, 11:-) (take, 33:34)"},
	"cilk-the": {"0", "0", "(steal, 41:42) (take, 17:18)", "(put, 11:12) (steal, 41:42) (take, 17:18)",
		"-", "(put, 11:12) (put, 12:-) (steal, 41:42) (take, 17:18)"},
	"fifo-iwsq":    {"0", "(put, 11:12) (put, 12:-)", "-", "-", "-", "-"},
	"lifo-iwsq":    {"0", "(put, 12:13)", "-", "-", "-", "-"},
	"anchor-iwsq":  {"0", "(put, 15:16)", "-", "-", "-", "-"},
	"fifo-wsq":     {"0", "0", "0", "(put, 11:12) (put, 12:-)", "(put, 12:-)", "(put, 11:12) (put, 12:-)"},
	"lifo-wsq":     {"0", "0", "0", "(put, 13:14)", "0", "(put, 13:14)"},
	"anchor-wsq":   {"0", "0", "0", "(put, 16:17)", "0", "(put, 16:17)"},
	"ms2-queue":    {"0", "0", "0", "0", "0", "0"},
	"msn-queue":    {"0", "(enqueue, 17:18)", "0", "(enqueue, 17:18)", "0", "(enqueue, 17:18)"},
	"lazylist-set": {"0", "0", "0", "0", "0", "0"},
	"harris-set":   {"0", "(add, 43:44)", "0", "(add, 43:44)", "0", "(add, 43:44)"},
}

// table3Unstable records the cells whose fence set changes with the seed,
// as observed at seeds 1-4. They are not assertions: the test logs a cell
// that no longer matches its record, so a change in seed stability shows
// up in the verbose output without failing the reference.
var table3Unstable = map[string][4]string{
	"chase-lev linearizability/TSO": {"-", "(put, 11:-) (take, 33:34)", "-", "-"},
	"michael-alloc sequential-consistency/PSO": {
		"(MallocFromNewSB, 54:55) (free, 105:106)",
		"(MallocFromNewSB, 54:55) (free, 105:106)",
		"(DescRetire, 36:37) (MallocFromNewSB, 46:47) (MallocFromNewSB, 51:50)",
		"(MallocFromNewSB, 46:47) (MallocFromNewSB, 47:50) (MallocFromNewSB, 51:50) (free, 105:106)",
	},
	"michael-alloc linearizability/PSO": {
		"(MallocFromNewSB, 46:47) (MallocFromNewSB, 51:50) (free, 105:106)",
		"(MallocFromNewSB, 51:50) (MallocFromNewSB, 54:55) (free, 105:106)",
		"(MallocFromNewSB, 47:50) (MallocFromNewSB, 51:50) (MallocFromNewSB, 54:55) (free, 105:106)",
		"(MallocFromNewSB, 46:47) (MallocFromNewSB, 47:50) (MallocFromNewSB, 51:50) (free, 105:106)",
	},
}

// TestTable3Reference runs the whole Table 3 at seeds 1-4 with the
// settings of `experiments -table3` and checks every pinned cell's fence
// set.
func TestTable3Reference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rows, err := Table3(progs.All(), Options{Seed: seed, Validate: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pinned, unstable := 0, 0
		for _, r := range rows {
			want := table3Reference[r.Benchmark.Name]
			for i, col := range table3Columns {
				got := r.Cells[col.crit][col.model].String()
				name := fmt.Sprintf("%s %v/%v", r.Benchmark.Name, col.crit, col.model)
				if seen, ok := table3Unstable[name]; ok {
					unstable++
					if seen[seed-1] != got {
						t.Logf("seed %d: seed-unstable cell %s is %s (recorded %s)", seed, name, got, seen[seed-1])
					}
				}
				if want[i] == "" {
					continue
				}
				pinned++
				if got != want[i] {
					t.Errorf("seed %d: %s = %s, want %s", seed, name, got, want[i])
				}
			}
		}
		if n := 6*len(table3Reference) - 1; pinned != n {
			t.Errorf("seed %d: checked %d pinned cells, want %d (a reference row names no benchmark)", seed, pinned, n)
		}
		if unstable != len(table3Unstable) {
			t.Errorf("seed %d: found %d of the %d seed-unstable cells", seed, unstable, len(table3Unstable))
		}
	}
}

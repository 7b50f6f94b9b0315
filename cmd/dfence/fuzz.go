// The `dfence fuzz` subcommand: run a differential fuzzing campaign
// (internal/proggen) and persist its findings. The oracle itself never
// touches the filesystem — this file owns all I/O: the JSONL campaign
// journal, one .mc reproduction file per divergence (shrunk when
// available), and the exit status CI gates on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dfence/internal/memmodel"
	"dfence/internal/proggen"
)

// runFuzz implements `dfence fuzz`. Exit status: 0 when the campaign
// finished with zero divergences, 1 when any divergence (or an output
// error) occurred, 2 on flag misuse.
func runFuzz(args []string) {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	var (
		seed       = fs.Int64("seed", 1, "campaign seed (same seed, same flags => identical report)")
		n          = fs.Int("n", 200, "corpus size (cycle-shape templates + seeded random programs)")
		modelsF    = fs.String("models", "tso,pso,rmo", "comma-separated weak models to cross-check (SC is always the enumeration baseline)")
		execs      = fs.Int("execs", 160, "dynamic sampling budget per (program, model); synthesis uses the same per round")
		rounds     = fs.Int("rounds", 8, "maximum synthesis repair rounds per program")
		enumStates = fs.Int("enum-states", 0, "exhaustive-enumeration state budget (0 = default 60000)")
		outDir     = fs.String("out", "", "write the campaign journal and one repro .mc per divergence to this directory")
		verbose    = fs.Bool("v", false, "log per-program progress and divergences as they are found")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dfence fuzz [-seed n] [-n programs] [-models tso,pso,rmo] [-execs k] [-out dir] [-v]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 0 {
		fs.Usage()
		os.Exit(2)
	}

	models, err := parseFuzzModels(*modelsF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfence fuzz:", err)
		os.Exit(2)
	}

	cfg := proggen.FuzzConfig{
		Seed:      *seed,
		N:         *n,
		Models:    models,
		Execs:     *execs,
		MaxRounds: *rounds,
		Enum:      proggen.EnumOptions{MaxStates: *enumStates},
	}
	if *verbose {
		cfg.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}

	rep := proggen.Fuzz(cfg)

	if *outDir != "" {
		if err := writeFuzzArtifacts(*outDir, rep); err != nil {
			fmt.Fprintln(os.Stderr, "dfence fuzz:", err)
			os.Exit(1)
		}
	}

	printFuzzReport(rep)
	if len(rep.Divergences) > 0 {
		os.Exit(1)
	}
}

// parseFuzzModels parses the -models list: comma-separated model names,
// SC dropped (it is the ground-truth baseline of every check; fuzzing "SC
// vs SC" would only dilute the budget). A list that leaves no weak model
// is an error rather than a silent fall-back to the default models.
func parseFuzzModels(list string) ([]memmodel.Model, error) {
	var models []memmodel.Model
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, err := memmodel.ParseModel(name)
		if err != nil {
			return nil, err
		}
		if m != memmodel.SC {
			models = append(models, m)
		}
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("-models %q names no weak model to cross-check against SC (choose from tso, pso, rmo)", list)
	}
	return models, nil
}

// printFuzzReport renders the campaign summary humans read; the JSONL
// journal is the machine-readable twin.
func printFuzzReport(rep *proggen.FuzzReport) {
	fmt.Printf("fuzz: seed=%d programs=%d (templates=%d randoms=%d injected=%d) checks=%d\n",
		rep.Seed, rep.Programs, rep.Templates, rep.Randoms, rep.Injected, rep.Checked)
	fmt.Printf("fuzz: violating=%d robust-pairs=%d escalated=%d sampling-misses=%d enum-partial=%d\n",
		rep.Violating, rep.Robust, rep.Escalated, rep.SamplingMisses, rep.EnumPartial)
	for _, note := range rep.Notes {
		fmt.Printf("fuzz: note: %s\n", note)
	}
	if len(rep.Divergences) == 0 {
		fmt.Println("fuzz: PASS — no divergences")
		return
	}
	fmt.Printf("fuzz: FAIL — %d divergence(s)\n", len(rep.Divergences))
	for _, d := range rep.Divergences {
		fmt.Printf("fuzz: divergence %v\n", d)
		src := d.ShrunkSource
		if src == "" {
			src = d.Source
		}
		fmt.Println(indent(src, "    "))
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}

// fuzzJournalEntry is one line of the campaign journal: either the
// summary line (Kind "summary") or one divergence.
type fuzzJournalEntry struct {
	Kind         string   `json:"kind"`
	Seed         int64    `json:"seed"`
	Index        int      `json:"index,omitempty"`
	Model        string   `json:"model,omitempty"`
	Detail       string   `json:"detail,omitempty"`
	Source       string   `json:"source,omitempty"`
	ShrunkSource string   `json:"shrunk_source,omitempty"`
	Repro        string   `json:"repro,omitempty"` // repro file name, relative to the out dir
	Programs     int      `json:"programs,omitempty"`
	Checked      int      `json:"checked,omitempty"`
	Violating    int      `json:"violating,omitempty"`
	Escalated    int      `json:"escalated,omitempty"`
	SamplingMiss int      `json:"sampling_misses,omitempty"`
	EnumPartial  int      `json:"enum_partial,omitempty"`
	Divergences  int      `json:"divergences"`
	Notes        []string `json:"notes,omitempty"`
}

// writeFuzzArtifacts persists the campaign under dir: fuzz.jsonl (one
// summary line plus one line per divergence) and repro-<index>-<kind>.mc
// holding the minimized source of each divergence.
func writeFuzzArtifacts(dir string, rep *proggen.FuzzReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var lines []fuzzJournalEntry
	lines = append(lines, fuzzJournalEntry{
		Kind:         "summary",
		Seed:         rep.Seed,
		Programs:     rep.Programs,
		Checked:      rep.Checked,
		Violating:    rep.Violating,
		Escalated:    rep.Escalated,
		SamplingMiss: rep.SamplingMisses,
		EnumPartial:  rep.EnumPartial,
		Divergences:  len(rep.Divergences),
		Notes:        rep.Notes,
	})
	for _, d := range rep.Divergences {
		src := d.ShrunkSource
		if src == "" {
			src = d.Source
		}
		name := fmt.Sprintf("repro-%d-%s.mc", d.Index, sanitize(d.Kind))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			return err
		}
		lines = append(lines, fuzzJournalEntry{
			Kind:         d.Kind,
			Seed:         rep.Seed,
			Index:        d.Index,
			Model:        d.Model.String(),
			Detail:       d.Detail,
			Source:       d.Source,
			ShrunkSource: d.ShrunkSource,
			Repro:        name,
			Divergences:  len(rep.Divergences),
		})
	}
	f, err := os.Create(filepath.Join(dir, "fuzz.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// sanitize maps a divergence kind to a filename-safe slug.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}

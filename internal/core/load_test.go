package core

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"dfence/internal/lang"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
	"dfence/internal/telemetry"
)

func TestEffectiveFlushProb(t *testing.T) {
	for _, tc := range []struct {
		p     float64
		model memmodel.Model
		want  float64
	}{
		{0, memmodel.TSO, 0.1},
		{0, memmodel.PSO, 0.5},
		{0, memmodel.RMO, 0.5},
		{0, memmodel.SC, 0.5},
		{0.3, memmodel.TSO, 0.3},
		{-1, memmodel.PSO, 0},
		{-0.5, memmodel.TSO, 0},
	} {
		if got := EffectiveFlushProb(tc.p, tc.model); got != tc.want {
			t.Errorf("EffectiveFlushProb(%g, %v) = %g, want %g", tc.p, tc.model, got, tc.want)
		}
	}
}

// TestLoadCanonicalizes covers how Load completes and checks the run
// description: canonical names, the sequential specification a builtin
// supplies or a memory-safety run drops, and every malformed description.
func TestLoadCanonicalizes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		start   telemetry.RunStart
		wantErr string
		check   func(t *testing.T, start telemetry.RunStart, cfg Config)
	}{
		{
			name:  "builtin fills SeqSpec",
			start: telemetry.RunStart{Model: "PSO", Criterion: "lin", Builtin: "chase-lev", SeqSpec: "queue"},
			check: func(t *testing.T, start telemetry.RunStart, cfg Config) {
				b, _ := progs.ByName("chase-lev")
				if start.SeqSpec != b.SpecName {
					t.Errorf("SeqSpec = %q, want the builtin's %q", start.SeqSpec, b.SpecName)
				}
				if start.Model != "PSO" || start.Criterion != "linearizability" {
					t.Errorf("names not canonical: model %q criterion %q", start.Model, start.Criterion)
				}
				if cfg.Model != memmodel.PSO || cfg.Criterion != spec.Linearizability || cfg.NewSpec == nil {
					t.Errorf("cfg model %v criterion %v spec set %v", cfg.Model, cfg.Criterion, cfg.NewSpec != nil)
				}
				if cfg.CheckGarbage != b.CheckGarbage || cfg.RelaxStealAborts != b.RelaxStealAborts {
					t.Errorf("history-check flags not the builtin's")
				}
			},
		},
		{
			name:  "builtin supplies the garbage check",
			start: telemetry.RunStart{Model: "tso", Criterion: "safety", Builtin: "lifo-iwsq"},
			check: func(t *testing.T, start telemetry.RunStart, cfg Config) {
				if !cfg.CheckGarbage {
					t.Error("CheckGarbage not set for an idempotent WSQ")
				}
			},
		},
		{
			name:  "source safety clears SeqSpec",
			start: telemetry.RunStart{Model: "pso", Criterion: "safety", Source: overFencedMP, SeqSpec: "queue"},
			check: func(t *testing.T, start telemetry.RunStart, cfg Config) {
				if start.SeqSpec != "" || cfg.NewSpec != nil {
					t.Errorf("memory-safety source run kept SeqSpec %q (spec set %v)", start.SeqSpec, cfg.NewSpec != nil)
				}
				if start.Criterion != "memory-safety" {
					t.Errorf("criterion %q not canonical", start.Criterion)
				}
			},
		},
		{
			name:  "source sc uses SeqSpec",
			start: telemetry.RunStart{Model: "tso", Criterion: "sc", Source: overFencedMP, SeqSpec: "queue"},
			check: func(t *testing.T, start telemetry.RunStart, cfg Config) {
				if start.SeqSpec != "queue" || cfg.NewSpec == nil {
					t.Errorf("SeqSpec %q, spec set %v", start.SeqSpec, cfg.NewSpec != nil)
				}
			},
		},
		{name: "unknown model", start: telemetry.RunStart{Model: "arm", Criterion: "sc", Builtin: "chase-lev"}, wantErr: "unknown model"},
		{name: "unknown criterion", start: telemetry.RunStart{Model: "pso", Criterion: "tso", Builtin: "chase-lev"}, wantErr: "unknown criterion"},
		{name: "unknown builtin", start: telemetry.RunStart{Model: "pso", Criterion: "sc", Builtin: "nope"}, wantErr: "unknown benchmark"},
		{name: "unknown seq spec", start: telemetry.RunStart{Model: "pso", Criterion: "sc", Source: overFencedMP, SeqSpec: "heap"}, wantErr: "unknown sequential specification"},
		{name: "missing seq spec", start: telemetry.RunStart{Model: "pso", Criterion: "lin", Source: overFencedMP}, wantErr: "unknown sequential specification"},
		{name: "no program", start: telemetry.RunStart{Model: "pso", Criterion: "safety"}, wantErr: "neither a source program nor a builtin"},
		{name: "bad source", start: telemetry.RunStart{Model: "pso", Criterion: "safety", Source: "int main( {"}, wantErr: ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := tc.start
			prog, cfg, err := Load(&start)
			if tc.check == nil {
				if err == nil {
					t.Fatal("Load succeeded, want an error")
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if prog == nil {
				t.Fatal("no program")
			}
			tc.check(t, start, cfg)
		})
	}
}

// TestLoadMapsEveryField: every RunStart field either shapes the program
// (and is covered above) or reaches the Config. A new RunStart field fails
// this test until Load maps it and the table below names it.
func TestLoadMapsEveryField(t *testing.T) {
	start := telemetry.RunStart{
		Model: "rmo", Criterion: "sc", Builtin: "ms2-queue",
		Seed: 42, Execs: 77, MaxRounds: 5, FlushProb: 0.25, Workers: 3,
		MaxSteps: 5000, MaxIters: 9000, Validate: true, Static: true, CAS: true,
		MinConclusive: 0.75, MaxModels: 12,
	}
	_, cfg, err := Load(&start)
	if err != nil {
		t.Fatal(err)
	}
	mapped := map[string]bool{
		"Model":         cfg.Model.String() == start.Model,
		"Criterion":     cfg.Criterion.String() == start.Criterion,
		"Seed":          cfg.Seed == start.Seed,
		"Execs":         cfg.ExecsPerRound == start.Execs,
		"MaxRounds":     cfg.MaxRounds == start.MaxRounds,
		"FlushProb":     cfg.FlushProb == start.FlushProb,
		"Workers":       cfg.Workers == start.Workers,
		"MaxSteps":      cfg.MaxStepsPerExec == start.MaxSteps,
		"MaxIters":      cfg.MaxItersPerExec == start.MaxIters,
		"Validate":      cfg.ValidateFences == start.Validate,
		"Static":        cfg.StaticPrune == start.Static,
		"CAS":           cfg.EnforceWithCAS == start.CAS,
		"MinConclusive": cfg.MinConclusive == start.MinConclusive,
		"MaxModels":     cfg.MaxModels == start.MaxModels,
		// Program-shaping fields, checked by the other Load tests.
		"SeqSpec": true, "Source": true, "Builtin": true, "Optimize": true,
	}
	var fields []string
	rt := reflect.TypeOf(start)
	for i := 0; i < rt.NumField(); i++ {
		fields = append(fields, rt.Field(i).Name)
	}
	sort.Strings(fields)
	for _, f := range fields {
		ok, known := mapped[f]
		if !known {
			t.Errorf("RunStart.%s is not mapped by Load (or not listed in this test)", f)
		} else if !ok {
			t.Errorf("RunStart.%s does not reach the Config", f)
		}
	}
}

// TestLoadFlushSentinel: a journaled flush probability of 0 is a run that
// never flushed early; it must load as the negative sentinel (0 in a
// Config means "model default") and resolve back to 0.
func TestLoadFlushSentinel(t *testing.T) {
	for _, model := range memmodel.Models() {
		for _, requested := range []float64{-1, 0, 0.3} {
			start := telemetry.RunStart{Model: model.String(), Criterion: "safety", Builtin: "chase-lev",
				FlushProb: EffectiveFlushProb(requested, model)}
			_, cfg, err := Load(&start)
			if err != nil {
				t.Fatal(err)
			}
			if got := EffectiveFlushProb(cfg.FlushProb, model); got != start.FlushProb {
				t.Errorf("%v flush %g: loaded %g resolves to %g, journal says %g",
					model, requested, cfg.FlushProb, got, start.FlushProb)
			}
			if requested < 0 && cfg.FlushProb >= 0 {
				t.Errorf("%v: journaled flush 0 loaded as %g, want the never-flush sentinel", model, cfg.FlushProb)
			}
		}
	}
}

func TestLoadAppliesOptimize(t *testing.T) {
	plain, err := lang.Compile(overFencedMP)
	if err != nil {
		t.Fatal(err)
	}
	start := telemetry.RunStart{Model: "pso", Criterion: "safety", Source: overFencedMP, Optimize: true}
	prog, _, err := Load(&start)
	if err != nil {
		t.Fatal(err)
	}
	if prog.CountInstrs() >= plain.CountInstrs() {
		t.Fatalf("optimized program has %d instructions, unoptimized %d", prog.CountInstrs(), plain.CountInstrs())
	}
	start.Optimize = false
	if prog, _, _ = Load(&start); prog.Disasm() != plain.Disasm() {
		t.Fatal("Load without Optimize changed the compiled program")
	}
}

// TestLoadJournaledRoundTrip: the canonical RunStart Load leaves behind —
// the value a front end journals — loads again to itself and to the same
// Config, which is what makes -resume and explain rebuild the run that
// was recorded.
func TestLoadJournaledRoundTrip(t *testing.T) {
	for _, start := range []telemetry.RunStart{
		{Model: "tso", Criterion: "sc", Builtin: "chase-lev", FlushProb: 0.1, Validate: true, Seed: 3},
		{Model: "Rmo", Criterion: "lin", Source: overFencedMP, SeqSpec: "queue", MaxIters: 500, Optimize: true},
		{Model: "pso", Criterion: "memory-safety", Source: overFencedMP, SeqSpec: "deque", Static: true, CAS: true},
	} {
		first := start
		prog1, cfg1, err := Load(&first)
		if err != nil {
			t.Fatal(err)
		}
		second := first
		prog2, cfg2, err := Load(&second)
		if err != nil {
			t.Fatal(err)
		}
		if second != first {
			t.Errorf("reloading %+v rewrote it to %+v", first, second)
		}
		cfg1.NewSpec, cfg2.NewSpec = nil, nil // funcs never compare equal
		if !reflect.DeepEqual(cfg1, cfg2) {
			t.Errorf("%s/%s: reloaded config %+v, first %+v", start.Model, start.Criterion, cfg2, cfg1)
		}
		if prog1.Disasm() != prog2.Disasm() {
			t.Errorf("%s/%s: reloaded program differs", start.Model, start.Criterion)
		}
	}
}

package core

import (
	"strings"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/spec"
)

// buildLivelock builds a program whose worker spins forever, so every
// execution exhausts its step budget — the workload behind the vacuous
// convergence guard.
func buildLivelock(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "x", Size: 1}); err != nil {
		t.Fatal(err)
	}
	b := ir.NewFuncBuilder(p, "spin", 0)
	addr := b.GlobalAddr("x")
	head := b.NextLabel()
	b.Load(addr, "x")
	b.Br(head)
	b.Ret()
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	m := ir.NewFuncBuilder(p, "main", 0)
	tid := m.Fork("spin")
	m.Join(tid)
	m.Ret()
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAllStepLimitIsInconclusive: a program whose executions all hit the
// step limit never sees a violation, but that is not convergence — the
// MinConclusive floor must report OutcomeInconclusive.
func TestAllStepLimitIsInconclusive(t *testing.T) {
	cfg := Config{
		Model:           memmodel.PSO,
		Criterion:       spec.MemorySafety,
		ExecsPerRound:   8,
		MaxRounds:       2,
		MaxStepsPerExec: 2000,
		Seed:            1,
	}
	res, err := Synthesize(buildLivelock(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeInconclusive {
		t.Fatalf("all-step-limit run reported outcome=%v: %s", res.Outcome, res.Summary())
	}
	want := cfg.ExecsPerRound * cfg.MaxRounds
	if res.TotalInconclusive != want || res.TotalExecutions != want {
		t.Errorf("counted %d inconclusive of %d executions, want %d/%d",
			res.TotalInconclusive, res.TotalExecutions, want, want)
	}
	if !strings.Contains(res.Summary(), "outcome=inconclusive") {
		t.Errorf("Summary does not surface the outcome:\n%s", res.Summary())
	}
}

// TestMinConclusiveDisabled: a negative floor restores the legacy
// semantics — a violation-free round converges no matter how little of it
// was conclusive.
func TestMinConclusiveDisabled(t *testing.T) {
	cfg := Config{
		Model:           memmodel.PSO,
		Criterion:       spec.MemorySafety,
		ExecsPerRound:   8,
		MaxRounds:       2,
		MaxStepsPerExec: 2000,
		Seed:            1,
		MinConclusive:   -1,
	}
	res, err := Synthesize(buildLivelock(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeConverged {
		t.Fatalf("disabled floor still blocked convergence: %s", res.Summary())
	}
	if len(res.Rounds) != 1 {
		t.Errorf("legacy semantics should stop after round 1, ran %d", len(res.Rounds))
	}
}

// TestConfigSentinels pins the fill() defaults and the negative sentinels
// of FlushProb, MinConclusive, and MaxModels.
func TestConfigSentinels(t *testing.T) {
	cases := []struct {
		name string
		in   Config
		want func(t *testing.T, c Config)
	}{
		{"tso default flush", Config{Model: memmodel.TSO}, func(t *testing.T, c Config) {
			if c.FlushProb != 0.1 {
				t.Errorf("FlushProb = %v, want 0.1", c.FlushProb)
			}
		}},
		{"pso default flush", Config{Model: memmodel.PSO}, func(t *testing.T, c Config) {
			if c.FlushProb != 0.5 {
				t.Errorf("FlushProb = %v, want 0.5", c.FlushProb)
			}
		}},
		{"explicit zero flush", Config{Model: memmodel.TSO, FlushProb: -1}, func(t *testing.T, c Config) {
			if c.FlushProb != 0 {
				t.Errorf("FlushProb = %v, want explicit 0", c.FlushProb)
			}
		}},
		{"explicit flush kept", Config{FlushProb: 0.25}, func(t *testing.T, c Config) {
			if c.FlushProb != 0.25 {
				t.Errorf("FlushProb = %v, want 0.25", c.FlushProb)
			}
		}},
		{"conclusive default", Config{}, func(t *testing.T, c Config) {
			if c.MinConclusive != 0.5 {
				t.Errorf("MinConclusive = %v, want 0.5", c.MinConclusive)
			}
		}},
		{"conclusive disabled", Config{MinConclusive: -1}, func(t *testing.T, c Config) {
			if c.MinConclusive != 0 {
				t.Errorf("MinConclusive = %v, want 0 (disabled)", c.MinConclusive)
			}
		}},
		{"conclusive kept", Config{MinConclusive: 0.8}, func(t *testing.T, c Config) {
			if c.MinConclusive != 0.8 {
				t.Errorf("MinConclusive = %v, want 0.8", c.MinConclusive)
			}
		}},
		{"models default", Config{}, func(t *testing.T, c Config) {
			if c.MaxModels != 4096 {
				t.Errorf("MaxModels = %v, want 4096", c.MaxModels)
			}
		}},
		{"models unlimited", Config{MaxModels: -1}, func(t *testing.T, c Config) {
			if c.MaxModels != 0 {
				t.Errorf("MaxModels = %v, want 0 (unlimited)", c.MaxModels)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.in
			c.fill()
			tc.want(t, c)
		})
	}
}

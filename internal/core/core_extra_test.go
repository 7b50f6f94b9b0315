package core

import (
	"strings"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/spec"
)

func TestSummaryMentionsEverything(t *testing.T) {
	p, _, _ := buildSPSC(t)
	res, err := Synthesize(p, Config{
		Model:         memmodel.PSO,
		Criterion:     spec.SeqConsistency,
		NewSpec:       spec.NewDeque,
		ExecsPerRound: 300,
		MaxRounds:     6,
		Seed:          42,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	for _, want := range []string{"rounds=", "executions=", "converged=true", "fences inserted: 1", "fence(st-st)"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestRoundStatsRecorded(t *testing.T) {
	p, _, _ := buildSPSC(t)
	res, err := Synthesize(p, Config{
		Model:         memmodel.PSO,
		Criterion:     spec.SeqConsistency,
		NewSpec:       spec.NewDeque,
		ExecsPerRound: 300,
		MaxRounds:     6,
		Seed:          42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("rounds = %d, want >= 2 (repair + clean verification)", len(res.Rounds))
	}
	first := res.Rounds[0]
	if first.Executions != 300 {
		t.Errorf("round 1 executions = %d", first.Executions)
	}
	if first.Violations == 0 || first.Predicates == 0 || first.DistinctClauses == 0 {
		t.Errorf("round 1 stats empty: %+v", first)
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.Violations != 0 {
		t.Errorf("final round has %d violations but synthesis converged", last.Violations)
	}
	total := 0
	for _, r := range res.Rounds {
		total += r.Executions
	}
	if total != res.TotalExecutions {
		t.Errorf("execution accounting: %d vs %d", total, res.TotalExecutions)
	}
}

func TestNoMinimizeEnforcesMore(t *testing.T) {
	run := func(noMin bool) int {
		p, _, _ := buildSPSC(t)
		res, err := Synthesize(p, Config{
			Model:         memmodel.PSO,
			Criterion:     spec.SeqConsistency,
			NewSpec:       spec.NewDeque,
			ExecsPerRound: 300,
			MaxRounds:     6,
			Seed:          42,
			NoMinimize:    noMin,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeConverged {
			t.Fatalf("noMin=%v did not converge", noMin)
		}
		return res.SynthesizedFences
	}
	min := run(false)
	all := run(true)
	if all < min {
		t.Errorf("NoMinimize inserted fewer fences (%d) than minimized (%d)", all, min)
	}
}

func TestCheckOnlyZeroOnRepairedEvenWithHighBudget(t *testing.T) {
	p, storeItems, _ := buildSPSC(t)
	if _, err := p.InsertFenceAfter(storeItems, ir.FenceStoreStore); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: memmodel.PSO, Criterion: spec.SeqConsistency, NewSpec: spec.NewDeque, Seed: 9}
	if v := CheckOnly(p, cfg, 800); v != 0 {
		t.Errorf("hand-fenced program violates %d/800", v)
	}
}

func TestViolationDescriptionForHistories(t *testing.T) {
	p, _, _ := buildSPSC(t)
	res, err := Synthesize(p, Config{
		Model:         memmodel.PSO,
		Criterion:     spec.SeqConsistency,
		NewSpec:       spec.NewDeque,
		ExecsPerRound: 300,
		MaxRounds:     6,
		Seed:          42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Witness == nil {
		t.Fatal("no witness")
	}
	if !strings.Contains(res.WitnessViolation, "take") && !strings.Contains(res.WitnessViolation, "violation") {
		t.Errorf("witness description uninformative: %q", res.WitnessViolation)
	}
}

package eval

import (
	"fmt"
	"strings"

	"dfence/internal/core"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
)

// Fig4Point is one point of Figure 4: how many fences synthesis infers for
// the subject benchmark given K executions per round, in multi-round mode
// (repair after each batch of K) or one-round mode (gather everything,
// repair once).
type Fig4Point struct {
	ExecsPerRound int
	OneRound      bool
	Fences        int
	Rounds        int
	Executions    int
	Outcome       core.Outcome
	Inconclusive  int
}

// Fig4Subject is the paper's Figure 4 configuration: Cilk's THE under the
// sequential-consistency specification on PSO.
const Fig4Subject = "cilk-the"

// Fig4 sweeps executions-per-round for both modes. expected is the number
// of fences a converged multi-round run infers (3 for THE); one-round runs
// report however many they manage with a single repair.
func Fig4(ks []int, o Options) ([]Fig4Point, error) {
	o.fill()
	b, err := progs.ByName(Fig4Subject)
	if err != nil {
		return nil, err
	}
	var out []Fig4Point
	for _, mode := range []bool{false, true} { // multi-round, then one-round
		for _, k := range ks {
			cfg := core.Config{
				Model:            memmodel.PSO,
				Criterion:        spec.SeqConsistency,
				NewSpec:          b.NewSpec(),
				RelaxStealAborts: b.RelaxStealAborts,
				ExecsPerRound:    k,
				MaxRounds:        10,
				Seed:             o.Seed,
				Workers:          o.Workers,
			}
			if mode {
				cfg.MaxRounds = 1
			}
			res, err := core.Synthesize(b.Program(), cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig4Point{
				ExecsPerRound: k,
				OneRound:      mode,
				Fences:        res.SynthesizedFences,
				Rounds:        len(res.Rounds),
				Executions:    res.TotalExecutions,
				Outcome:       res.Outcome,
				Inconclusive:  res.TotalInconclusive,
			})
		}
	}
	return out, nil
}

// FormatFig4 renders the sweep.
func FormatFig4(pts []Fig4Point) string {
	var b strings.Builder
	b.WriteString("Figure 4: inferred fences vs executions per round (Cilk THE, SC, PSO)\n")
	fmt.Fprintf(&b, "%-12s %-14s %-8s %-8s %-12s %-14s %-8s\n", "mode", "execs/round", "fences", "rounds", "total execs", "outcome", "inconcl")
	for _, p := range pts {
		mode := "multi-round"
		if p.OneRound {
			mode = "one-round"
		}
		fmt.Fprintf(&b, "%-12s %-14d %-8d %-8d %-12d %-14v %-8d\n", mode, p.ExecsPerRound, p.Fences, p.Rounds, p.Executions, p.Outcome, p.Inconclusive)
	}
	return b.String()
}

// Fig5Point is one point of Figure 5: fences synthesized at a given flush
// probability, split into necessary (survive validation) and redundant.
type Fig5Point struct {
	FlushProb   float64
	Synthesized int
	Needed      int
	Redundant   int
	Violations  int // violations observed in the first round (exposure)
}

// Fig5 sweeps the flush probability for the Figure 5 subject (Cilk THE,
// SC, PSO, K=1000): low probabilities over-fence (redundant predicates
// recur in most buggy executions), high probabilities under-expose.
func Fig5(ps []float64, o Options) ([]Fig5Point, error) {
	return Fig5For(Fig4Subject, spec.SeqConsistency, ps, o)
}

// Fig5For runs the Figure 5 sweep for any benchmark and criterion (the
// redundancy effect is most visible on benchmarks with several distinct
// violation mechanisms, e.g. chase-lev under linearizability).
func Fig5For(bench string, crit spec.Criterion, ps []float64, o Options) ([]Fig5Point, error) {
	o.fill()
	b, err := progs.ByName(bench)
	if err != nil {
		return nil, err
	}
	var out []Fig5Point
	for _, fp := range ps {
		cfg := core.Config{
			Model:            memmodel.PSO,
			Criterion:        crit,
			NewSpec:          b.NewSpec(),
			CheckGarbage:     b.CheckGarbage,
			RelaxStealAborts: b.RelaxStealAborts,
			ExecsPerRound:    o.ExecsPerRound,
			MaxRounds:        o.MaxRounds,
			FlushProb:        fp,
			Seed:             o.Seed,
			Workers:          o.Workers,
			ValidateFences:   true,
		}
		res, err := core.Synthesize(b.Program(), cfg)
		if err != nil {
			return nil, err
		}
		pt := Fig5Point{
			FlushProb:   fp,
			Synthesized: res.SynthesizedFences,
			Needed:      len(res.Fences),
			Redundant:   res.Redundant,
		}
		if len(res.Rounds) > 0 {
			pt.Violations = res.Rounds[0].Violations
		}
		out = append(out, pt)
	}
	return out, nil
}

// FormatFig5 renders the sweep.
func FormatFig5(pts []Fig5Point) string {
	return FormatFig5Titled("Cilk THE, SC, PSO", pts)
}

// FormatFig5Titled renders the sweep with a custom subject description.
func FormatFig5Titled(subject string, pts []Fig5Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: synthesized fences vs flush probability (%s)\n", subject)
	fmt.Fprintf(&b, "%-10s %-12s %-8s %-10s %-18s\n", "flushProb", "synthesized", "needed", "redundant", "round-1 violations")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-10.2f %-12d %-8d %-10d %-18d\n", p.FlushProb, p.Synthesized, p.Needed, p.Redundant, p.Violations)
	}
	return b.String()
}

// SchedulerSweep measures violation exposure vs flush probability for any
// benchmark — the §6.5 study of scheduler vs memory model.
func SchedulerSweep(bench string, model memmodel.Model, crit spec.Criterion, ps []float64, runs int, seed int64) (map[float64]int, error) {
	b, err := progs.ByName(bench)
	if err != nil {
		return nil, err
	}
	out := make(map[float64]int, len(ps))
	for _, fp := range ps {
		cfg := core.Config{
			Model:            model,
			Criterion:        crit,
			NewSpec:          b.NewSpec(),
			CheckGarbage:     b.CheckGarbage,
			RelaxStealAborts: b.RelaxStealAborts,
			FlushProb:        fp,
			Seed:             seed,
		}
		out[fp] = core.CheckOnly(b.Program(), cfg, runs)
	}
	return out, nil
}

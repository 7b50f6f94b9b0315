// Command experiments regenerates the paper's evaluation artifacts:
//
//	experiments -table2            benchmark inventory (Table 2)
//	experiments -table3            fence-inference matrix (Table 3)
//	experiments -table3 -bench X   one Table 3 row
//	experiments -fig4              fences vs executions-per-round (Figure 4)
//	experiments -fig5              fences vs flush probability (Figure 5)
//	experiments -sweep             violation exposure vs flush probability (§6.5)
//	experiments -all               everything
//
// All runs are deterministic for a given -seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dfence/internal/eval"
	"dfence/internal/memmodel"
	"dfence/internal/profiling"
	"dfence/internal/progs"
	"dfence/internal/spec"
	"dfence/internal/telemetry"
	"dfence/internal/trace"
)

func main() {
	var (
		table2 = flag.Bool("table2", false, "print the benchmark inventory (Table 2)")
		table3 = flag.Bool("table3", false, "run the fence-inference matrix (Table 3)")
		fig4   = flag.Bool("fig4", false, "run the executions-per-round sweep (Figure 4)")
		fig5   = flag.Bool("fig5", false, "run the flush-probability sweep (Figure 5)")
		sweep  = flag.Bool("sweep", false, "violation exposure vs flush probability (§6.5)")
		all    = flag.Bool("all", false, "run everything")
		bench  = flag.String("bench", "", "restrict -table3 to one benchmark")
		execs  = flag.Int("execs", 1000, "executions per round (K)")
		seed   = flag.Int64("seed", 1, "base random seed")
		jobs   = flag.Int("j", 0, "parallel workers for the execution engine (0 = NumCPU); artifacts are identical for any value")
		jdir   = flag.String("journal-dir", "", "write one JSONL run journal per Table 3 cell into this directory")
		listen = flag.String("listen", "", "serve /metrics, /runz, /tracez, and /debug/pprof on this address (e.g. :6060)")
		traceF = flag.String("trace", "", "write the run's span trace (Perfetto-loadable JSON) to this file at exit")
		cpuP   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memP   = flag.String("memprofile", "", "write a heap (allocs) profile to this file on exit")
	)
	flag.Parse()
	if !*table2 && !*table3 && !*fig4 && !*fig5 && !*sweep && !*all {
		flag.Usage()
		os.Exit(2)
	}
	stopProf, err := profiling.Start(*cpuP, *memP)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()
	// os.Exit skips deferred calls; error paths below flush profiles first.
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}
	opts := eval.Options{ExecsPerRound: *execs, Seed: *seed, Validate: true, Workers: *jobs}
	var tracer *trace.Tracer
	if *traceF != "" {
		workers := *jobs
		if workers <= 0 {
			workers = runtime.NumCPU()
		}
		tracer = trace.New(trace.Options{Lanes: workers})
		opts.Tracer = tracer
	}
	if *jdir != "" {
		if err := os.MkdirAll(*jdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		opts.JournalDir = *jdir
	}
	if *listen != "" {
		workers := *jobs
		if workers <= 0 {
			workers = runtime.NumCPU()
		}
		opts.Metrics = telemetry.NewMetrics(telemetry.NewRegistry(workers))
		srv := &telemetry.Server{Metrics: opts.Metrics}
		if tracer != nil {
			srv.Tracez = tracer.Summary
		}
		bound, shutdown, err := srv.Start(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "introspection server on http://%s\n", bound)
	}

	if *table2 || *all {
		fmt.Println("== Table 2: benchmarks ==")
		fmt.Println(eval.Table2(progs.All()))
	}
	if *table3 || *all {
		benches := progs.All()
		if *bench != "" {
			b, err := progs.ByName(*bench)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
			benches = []*progs.Benchmark{b}
		}
		fmt.Println("== Table 3: inferred fences ==")
		start := time.Now()
		rows, err := eval.Table3(benches, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Print(eval.FormatTable3(rows))
		fmt.Printf("(%d rows in %.1fs)\n\n", len(rows), time.Since(start).Seconds())
	}
	if *fig4 || *all {
		fmt.Println("== Figure 4 ==")
		pts, err := eval.Fig4([]int{50, 100, 200, 500, 1000, 2000}, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Print(eval.FormatFig4(pts))
		fmt.Println()
	}
	if *fig5 || *all {
		fmt.Println("== Figure 5 ==")
		probs := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98}
		pts, err := eval.Fig5(probs, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Print(eval.FormatFig5(pts))
		fmt.Println()
		// The redundancy effect is most visible on Chase-Lev under
		// linearizability; print it as a second series.
		pts2, err := eval.Fig5For("chase-lev", spec.Linearizability, probs, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Print(eval.FormatFig5Titled("Chase-Lev, linearizability, PSO", pts2))
		fmt.Println()
	}
	if *sweep || *all {
		fmt.Println("== Scheduler sweep (§6.5): chase-lev SC violations per 1000 runs ==")
		probs := []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}
		for _, m := range []memmodel.Model{memmodel.TSO, memmodel.PSO} {
			res, err := eval.SchedulerSweep("chase-lev", m, spec.SeqConsistency, probs, 1000, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
			fmt.Printf("%s: ", m)
			for _, p := range probs {
				fmt.Printf("p=%.2f:%d  ", p, res[p])
			}
			fmt.Println()
		}
	}
	if tracer != nil {
		if err := tracer.WriteJSONFile(*traceF); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: trace:", err)
		}
	}
}

// Command dfence synthesizes memory fences for a concurrent mini-C
// program, the way the paper's DFENCE tool consumed a C algorithm plus a
// client:
//
//	dfence -model pso -spec sc -seq deque program.mc
//
// The program must contain a main function acting as the client (forking
// worker threads that call the algorithm's operations, which are declared
// with the `operation` keyword). The tool repeatedly executes the program
// under the flush-delaying demonic scheduler, repairs the violating
// executions it finds, and prints the inferred fence placements.
//
// Flags:
//
//	-model   memory model: sc, tso, pso (default pso)
//	-spec    criterion: safety, sc, lin (default sc)
//	-seq     sequential spec for sc/lin: deque, wsq-lifo, wsq-fifo, queue, set, alloc
//	-execs   executions per round, K (default 1000)
//	-rounds  maximum repair rounds (default 10)
//	-flush   flush probability (0 = 0.1 tso / 0.5 pso, negative = never flush early)
//	-seed    random seed (default 1)
//	-j       parallel workers for the execution engine (default NumCPU)
//	-validate  prune redundant fences after convergence (default true)
//	-disasm  print the compiled IR and exit
//	-optimize  run the IR optimizer (fold/propagate/DCE) first; the journal
//	         records it, so -resume and explain rebuild the optimized program
//	-builtin use a built-in benchmark instead of a file (e.g. chase-lev)
//	-static  consult the static delay-set analysis: converge with zero
//	         executions when the delay set is empty, and prune proposed
//	         predicates to the static critical cycles
//	-resume  continue an interrupted run from its journal; the program and
//	         all determinism-relevant configuration are taken from the
//	         journal's RunStart record, only -j may differ
//
// SIGINT stops the run gracefully at the next round boundary: the journal
// (if any) ends in a checkpoint covering every completed round, and the
// command prints the `dfence -resume run.jsonl` invocation that continues
// it with zero re-executed work. A second SIGINT aborts immediately.
//
// Telemetry flags (see DESIGN.md, Telemetry):
//
//	-journal      write a JSONL run journal (RunStart, RoundStart,
//	              Violation, SolverResult, FenceChange, RoundEnd,
//	              Converged) that fully reconstructs the run
//	-listen       serve /metrics (OpenMetrics), /runz (JSON run status),
//	              /tracez (live trace summary), and /debug/pprof on this
//	              address (e.g. :6060)
//	-metrics-out  write an OpenMetrics snapshot to this file at exit
//	-trace        write the run's span trace (Chrome trace-event JSON,
//	              viewable in Perfetto) to this file at exit
//	-explain      render the violation witness as a human-readable
//	              interleaving report (also shown automatically when the
//	              program is unfixable)
//
// The `trace` subcommand summarizes a recorded trace file in the
// terminal — per-phase and per-round wall breakdown, worker utilization,
// and portfolio-phase attribution (including deferral-loop spin counts):
//
//	dfence trace run.trace.json
//
// The `analyze` subcommand runs only the static passes — the IR verifier
// and the delay-set analysis — and prints candidate pairs, delay pairs,
// and one witness critical cycle per delay, without executing anything:
//
//	dfence analyze -model pso program.mc
//	dfence analyze -model tso -builtin chase-lev
//
// Verifier findings print to stderr and exit with status 2.
//
// The `explain` subcommand re-renders the violation witnesses of a
// recorded journal — no re-execution, no access to the original source
// file (the journal embeds it):
//
//	dfence explain run.jsonl
//
// The `fuzz` subcommand runs a differential fuzzing campaign: a seeded
// corpus of litmus templates (one per static critical-cycle shape) and
// random mini-C programs is cross-checked between exhaustive
// interleaving+flush enumeration (ground truth), the static delay-set
// analysis, and dynamic synthesis; divergences are shrunk and written as
// reproduction files, and the exit status is nonzero if any occurred:
//
//	dfence fuzz -seed 1 -n 200 -models tso,pso,rmo -out fuzzout
//
// Resilience flags (see DESIGN.md, Resilience):
//
//	-exec-timeout    wall-clock budget per execution (0 = none); runs that
//	                 exceed it count as inconclusive
//	-deadline        wall-clock budget for the whole synthesis (0 = none);
//	                 on expiry the partial rounds are reported as aborted
//	-min-conclusive  floor on the conclusive fraction of a violation-free
//	                 round for it to count as convergence
//	                 (0 = default 0.5, negative = disabled)
//	-max-models      cap on minimal-model enumeration per round
//	                 (0 = default 4096, negative = unlimited)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync"

	"dfence/internal/core"
	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/profiling"
	"dfence/internal/spec"
	"dfence/internal/staticanalysis"
	"dfence/internal/synth"
	"dfence/internal/telemetry"
	"dfence/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "analyze":
			runAnalyze(os.Args[2:])
			return
		case "explain":
			runExplain(os.Args[2:])
			return
		case "fuzz":
			runFuzz(os.Args[2:])
			return
		case "trace":
			runTraceCmd(os.Args[2:])
			return
		}
	}
	var (
		modelF   = flag.String("model", "pso", "memory model: sc, tso, pso")
		specF    = flag.String("spec", "sc", "criterion: safety, sc, lin")
		seqF     = flag.String("seq", "deque", "sequential specification: deque, wsq-lifo, wsq-fifo, queue, set, alloc")
		execs    = flag.Int("execs", 1000, "executions per round (K)")
		rounds   = flag.Int("rounds", 10, "maximum repair rounds")
		flushP   = flag.Float64("flush", 0, "flush probability (0 = model default, negative = never flush early)")
		seed     = flag.Int64("seed", 1, "random seed")
		execTO   = flag.Duration("exec-timeout", 0, "wall-clock budget per execution (0 = none)")
		deadline = flag.Duration("deadline", 0, "wall-clock budget for the whole synthesis (0 = none)")
		minConc  = flag.Float64("min-conclusive", 0, "conclusive fraction a violation-free round needs to converge (0 = default 0.5, negative = disabled)")
		maxMod   = flag.Int("max-models", 0, "cap on minimal-model enumeration per round (0 = default 4096, negative = unlimited)")
		jobs     = flag.Int("j", 0, "parallel workers for the execution engine (0 = NumCPU); results are identical for any value")
		validate = flag.Bool("validate", true, "prune redundant fences after convergence")
		disasm   = flag.Bool("disasm", false, "print compiled IR and exit")
		optimize = flag.Bool("optimize", false, "run the IR optimizer (fold/propagate/DCE) before analysis")
		withCAS  = flag.Bool("cas", false, "enforce predicates with dummy-location CAS instead of fences (TSO only, §4.2)")
		builtin  = flag.String("builtin", "", "use a built-in benchmark (see cmd/experiments -table2)")
		witness  = flag.Bool("witness", false, "print the captured counterexample schedule")
		explainW = flag.Bool("explain", false, "render the violation witness as an interleaving report")
		redund   = flag.Bool("redundant", false, "discover redundant fences in an already-fenced program (§6.3.1) instead of synthesizing")
		static   = flag.Bool("static", false, "consult the static delay-set analysis: skip dynamic rounds when the program is provably robust, and prune proposed predicates to the static critical cycles")
		resumeF  = flag.String("resume", "", "resume an interrupted run from this journal (program and config come from the journal; only -j applies)")
		journalF = flag.String("journal", "", "write a JSONL run journal to this file")
		listenF  = flag.String("listen", "", "serve /metrics, /runz, and /debug/pprof on this address (e.g. :6060)")
		metOut   = flag.String("metrics-out", "", "write an OpenMetrics snapshot to this file at exit")
		traceF   = flag.String("trace", "", "write the run's span trace (Perfetto-loadable JSON) to this file at exit")
		maxIters = flag.Int("max-iters", 0, "deterministic scheduler-iteration budget per execution (0 = none); over-budget runs count as inconclusive")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap (allocs) profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfence:", err)
		os.Exit(1)
	}
	defer stopProf()
	// os.Exit skips deferred calls; error paths below flush profiles first.
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}

	workers := *jobs
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	var (
		start   telemetry.RunStart
		prog    *ir.Program
		cfg     core.Config
		journal *telemetry.Journal
	)
	resuming := *resumeF != ""
	if resuming {
		if *disasm || *redund {
			fmt.Fprintln(os.Stderr, "dfence: -resume cannot be combined with -disasm or -redundant")
			exit(1)
		}
		prog, cfg, journal, err = openResume(*resumeF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfence:", err)
			exit(1)
		}
		if rs := cfg.Resume; rs != nil {
			fmt.Fprintf(os.Stderr, "resuming after round %d (%d executions journaled)\n",
				rs.Round, rs.TotalExecutions)
		} else {
			fmt.Fprintln(os.Stderr, "journal has no checkpoint; starting over from round 1")
		}
	} else {
		model, err := memmodel.ParseModel(*modelF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfence:", err)
			exit(1)
		}
		start = telemetry.RunStart{
			Model:         model.String(),
			Criterion:     *specF,
			SeqSpec:       *seqF,
			Seed:          *seed,
			Execs:         *execs,
			MaxRounds:     *rounds,
			FlushProb:     core.EffectiveFlushProb(*flushP, model),
			Workers:       workers,
			Validate:      *validate,
			Static:        *static,
			CAS:           *withCAS,
			MinConclusive: *minConc,
			MaxModels:     *maxMod,
			MaxIters:      *maxIters,
			Optimize:      *optimize,
		}
		prog, cfg, err = loadRun(&start, *builtin, flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfence:", err)
			exit(1)
		}
		if *disasm {
			fmt.Print(prog.Disasm())
			return
		}
	}
	cfg.Workers = workers
	cfg.ExecTimeout, cfg.Deadline = *execTO, *deadline

	// Telemetry setup. The witness capture sink always runs (it is two
	// type switches per cold event); metrics only when something will read
	// them, and the journal/server only on request.
	wc := &witnessCapture{}
	sinks := []telemetry.Sink{wc}
	if !resuming && *journalF != "" {
		journal, err = telemetry.CreateJournal(*journalF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfence:", err)
			exit(1)
		}
	}
	if journal != nil {
		// Fsync at checkpoints and convergence, so even kill -9 leaves a
		// resumable journal.
		journal.SyncOnCheckpoint(true)
		sinks = append(sinks, journal)
	}
	if *listenF != "" || *metOut != "" {
		cfg.Metrics = telemetry.NewMetrics(telemetry.NewRegistry(workers))
	}
	var tracer *trace.Tracer
	if *traceF != "" {
		tracer = trace.New(trace.Options{Lanes: workers})
		cfg.Tracer = tracer
	}
	if *listenF != "" {
		srv := &telemetry.Server{Metrics: cfg.Metrics}
		if tracer != nil {
			srv.Tracez = tracer.Summary
		}
		bound, shutdown, err := srv.Start(*listenF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfence:", err)
			exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "introspection server on http://%s\n", bound)
	}
	cfg.Sink = telemetry.MultiSink(sinks...)
	finishTelemetry := func() {
		if journal != nil {
			if err := journal.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dfence: journal:", err)
			}
		}
		if *metOut != "" {
			f, err := os.Create(*metOut)
			if err == nil {
				err = cfg.Metrics.Registry.WriteOpenMetrics(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "dfence: metrics-out:", err)
			}
		}
		if tracer != nil {
			if err := tracer.WriteJSONFile(*traceF); err != nil {
				fmt.Fprintln(os.Stderr, "dfence: trace:", err)
			}
		}
	}

	if *redund {
		labels, err := core.FindRedundantFences(prog, cfg, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfence:", err)
			exit(1)
		}
		fmt.Printf("fences in program: %d\n", len(prog.Fences()))
		fmt.Printf("redundant under %v/%v: %d\n", cfg.Model, cfg.Criterion, len(labels))
		for _, l := range labels {
			in := prog.InstrAt(l)
			fn := prog.FuncOf(l)
			fmt.Printf("  %v in %s (line %d)\n", in.Kind, fn.Name, in.Line)
		}
		finishTelemetry()
		return
	}

	if !resuming {
		telemetry.Emit(cfg.Sink, start)
	}

	// First SIGINT: stop at the next round boundary (the journal then ends
	// in a checkpoint and the run is resumable with zero lost work). Second
	// SIGINT: abort immediately.
	interrupt := make(chan struct{})
	cfg.Interrupt = interrupt
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "dfence: interrupt — stopping at the next round boundary (^C again to abort)")
		close(interrupt)
		<-sigCh
		fmt.Fprintln(os.Stderr, "dfence: aborted")
		stopProf()
		os.Exit(130)
	}()

	res, err := core.Synthesize(prog, cfg)
	signal.Stop(sigCh)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfence:", err)
		finishTelemetry()
		exit(1)
	}
	report(res, cfg.Model, cfg.Criterion)
	if res.Interrupted {
		jpath := *journalF
		if resuming {
			jpath = *resumeF
		}
		if jpath != "" {
			fmt.Fprintf(os.Stderr, "dfence: interrupted at a round boundary; continue with:\n  dfence -resume %s\n", jpath)
		} else {
			fmt.Fprintln(os.Stderr, "dfence: interrupted at a round boundary; no -journal was given, so the partial run cannot be resumed")
		}
	}
	if *witness && res.Witness != nil {
		fmt.Printf("witness schedule: %s\n", res.Witness)
	}
	// The full witness explanation: on request, and always embedded in the
	// failure output of an unfixable program (the witness ran against the
	// program before the first fence round, i.e. the loaded program).
	if res.Witness != nil && (*explainW || res.Unfixable) {
		opts := telemetry.ExplainOptions{Desc: res.WitnessViolation}
		if v := wc.witness(); v != nil {
			opts.Round, opts.Seed, opts.Disjunction = v.Round, v.Seed, v.Disjunction
		}
		if txt, eerr := telemetry.ExplainWitness(prog, res.Witness, opts); eerr == nil {
			fmt.Println()
			fmt.Print(txt)
		} else {
			fmt.Fprintln(os.Stderr, "dfence: explain:", eerr)
		}
	}
	finishTelemetry()
	if res.Unfixable {
		exit(3)
	}
	if res.Interrupted {
		exit(130)
	}
}

// openResume rebuilds an interrupted run from its journal: the program
// and configuration from the RunStart record (core.Load), and the
// synthesis position from the last checkpoint (cfg.Resume). The journal
// is truncated past that checkpoint (dropping any torn tail a crash left)
// and reopened for appending, so the resumed run continues the same file.
func openResume(path string) (prog *ir.Program, cfg core.Config, journal *telemetry.Journal, err error) {
	// Lenient pre-read to reject journals that already record a finished
	// run — ResumeJournal would otherwise truncate a completed journal
	// back to its last checkpoint and re-run the tail.
	f, err := os.Open(path)
	if err != nil {
		return
	}
	events, _, err := telemetry.ReadJournalOptions(f, telemetry.ReadOptions{AllowTornTail: true})
	f.Close()
	if err != nil {
		return
	}
	jr := telemetry.SummarizeJournal(events)
	if jr.Start == nil {
		err = fmt.Errorf("%s: journal has no RunStart event; nothing to resume", path)
		return
	}
	if jr.Converged != nil && jr.Converged.Outcome != core.OutcomeAborted.String() {
		err = fmt.Errorf("%s: journal records a completed run (outcome %s); nothing to resume", path, jr.Converged.Outcome)
		return
	}
	if prog, cfg, err = core.Load(jr.Start); err != nil {
		err = fmt.Errorf("%s: %w", path, err)
		return
	}
	journal, kept, err := telemetry.ResumeJournal(path)
	if err != nil {
		return
	}
	if cfg.Resume, err = core.ResumeFromEvents(kept); err != nil {
		journal.Close()
	}
	return
}

// witnessCapture remembers the first journaled Violation that carries a
// trace — the run's witness — so the live explanation can cite its round,
// seed, and repair disjunction without re-deriving them.
type witnessCapture struct {
	mu sync.Mutex
	v  *telemetry.Violation
}

func (wc *witnessCapture) Emit(e telemetry.Event) {
	v, ok := e.(telemetry.Violation)
	if !ok || len(v.Trace) == 0 {
		return
	}
	wc.mu.Lock()
	if wc.v == nil {
		wc.v = &v
	}
	wc.mu.Unlock()
}

func (wc *witnessCapture) witness() *telemetry.Violation {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.v
}

// runExplain implements `dfence explain journal.jsonl`: decode the
// journal (strictly — schema drift is an error, not a shrug), rebuild the
// program it ran from the embedded source or builtin name, re-apply the
// fences each witness's round had already inserted, and render every
// witness as an interleaving report.
func runExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	maxSteps := fs.Int("max-steps", 0, "cap the rendered interleaving (0 = 400; longer replays elide the middle)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dfence explain [-max-steps n] run.jsonl")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dfence explain:", err)
		os.Exit(1)
	}
	events, err := telemetry.ReadJournalFile(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	jr := telemetry.SummarizeJournal(events)
	if jr.Start == nil {
		fail(fmt.Errorf("%s: journal has no RunStart event", fs.Arg(0)))
	}
	prog, cfg, err := core.Load(jr.Start)
	if err != nil {
		fail(fmt.Errorf("%s: %w", fs.Arg(0), err))
	}

	wits := jr.Witnesses()
	if len(wits) == 0 {
		fmt.Printf("%s: %d violation(s) journaled, none with a witness trace\n", fs.Arg(0), len(jr.Violations))
		if jr.Converged != nil {
			fmt.Printf("run outcome: %s after %d round(s), %d executions, %d fence(s)\n",
				jr.Converged.Outcome, jr.Converged.Rounds, jr.Converged.TotalExecutions, jr.Converged.Fences)
		}
		os.Exit(1)
	}
	for i, v := range wits {
		if i > 0 {
			fmt.Println()
		}
		// The witness ran against the program plus every fence inserted in
		// the rounds before its own.
		p := prog.Clone()
		if fences := jr.FencesBefore(v.Round); len(fences) > 0 {
			ins, ferr := telemetry.InsertedFences(fences)
			if ferr != nil {
				fail(ferr)
			}
			if _, ferr := synth.InsertFences(p, ins); ferr != nil {
				fail(ferr)
			}
		}
		txt, eerr := telemetry.ExplainWitness(p, telemetry.TraceFrom(v.Trace, cfg.Model), telemetry.ExplainOptions{
			Round:       v.Round,
			Seed:        v.Seed,
			Desc:        v.Desc,
			Disjunction: v.Disjunction,
			MaxSteps:    *maxSteps,
		})
		if eerr != nil {
			fail(eerr)
		}
		fmt.Print(txt)
	}
	if jr.Converged != nil {
		fmt.Printf("\nrun outcome: %s after %d round(s), %d executions, %d fence(s)\n",
			jr.Converged.Outcome, jr.Converged.Rounds, jr.Converged.TotalExecutions, jr.Converged.Fences)
	}
}

// runAnalyze implements the `dfence analyze` subcommand: verify the
// program's IR and print its static delay-set analysis — thread roots,
// conflict edges, candidate pairs, and the delay pairs on critical cycles
// with one witness cycle each — without running a single execution.
func runAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	var (
		modelF  = fs.String("model", "pso", "memory model: sc, tso, pso, rmo")
		builtin = fs.String("builtin", "", "analyze a built-in benchmark instead of a file")
		fix     = fs.Bool("fix", false, "synthesize a minimum-cost static fence placement and print the fenced program")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dfence analyze [-model sc|tso|pso|rmo] [-fix] program.mc (or -builtin name)")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	// Always canonicalize: lowering materializes a copy of every loaded
	// value, and under load-deferring models that copy is a dependency
	// that kills every ld-class delay pair — for the analysis and the
	// interpreter alike, so analyzing raw lowered IR silently reports
	// load-relaxed programs robust. The fuzz corpus optimizes for the
	// same reason (proggen.Prog.Compile).
	start := telemetry.RunStart{Model: *modelF, Criterion: "safety", Optimize: true}
	prog, cfg, err := loadRun(&start, *builtin, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfence analyze:", err)
		os.Exit(1)
	}
	model := cfg.Model
	if *fix {
		fr, err := staticanalysis.Fix(prog, model)
		if err != nil {
			analyzeFatal(err)
		}
		fmt.Print(fr.Analysis.Report(prog))
		fmt.Print(fr.Report(prog))
		if len(fr.Placements) > 0 {
			fenced := prog.Clone()
			if err := staticanalysis.Apply(fenced, fr.Placements); err != nil {
				fmt.Fprintln(os.Stderr, "dfence analyze:", err)
				os.Exit(1)
			}
			fmt.Println("\nfenced program:")
			fmt.Print(fenced.Disasm())
		}
		return
	}
	res, err := staticanalysis.Analyze(prog, model)
	if err != nil {
		analyzeFatal(err)
	}
	fmt.Print(res.Report(prog))
}

// analyzeFatal prints an analysis error (expanding verifier findings) and
// exits.
func analyzeFatal(err error) {
	var verr *staticanalysis.VerifyError
	if errors.As(err, &verr) {
		fmt.Fprintf(os.Stderr, "dfence analyze: IR verification failed (%d finding(s)):\n", len(verr.Diags))
		for _, d := range verr.Diags {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "dfence analyze:", err)
	os.Exit(1)
}

// loadRun completes start with the program a command line names — the
// -builtin benchmark, or the text of the one mini-C file argument, which
// RunStart embeds so explain and -resume need only the journal — and
// loads it.
func loadRun(start *telemetry.RunStart, builtin string, args []string) (prog *ir.Program, cfg core.Config, err error) {
	if builtin != "" {
		start.Builtin = builtin
		return core.Load(start)
	}
	if len(args) != 1 {
		err = fmt.Errorf("usage: dfence [flags] program.mc (or -builtin name)")
		return
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return
	}
	start.Source = string(src)
	if prog, cfg, err = core.Load(start); err != nil {
		err = fmt.Errorf("%s: %w", args[0], err)
	}
	return
}

// report prints the run header and delegates the body to the unified
// renderer in core (Result.Summary), which cmd/experiments shares — the
// two front-ends cannot drift.
func report(res *core.Result, model memmodel.Model, crit spec.Criterion) {
	fmt.Printf("model=%v spec=%v\n", model, crit)
	fmt.Println(res.Summary())
}

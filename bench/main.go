// Command bench is the repository's benchmark: the dynamic synthesis loop
// measured end to end and layer by layer on four workloads (see
// README.md). Build and run it from the repository root with
//
//	bash bench/run.sh -workload table3 -seed 1 -seconds 20 -trace 0
//
// One workload per invocation prints a detail line (run header, operation
// count, output digests) and, as its last line, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. Without -workload it
// runs every workload as a child process, untraced and then traced, and
// prints one combined JSON document; "bench compare" reads those.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (table3, rmo, enum, service); empty runs all of them as child processes")
	seed := fs.Int64("seed", 1, "seed every workload input derives from")
	seconds := fs.Float64("seconds", 20, "how long an untraced run repeats its pass (at least three passes run)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced rerun")
	traceDir := fs.String("trace-dir", "", "with -trace 1, write the benchmark's spans here as Chrome trace JSON")
	j := fs.Int("j", runtime.NumCPU(), "parallelism: synthesis workers, fuzz and service clients, server job slots")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	case *j < 1 || *seconds < 0:
		fmt.Fprintln(os.Stderr, "bench: -j must be positive and -seconds must not be negative")
		return 2
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1,
		traceDir: *traceDir, j: *j, workDir: ".bench_build",
		probes: probeLimits{budget: 300 * time.Millisecond, serveOps: 40, enumN: 6},
	}
	if cfg.workload == "" {
		return runAll(cfg, stdout)
	}
	detail, res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := printJSONLines(stdout, detail, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		for _, f := range detail.Failures {
			fmt.Fprintln(os.Stderr, "bench: FAIL", f)
		}
		return 1
	}
	return 0
}

func printJSONLines(w io.Writer, vs ...any) error {
	for _, v := range vs {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", data); err != nil {
			return err
		}
	}
	return nil
}

// header identifies what a run measured and on what.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision"`
	J          int     `json:"j"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newHeader(cfg runConfig) header {
	h := header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: "unknown", J: cfg.j, Seed: cfg.seed, Seconds: cfg.seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

// childRun is one child process's output.
type childRun struct {
	Detail runDetail `json:"detail"`
	Result result    `json:"result"`
}

// fullRun is what a run of every workload prints.
type fullRun struct {
	Header    header         `json:"header"`
	Correct   bool           `json:"correct"`
	Workloads []fullWorkload `json:"workloads"`
}

type fullWorkload struct {
	Name     string   `json:"name"`
	Untraced childRun `json:"untraced"`
	Traced   childRun `json:"traced"`
}

// runAll runs each workload in its own child process with tracing off, then
// again traced over exactly the operations the untraced child ran, and
// checks that the two children's output digests agree.
func runAll(cfg runConfig, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	out := fullRun{Header: newHeader(cfg), Correct: true}
	for _, w := range workloads {
		fw := fullWorkload{Name: w.name}
		var err error
		if fw.Untraced, err = runChild(exe, cfg, w.name, false); err == nil {
			fw.Traced, err = runChild(exe, cfg, w.name, true)
		}
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			out.Correct = false
		case !fw.Untraced.Result.Correct || !fw.Traced.Result.Correct:
			out.Correct = false
		case fw.Untraced.Detail.Digest != fw.Traced.Detail.Digest:
			fmt.Fprintf(os.Stderr, "bench: %s: untraced child digest %s, traced child %s\n",
				w.name, fw.Untraced.Detail.Digest, fw.Traced.Detail.Digest)
			out.Correct = false
		}
		out.Workloads = append(out.Workloads, fw)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !out.Correct {
		return 1
	}
	return 0
}

func runChild(exe string, cfg runConfig, workload string, traced bool) (childRun, error) {
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-j", strconv.Itoa(cfg.j), "-trace", "0",
	}
	if traced {
		args[len(args)-1] = "1"
		if cfg.traceDir != "" {
			args = append(args, "-trace-dir", cfg.traceDir)
		}
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return childRun{}, err
	}
	var lines [][]byte
	for _, l := range bytes.Split(stdout, []byte("\n")) {
		if len(bytes.TrimSpace(l)) > 0 {
			lines = append(lines, l)
		}
	}
	if len(lines) < 2 {
		return childRun{}, fmt.Errorf("child %s printed no result: %v", strings.Join(args, " "), err)
	}
	var c childRun
	if err := json.Unmarshal(lines[len(lines)-2], &c.Detail); err != nil {
		return childRun{}, fmt.Errorf("child detail line: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &c.Result); err != nil {
		return childRun{}, fmt.Errorf("child result line: %w", err)
	}
	return c, nil
}

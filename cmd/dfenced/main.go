// dfenced is the long-running synthesis service: a durable job queue in
// front of the DFENCE engine.
//
// Serve mode (the default):
//
//	dfenced -spool /var/lib/dfenced -listen :8753
//
// All state lives in the spool directory. Jobs survive restarts: a job
// that was running when the process died is requeued on the next start
// and resumed from its journal's last checkpoint, so a crash (or kill -9)
// costs at most one round of executions. SIGINT/SIGTERM drains: running
// jobs stop at the next round boundary with a checkpoint on disk, then
// the process exits. A second signal force-exits.
//
// Client subcommands (plain HTTP, so scripts don't need curl):
//
//	dfenced submit [flags] [file.mc]   submit a job, print its id
//	dfenced status <job-id>            print the job record
//	dfenced wait <job-id>              poll until the job is terminal
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dfence/internal/serve"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "submit":
			os.Exit(runSubmit(os.Args[2:]))
		case "status":
			os.Exit(runStatus(os.Args[2:]))
		case "wait":
			os.Exit(runWait(os.Args[2:]))
		}
	}
	os.Exit(runServe(os.Args[1:]))
}

func runServe(argv []string) int {
	fs := flag.NewFlagSet("dfenced", flag.ExitOnError)
	var (
		spoolDir    = fs.String("spool", "dfenced-spool", "spool directory (durable state: job log, journals, traces)")
		listen      = fs.String("listen", "127.0.0.1:8753", "HTTP listen address")
		jobs        = fs.Int("jobs", 2, "concurrent synthesis jobs")
		maxAttempts = fs.Int("max-attempts", 3, "attempts before a job is quarantined")
		queueLimit  = fs.Int("queue-limit", 64, "pending jobs before submissions are shed with 429")
	)
	fs.IntVar(jobs, "j", *jobs, "shorthand for -jobs")
	fs.Parse(argv)

	srv, err := serve.New(serve.Options{
		Dir:         *spoolDir,
		Jobs:        *jobs,
		MaxAttempts: *maxAttempts,
		QueueLimit:  *queueLimit,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfenced: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfenced: %v\n", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}

	srv.Start()
	fmt.Fprintf(os.Stderr, "dfenced: serving on http://%s (spool %s, %d workers)\n",
		ln.Addr(), *spoolDir, *jobs)

	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "dfenced: %v — draining (checkpointing running jobs; signal again to force exit)\n", got)
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "dfenced: forced exit")
			os.Exit(130)
		}()
	case err := <-httpDone:
		fmt.Fprintf(os.Stderr, "dfenced: http server: %v\n", err)
		return 1
	}

	// Drain the queue first so /readyz flips and running jobs checkpoint,
	// then stop accepting HTTP. Jobs stop at round boundaries, so the
	// ceiling here only guards against a wedged worker.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "dfenced: drain: %v\n", err)
	}
	_ = hs.Shutdown(ctx)
	fmt.Fprintln(os.Stderr, "dfenced: drained; queued and running jobs resume on next start")
	return 0
}

// client plumbing ------------------------------------------------------------

func apiGet(base, path string, out any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, out)
}

func normalizeAddr(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/")
}

func runSubmit(argv []string) int {
	fs := flag.NewFlagSet("dfenced submit", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8753", "dfenced address")
		builtin   = fs.String("builtin", "", "built-in benchmark name instead of a source file")
		model     = fs.String("model", "", "memory model (tso, pso)")
		criterion = fs.String("criterion", "", "robustness criterion (safety, seq)")
		seqSpec   = fs.String("seq-spec", "", "sequential spec for -criterion seq")
		seed      = fs.Int64("seed", 0, "base random seed")
		execs     = fs.Int("execs", 0, "executions per round")
		rounds    = fs.Int("rounds", 0, "max synthesis rounds")
		wait      = fs.Bool("wait", false, "block until the job is terminal")
	)
	fs.Parse(argv)

	spec := serve.JobSpec{
		Builtin: *builtin, Model: *model, Criterion: *criterion,
		SeqSpec: *seqSpec, Seed: *seed, Execs: *execs, Rounds: *rounds,
	}
	if fs.NArg() > 0 {
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dfenced submit: %v\n", err)
			return 1
		}
		spec.Source = string(src)
	}

	body, err := json.Marshal(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfenced submit: %v\n", err)
		return 1
	}
	base := normalizeAddr(*addr)
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfenced submit: %v\n", err)
		return 1
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		fmt.Fprintf(os.Stderr, "dfenced submit: %s: %s\n", resp.Status, strings.TrimSpace(string(raw)))
		return 1
	}
	var sr struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		FromMemo bool   `json:"from_memo"`
	}
	if err := json.Unmarshal(raw, &sr); err != nil {
		fmt.Fprintf(os.Stderr, "dfenced submit: bad response: %v\n", err)
		return 1
	}
	fmt.Printf("%s\t%s", sr.ID, sr.State)
	if sr.FromMemo {
		fmt.Printf("\tfrom_memo")
	}
	fmt.Println()
	if *wait {
		return waitFor(base, sr.ID)
	}
	return 0
}

func runStatus(argv []string) int {
	fs := flag.NewFlagSet("dfenced status", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8753", "dfenced address")
	fs.Parse(argv)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dfenced status [-addr host:port] <job-id>")
		return 2
	}
	var job json.RawMessage
	if err := apiGet(normalizeAddr(*addr), "/jobs/"+fs.Arg(0), &job); err != nil {
		fmt.Fprintf(os.Stderr, "dfenced status: %v\n", err)
		return 1
	}
	os.Stdout.Write(append(job, '\n'))
	return 0
}

func runWait(argv []string) int {
	fs := flag.NewFlagSet("dfenced wait", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8753", "dfenced address")
	fs.Parse(argv)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dfenced wait [-addr host:port] <job-id>")
		return 2
	}
	return waitFor(normalizeAddr(*addr), fs.Arg(0))
}

// waitFor polls the job until it reaches a terminal state, then prints the
// full record. Exit code 0 only for done.
func waitFor(base, id string) int {
	for {
		var job struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := apiGet(base, "/jobs/"+id, &job); err != nil {
			fmt.Fprintf(os.Stderr, "dfenced wait: %v\n", err)
			return 1
		}
		switch job.State {
		case "done":
			os.Stdout.Write(append(job.Result, '\n'))
			return 0
		case "failed", "quarantined":
			fmt.Fprintf(os.Stderr, "dfenced wait: job %s %s: %s\n", id, job.State, job.Error)
			return 1
		}
		time.Sleep(200 * time.Millisecond)
	}
}

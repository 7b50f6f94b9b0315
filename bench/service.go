package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"time"

	"dfence/internal/core"
	"dfence/internal/ir"
	"dfence/internal/lang"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/serve"
	"dfence/internal/spec"
	"dfence/internal/trace"
)

// serviceExecs is each job's executions per round: a quarter of the
// default, so that a job's own synthesis takes a few milliseconds, the
// service's per-job cost is a visible share of its latency, and a pass has
// enough jobs for a steady p90.
const serviceExecs = 250

// serviceMix is the service workload's job mix: the builtins that have a
// sequential specification × TSO/PSO × safety/SC, one execution worker per
// job. michael-alloc is left out because one of its PSO jobs takes over
// ten times as long as the others and would set the tail percentiles by
// itself.
func serviceMix() []serve.JobSpec {
	var mix []serve.JobSpec
	for _, b := range []string{"chase-lev", "cilk-the", "lifo-wsq", "fifo-wsq", "anchor-wsq", "ms2-queue", "msn-queue", "lazylist-set", "harris-set"} {
		for _, m := range []string{"tso", "pso"} {
			for _, c := range []string{"safety", "sc"} {
				mix = append(mix, serve.JobSpec{Builtin: b, Model: m, Criterion: c, Execs: serviceExecs, Workers: 1})
			}
		}
	}
	return mix
}

// serviceRunner submits jobs to an in-process server on a fresh spool and
// polls each until it is terminal, as a dfenced client would.
type serviceRunner struct {
	e     env
	mix   []serve.JobSpec
	progs map[string]*ir.Program // the mix's builtins, for the layer probes
	dir   string
	srv   *serve.Server

	mu     sync.Mutex
	cond   *sync.Cond
	recs   map[int]*jobRec
	closed bool
}

// jobRec is one operation's job as the client saw it.
type jobRec struct {
	id      string
	state   serve.JobState
	memo    bool
	latency time.Duration // Submit → terminal state
	result  *serve.JobResult
}

func newServiceRunner(e env, mix []serve.JobSpec) (*serviceRunner, error) {
	compiled := map[string]*ir.Program{}
	for _, js := range mix {
		if compiled[js.Builtin] != nil {
			continue
		}
		b, err := progs.ByName(js.Builtin)
		if err != nil {
			return nil, err
		}
		if compiled[js.Builtin], err = lang.Compile(b.Source); err != nil {
			return nil, fmt.Errorf("compile %s: %w", b.Name, err)
		}
	}
	dir, err := os.MkdirTemp(e.dir, "spool-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Dir: dir, Jobs: e.j})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	r := &serviceRunner{e: e, mix: mix, progs: compiled, dir: dir, srv: srv, recs: map[int]*jobRec{}}
	r.cond = sync.NewCond(&r.mu)
	return r, nil
}

// original is the job that a resubmission (i ≡ 3 mod 4) repeats: job
// i−15, or job i−3 among the first fifteen. Reaching that far back means
// the original has nearly always finished when the resubmission is handed
// out, so its client seldom idles waiting for it.
func original(i int) int {
	if i >= 15 {
		return i - 15
	}
	return i - 3
}

// specFor is operation i's job. Every 4th job (i ≡ 3 mod 4) resubmits an
// earlier one, which the memo must answer. The others walk the mix in
// seeded shuffles, one full mix per len(mix) of them, so every pass runs
// each kind of job equally often; each gets its own synthesis seed, and
// every 4th job (i ≡ 1 mod 4) the static pre-pass.
func (r *serviceRunner) specFor(i int) serve.JobSpec {
	if i%4 == 3 {
		return r.specFor(original(i))
	}
	k := i - i/4 // index among the jobs that are not resubmissions
	block := int64(k / len(r.mix))
	perm := rand.New(rand.NewSource(r.e.seed*1_000_003 + block)).Perm(len(r.mix))
	js := r.mix[perm[k%len(r.mix)]]
	js.Seed = r.e.seed*1_000_003 + int64(i) + 1
	js.Static = i%4 == 1
	return js
}

func (r *serviceRunner) record(i int, rec *jobRec) {
	r.mu.Lock()
	r.recs[i] = rec
	r.cond.Broadcast()
	r.mu.Unlock()
}

// wait returns operation k's record once that operation has finished.
// Operation k was handed out before the caller's, so it always finishes.
func (r *serviceRunner) wait(k int) *jobRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.recs[k] == nil {
		r.cond.Wait()
	}
	return r.recs[k]
}

func terminal(s serve.JobState) bool {
	return s == serve.StateDone || s == serve.StateFailed || s == serve.StateQuarantined
}

func (r *serviceRunner) op(i int, sp span) opResult {
	js := r.specFor(i)
	var orig *jobRec
	if i%4 == 3 {
		// Resubmit only once the original is terminal, so the answer comes
		// from the memo rather than from coalescing onto a live job. The
		// wait is not part of the job's latency.
		orig = r.wait(original(i))
	}
	rec, err := r.submitAndWait(js, sp)
	r.record(i, rec)
	name := fmt.Sprintf("%s/%s/%s seed=%d static=%v", js.Builtin, js.Criterion, js.Model, js.Seed, js.Static)
	if err != nil {
		return opResult{err: fmt.Errorf("job %d %s: %w", i, name, err), units: 1}
	}
	switch {
	case rec.state != serve.StateDone:
		err = fmt.Errorf("job %d %s ended %s", i, name, rec.state)
	case orig != nil && !rec.memo:
		err = fmt.Errorf("job %d %s: resubmission was not answered from the memo", i, name)
	case orig != nil && !reflect.DeepEqual(rec.result, orig.result):
		err = fmt.Errorf("job %d %s: memo answer differs from job %d's result", i, name, original(i))
	}
	res := opResult{
		out:   fmt.Sprintf("%s state=%s memo=%v %s", name, rec.state, rec.memo, resultText(rec.result)),
		units: 1,
		err:   err,
		lat:   rec.latency,
	}
	if rec.result != nil && (rec.result.Outcome == core.OutcomeConverged.String() || rec.result.Outcome == core.OutcomeUnfixable.String()) {
		res.decided = 1
	}
	return res
}

// submitAndWait submits js and polls the job every millisecond until it is
// terminal.
func (r *serviceRunner) submitAndWait(js serve.JobSpec, sp span) (*jobRec, error) {
	rec := &jobRec{}
	s := sp.child("serve.Submit")
	start := time.Now()
	job, _, err := r.srv.Submit(js)
	s.end()
	if err != nil {
		return rec, err
	}
	rec.id = job.ID
	w := sp.child("serve.JobByID")
	defer w.end()
	for {
		j, ok := r.srv.JobByID(job.ID)
		if !ok {
			return rec, fmt.Errorf("job %s vanished", job.ID)
		}
		if terminal(j.State) {
			rec.latency = time.Since(start)
			rec.state, rec.memo, rec.result = j.State, j.FromMemo, j.Result
			return rec, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// resultText renders the deterministic part of a job result (the summary
// text carries wall times, so it is left out).
func resultText(res *serve.JobResult) string {
	if res == nil {
		return "result=none"
	}
	return fmt.Sprintf("outcome=%s fences=%v synthesized=%d redundant=%d rounds=%d execs=%d unfixable=%v robust=%v",
		res.Outcome, res.Fences, res.SynthesizedFences, res.Redundant, res.Rounds, res.TotalExecutions,
		res.Unfixable, res.StaticallyRobust)
}

// serveStats are the service layer's numbers for the jobs that ran (memo
// answers excluded), read from each job's span trace after the drain: the
// synthesis run (the core.Synthesize span), the attempt's own overhead
// around it (the job span minus the run), and everything the service added
// to the client's latency (latency minus the run: queueing, spool and
// journal writes, polling). The server holds its lock across spool writes,
// so a client cannot time the queue itself by polling.
type serveStats struct {
	runMS, attemptMS, overheadMS []float64
	memo, jobs                   int
}

// finish drains the server, reads the job traces into serveStats, and
// removes the spool.
func (r *serviceRunner) finish() (*serveStats, error) {
	if r.closed {
		return nil, nil
	}
	r.closed = true
	defer os.RemoveAll(r.dir)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := r.srv.Drain(ctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	st := &serveStats{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range r.recs {
		st.jobs++
		if rec.memo {
			st.memo++
			continue
		}
		if rec.id == "" || rec.state != serve.StateDone {
			continue
		}
		d, err := trace.ReadFile(r.srv.TracePath(rec.id))
		if err != nil {
			return nil, fmt.Errorf("job %s trace: %w", rec.id, err)
		}
		runUS, jobUS := -1.0, -1.0
		for _, ev := range d.TraceEvents {
			switch {
			case ev.Ph != "X":
			case ev.Name == trace.SpanRun.String():
				runUS = ev.Dur
			case ev.Name == trace.SpanJob.String():
				jobUS = ev.Dur
			}
		}
		if runUS < 0 || jobUS < 0 {
			return nil, fmt.Errorf("job %s trace lacks its job or run span", rec.id)
		}
		run := runUS / 1e3
		st.runMS = append(st.runMS, run)
		st.attemptMS = append(st.attemptMS, jobUS/1e3-run)
		st.overheadMS = append(st.overheadMS, float64(rec.latency.Nanoseconds())/1e6-run)
	}
	return st, nil
}

func (r *serviceRunner) close() error {
	_, err := r.finish()
	return err
}

// targets are the mix's jobs as direct synthesis inputs, configured the
// way dfenced configures a job.
func (r *serviceRunner) targets() []target {
	var out []target
	for _, js := range r.mix {
		// newServiceRunner resolved every builtin and the mix names only
		// valid models and criteria, so a failure here is a bug.
		b, err := progs.ByName(js.Builtin)
		if err != nil {
			panic(err)
		}
		model, err := memmodel.ParseModel(js.Model)
		if err != nil {
			panic(err)
		}
		crit, _ := spec.ParseCriterion(js.Criterion)
		out = append(out, target{
			name: fmt.Sprintf("%s/%v/%v", js.Builtin, crit, model),
			prog: r.progs[js.Builtin],
			cfg: core.Config{
				Model: model, Criterion: crit,
				NewSpec: b.NewSpec(), CheckGarbage: b.CheckGarbage, RelaxStealAborts: b.RelaxStealAborts,
				ExecsPerRound: serviceExecs, MaxRounds: 10, ValidateFences: true,
			},
		})
	}
	return out
}

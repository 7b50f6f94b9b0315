package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"dfence/internal/core"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
	"dfence/internal/telemetry"
	"dfence/internal/trace"
)

// mailboxSrc is the examples/mailbox.mc program: one st-st fence under
// PSO repairs it, so a completed job must report exactly one fence.
const mailboxSrc = `
int data = 0;
int flag = 0;

void producer() {
  data = 42;
  flag = 1;
}

void consumer() {
  while (!flag) { }
  assert(data == 42);
}

int main() {
  int t1 = fork producer();
  int t2 = fork consumer();
  join t1;
  join t2;
  return 0;
}
`

func mailboxSpec() JobSpec {
	return JobSpec{
		Source:    mailboxSrc,
		Model:     "pso",
		Criterion: "safety",
		Seed:      7,
		Execs:     300,
		Rounds:    6,
		Workers:   4,
	}
}

func newServer(t *testing.T, dir string, mut func(*Options)) *Server {
	t.Helper()
	opts := Options{Dir: dir, Jobs: 2}
	if mut != nil {
		mut(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// waitState polls until the job reaches a terminal state.
func waitState(t *testing.T, s *Server, id string, want JobState) *Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.JobByID(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.State == want {
			return j
		}
		if j.State.terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return nil
}

// TestSubmitRunsToCompletion: a source job runs, converges, and reports
// the mailbox's single store-store fence; the journal survives a strict
// re-read; the memoized resubmission answers without running.
func TestSubmitRunsToCompletion(t *testing.T) {
	s := newServer(t, t.TempDir(), nil)
	s.Start()
	defer drain(t, s)

	job, coalesced, err := s.Submit(mailboxSpec())
	if err != nil {
		t.Fatal(err)
	}
	if coalesced {
		t.Fatal("fresh submission reported coalesced")
	}
	done := waitState(t, s, job.ID, StateDone)
	if done.FromMemo {
		t.Fatal("first run claims a memo hit")
	}
	if done.Result == nil || done.Result.Outcome != "converged" {
		t.Fatalf("job result: %+v", done.Result)
	}
	if len(done.Result.Fences) != 1 || done.Result.Fences[0].Kind != "fence(st-st)" {
		t.Fatalf("mailbox fences = %+v, want one st-st fence", done.Result.Fences)
	}
	if data, err := os.ReadFile(s.JournalPath(job.ID)); err != nil || !strings.Contains(string(data), `"ev":"Converged"`) {
		t.Fatalf("journal unreadable or unterminated: err=%v", err)
	}

	// Identical resubmission: memo answers it, no new run.
	again, coalesced, err := s.Submit(mailboxSpec())
	if err != nil {
		t.Fatal(err)
	}
	if coalesced || !again.FromMemo || again.State != StateDone {
		t.Fatalf("resubmission: coalesced=%v fromMemo=%v state=%s", coalesced, again.FromMemo, again.State)
	}
	if fmt.Sprint(again.Result.Fences) != fmt.Sprint(done.Result.Fences) {
		t.Fatalf("memoized fences %v != original %v", again.Result.Fences, done.Result.Fences)
	}

	// A spec differing only in Workers is the same result — same memo key.
	ws := mailboxSpec()
	ws.Workers = 1
	third, _, err := s.Submit(ws)
	if err != nil {
		t.Fatal(err)
	}
	if !third.FromMemo {
		t.Fatal("worker-count-only change missed the memo")
	}
}

// TestJobTraceRecorded: every completed attempt leaves a span trace in
// the spool that survives the strict trace reader, and the HTTP surface
// serves it at /jobs/{id}/trace (404 for jobs without one).
func TestJobTraceRecorded(t *testing.T) {
	s := newServer(t, t.TempDir(), nil)
	s.Start()
	defer drain(t, s)

	job, _, err := s.Submit(mailboxSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, job.ID, StateDone)
	// The attempt writes its trace on the way out, after publishing Done;
	// draining waits for the worker to return.
	drain(t, s)

	data, err := os.ReadFile(s.TracePath(job.ID))
	if err != nil {
		t.Fatalf("no trace in the spool: %v", err)
	}
	d, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("spooled trace fails the strict reader: %v", err)
	}
	var haveJob, haveRound bool
	for _, ev := range d.TraceEvents {
		switch ev.Name {
		case "job":
			haveJob = true
		case "round":
			haveRound = true
		}
	}
	if !haveJob || !haveRound {
		t.Errorf("trace missing spans: job=%v round=%v", haveJob, haveRound)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/{id}/trace: %d %s", resp.StatusCode, body)
	}
	if _, err := trace.Read(bytes.NewReader(body)); err != nil {
		t.Errorf("served trace fails the strict reader: %v", err)
	}
	if resp, err := http.Get(srv.URL + "/jobs/nope/trace"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: err=%v status=%v", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestSubmitCoalesces: an identical spec submitted while its twin is
// still queued lands on the twin instead of duplicating work.
func TestSubmitCoalesces(t *testing.T) {
	s := newServer(t, t.TempDir(), nil)
	// Workers deliberately not started: the first job stays queued.
	first, _, err := s.Submit(mailboxSpec())
	if err != nil {
		t.Fatal(err)
	}
	second, coalesced, err := s.Submit(mailboxSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !coalesced || second.ID != first.ID {
		t.Fatalf("coalesced=%v id=%s, want true/%s", coalesced, second.ID, first.ID)
	}
}

// TestInvalidSpecFailsPermanently: a job whose source does not compile is
// rejected at submission, and a job map entry never exists for it.
func TestInvalidSpecFailsPermanently(t *testing.T) {
	s := newServer(t, t.TempDir(), nil)
	if _, _, err := s.Submit(JobSpec{Source: "int x = ;"}); err == nil {
		t.Fatal("uncompilable source accepted")
	}
	if _, _, err := s.Submit(JobSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, _, err := s.Submit(JobSpec{Source: mailboxSrc, Builtin: "chase-lev"}); err == nil {
		t.Fatal("source+builtin spec accepted")
	}
}

// TestRetryBackoffAndQuarantine: a hook that fails the first two attempts
// exercises retry-with-backoff into eventual success; a hook that always
// fails drives the job into quarantine after MaxAttempts.
func TestRetryBackoffAndQuarantine(t *testing.T) {
	failures := 2
	s := newServer(t, t.TempDir(), func(o *Options) {
		o.MaxAttempts = 5
		o.BackoffBase = 5 * time.Millisecond
		o.BackoffMax = 20 * time.Millisecond
		o.FaultHook = func(j *Job, attempt int) error {
			if attempt <= failures {
				return fmt.Errorf("injected fault on attempt %d", attempt)
			}
			return nil
		}
	})
	s.Start()
	job, _, err := s.Submit(mailboxSpec())
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, job.ID, StateDone)
	if done.Attempts != 2 {
		t.Fatalf("job recorded %d failed attempts, want 2", done.Attempts)
	}
	if len(done.Result.Fences) != 1 {
		t.Fatalf("post-retry result wrong: %+v", done.Result)
	}
	drain(t, s)

	// Always-failing job: quarantined after MaxAttempts, never done.
	s2 := newServer(t, t.TempDir(), func(o *Options) {
		o.MaxAttempts = 3
		o.BackoffBase = time.Millisecond
		o.BackoffMax = 5 * time.Millisecond
		o.FaultHook = func(*Job, int) error { return fmt.Errorf("always down") }
	})
	s2.Start()
	defer drain(t, s2)
	job2, _, err := s2.Submit(mailboxSpec())
	if err != nil {
		t.Fatal(err)
	}
	q := waitState(t, s2, job2.ID, StateQuarantined)
	if q.Attempts != 3 || !strings.Contains(q.Error, "always down") {
		t.Fatalf("quarantined job: attempts=%d error=%q", q.Attempts, q.Error)
	}
}

// TestQueueLimitSheds: submissions beyond QueueLimit fail with
// ErrOverloaded while distinct earlier jobs sit queued (workers not
// started).
func TestQueueLimitSheds(t *testing.T) {
	s := newServer(t, t.TempDir(), func(o *Options) { o.QueueLimit = 2 })
	for i := 0; i < 2; i++ {
		spec := mailboxSpec()
		spec.Seed = int64(100 + i) // distinct memo keys, no coalescing
		if _, _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	over := mailboxSpec()
	over.Seed = 999
	if _, _, err := s.Submit(over); err != ErrOverloaded {
		t.Fatalf("third submission: err=%v, want ErrOverloaded", err)
	}
}

// TestCrashResumeCompletes: the spool is pre-filled with exactly what a
// SIGKILL-ed dfenced leaves behind — a job log whose last record for the
// job is frozen in "running", and
// a journal cut at the first checkpoint with a torn line after it — and a
// fresh server life must requeue the job, resume from the checkpoint, and
// finish with a Result identical to an uninterrupted run's.
func TestCrashResumeCompletes(t *testing.T) {
	jobSpec := JobSpec{
		Builtin: "chase-lev",
		Model:   "pso", Criterion: "sc",
		Seed: 7, Execs: 300, Rounds: 5, Workers: 4,
	}
	b, err := progs.ByName("chase-lev")
	if err != nil {
		t.Fatal(err)
	}
	refCfg := core.Config{
		Model: memmodel.PSO, Criterion: spec.SeqConsistency, NewSpec: b.NewSpec(),
		CheckGarbage: b.CheckGarbage, RelaxStealAborts: b.RelaxStealAborts,
		ExecsPerRound: 300, MaxRounds: 5, Seed: 7, Workers: 4, ValidateFences: true,
	}
	// Reference run, journaled, straight through core.
	var refJournal strings.Builder
	j := telemetry.NewJournal(&refJournal)
	cfg := refCfg
	cfg.Sink = j
	prog, _, start, err := jobSpec.build()
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(start)
	ref, err := core.Synthesize(b.Program(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ref.Rounds) < 2 {
		t.Fatalf("reference run finished in %d rounds; the crash test needs a checkpoint", len(ref.Rounds))
	}

	// Fabricate the crashed spool: journal truncated just past the first
	// Checkpoint line plus a torn tail, job's last logged record mid-flight.
	dir := t.TempDir()
	sp, _, err := openSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.makeJobDirs(); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(refJournal.String(), "\n")
	var torn strings.Builder
	for _, ln := range lines {
		torn.WriteString(ln)
		if strings.Contains(ln, `"ev":"Checkpoint"`) {
			break
		}
	}
	torn.WriteString(`{"schema":1,"ev":"RoundSt`) // the write the kill interrupted
	const id = "j00000000000000-001"
	if err := os.WriteFile(sp.journalPath(id), []byte(torn.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	crashed := &Job{
		ID: id, Spec: jobSpec, State: StateRunning,
		MemoKey:    memoKey(prog, start),
		SubmitTime: time.Now(), UpdateTime: time.Now(),
	}
	if err := sp.saveJob(crashed); err != nil {
		t.Fatal(err)
	}
	if err := sp.close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the crashed spool.
	s := newServer(t, dir, func(o *Options) { o.Jobs = 1 })
	s.Start()
	defer drain(t, s)
	done := waitState(t, s, id, StateDone)
	if done.FromMemo {
		t.Fatal("resumed job claims a memo hit; it should have run")
	}
	if done.Result.Outcome != ref.Outcome.String() {
		t.Fatalf("resumed outcome %s != reference %s", done.Result.Outcome, ref.Outcome)
	}
	if got, want := fmt.Sprint(done.Result.Fences), fmt.Sprint(telemetry.FencesOf(ref.Fences)); got != want {
		t.Fatalf("resumed fences %s != reference %s", got, want)
	}
	if done.Result.TotalExecutions != ref.TotalExecutions || done.Result.Rounds != len(ref.Rounds) {
		t.Fatalf("resumed counters execs=%d rounds=%d, reference execs=%d rounds=%d",
			done.Result.TotalExecutions, done.Result.Rounds, ref.TotalExecutions, len(ref.Rounds))
	}
	// The resumed journal must be whole again: strictly readable, no torn
	// tail, terminated by the run's Converged event.
	events, err := telemetry.ReadJournalFile(s.JournalPath(id))
	if err != nil {
		t.Fatalf("resumed journal not strictly readable: %v", err)
	}
	if _, ok := events[len(events)-1].(telemetry.Converged); !ok {
		t.Fatalf("resumed journal ends in %s, want Converged", events[len(events)-1].Kind())
	}
}

// TestDrainLeavesConsistentState: draining a busy server returns, and the
// job it interrupts (or lets finish) is in a state a second life can pick
// up — queued resumes, done stays done — converging on the same result.
func TestDrainLeavesConsistentState(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, dir, func(o *Options) { o.Jobs = 1 })
	s.Start()
	jobSpec := JobSpec{
		Builtin: "chase-lev", Model: "pso", Criterion: "sc",
		Seed: 7, Execs: 50000, Rounds: 5, Workers: 2,
	}
	job, _, err := s.Submit(jobSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Drain as soon as the job is off the queue: whichever round boundary
	// the interrupt lands on, the state must be resumable.
	for {
		if j, _ := s.JobByID(job.ID); j != nil && j.State != StateQueued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	drain(t, s)
	j, _ := s.JobByID(job.ID)
	if j.State != StateQueued && j.State != StateDone && j.State != StateRunning {
		t.Fatalf("state after drain: %s", j.State)
	}
	if j.State == StateQueued {
		t.Log("drain interrupted the job mid-run")
	}

	s2 := newServer(t, dir, func(o *Options) { o.Jobs = 1 })
	s2.Start()
	defer drain(t, s2)
	done := waitState(t, s2, job.ID, StateDone)
	if done.Result == nil || len(done.Result.Fences) == 0 {
		t.Fatalf("job finished without fences: %+v", done.Result)
	}
}

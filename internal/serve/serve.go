// Package serve implements dfenced's crash-safe synthesis service: a
// durable job queue over a filesystem spool, per-job supervised execution
// with bounded retry/backoff and permanent-failure quarantine, journal-
// based checkpoint/resume (a job killed mid-run restarts from its last
// completed round, bit-identical to an uninterrupted run), a whole-run
// result memo keyed on the program fingerprint plus the determinism-
// relevant configuration, and a graceful drain that stops in-flight jobs
// at their next round boundary with checkpoints flushed.
//
// Every piece of state a restart needs lives in the spool (see spool.go);
// the Server itself holds only an in-memory mirror. Crash anywhere,
// restart with the same -spool, and New re-discovers the queue: done jobs
// stay done, queued and running jobs requeue, and their journals resume.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dfence/internal/core"
	"dfence/internal/ir"
	"dfence/internal/telemetry"
	"dfence/internal/trace"
)

// Options configures a Server.
type Options struct {
	// Dir is the spool directory (created if missing). Required.
	Dir string
	// Jobs is the number of jobs run concurrently. Default 2.
	Jobs int
	// MaxAttempts quarantines a job after this many transient failures.
	// Default 3.
	MaxAttempts int
	// QueueLimit sheds new submissions (HTTP 429) once this many jobs are
	// queued or running. Default 64.
	QueueLimit int
	// BackoffBase and BackoffMax bound the exponential retry backoff:
	// attempt n waits Base*2^(n-1) (capped at Max) plus up to 25% jitter.
	// Defaults 500ms and 30s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// FaultHook, if non-nil, runs before each job attempt; a non-nil
	// error fails the attempt transiently. The retry/backoff tests' seam.
	FaultHook func(job *Job, attempt int) error
}

func (o *Options) fill() {
	if o.Jobs <= 0 {
		o.Jobs = 2
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 64
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 500 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 30 * time.Second
	}
}

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrDraining: the server is shutting down and accepts no new work.
	ErrDraining = errors.New("serve: draining")
	// ErrOverloaded: the queue is at QueueLimit; retry later.
	ErrOverloaded = errors.New("serve: queue full")
)

// Server is the dfenced job engine. Create with New, start workers with
// Start, stop with Drain.
type Server struct {
	opts    Options
	sp      *spool
	metrics *telemetry.Metrics

	queue   chan string
	drainCh chan struct{}
	wg      sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	timers   map[string]*time.Timer
	tracers  map[string]*trace.Tracer // live per-job tracers (running attempts)
	draining bool
	seq      int64
	rng      *rand.Rand // backoff jitter; guarded by mu
}

// New opens (or creates) the spool and re-discovers its jobs: terminal
// records are kept for status queries, queued and running ones are
// requeued — a record found "running" belonged to a process that died,
// and its journal's last checkpoint is where the rerun will resume.
func New(opts Options) (*Server, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, fmt.Errorf("serve: Options.Dir is required")
	}
	sp, err := openSpool(opts.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		sp:      sp,
		metrics: telemetry.NewMetrics(telemetry.NewRegistry(runtime.NumCPU())),
		queue:   make(chan string, 4096),
		drainCh: make(chan struct{}),
		jobs:    make(map[string]*Job),
		timers:  make(map[string]*time.Timer),
		tracers: make(map[string]*trace.Tracer),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	existing, err := sp.loadJobs()
	if err != nil {
		return nil, err
	}
	for _, j := range existing {
		s.jobs[j.ID] = j
		switch j.State {
		case StateRunning:
			// The previous process died mid-run. Requeue; the run journal's
			// checkpoints make the rerun a resume, not a restart.
			j.State = StateQueued
			j.UpdateTime = time.Now()
			if err := sp.saveJob(j); err != nil {
				return nil, err
			}
			s.enqueue(j.ID)
		case StateQueued:
			s.enqueue(j.ID)
		}
	}
	return s, nil
}

// Start launches the worker pool. Call once.
func (s *Server) Start() {
	for i := 0; i < s.opts.Jobs; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-s.drainCh:
					return
				case id := <-s.queue:
					s.runJob(id)
				}
			}
		}()
	}
}

// Drain stops the server gracefully: no new submissions, retry timers
// cancelled, and every in-flight synthesis told to stop at its next round
// boundary (Config.Interrupt) — where its checkpoint is already flushed
// and fsynced, so the interrupted jobs requeue with zero lost rounds. It
// returns when all workers have exited or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
		for id, t := range s.timers {
			t.Stop()
			delete(s.timers, id)
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// Ready reports whether the server accepts work — the /readyz gate.
func (s *Server) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	return nil
}

// enqueue hands a job id to the worker pool without ever blocking the
// caller: if the channel is momentarily full (a huge spool requeue), the
// send retries on a goroutine that gives up when the server drains.
func (s *Server) enqueue(id string) {
	select {
	case s.queue <- id:
	default:
		go func() {
			select {
			case s.queue <- id:
			case <-s.drainCh:
			}
		}()
	}
}

// newID mints a sortable, restart-unique job id.
func (s *Server) newID() string {
	s.seq++
	return fmt.Sprintf("j%016x-%03x", time.Now().UnixNano(), s.seq&0xfff)
}

// Submit validates and enqueues a job. The flow mirrors what the HTTP
// handler reports: a memo hit returns an already-done job without running
// anything; a submission identical to a live (queued or running) job
// coalesces onto it; otherwise a fresh job is persisted and queued.
// coalesced is true in the second case (including memo hits against a
// terminal job record — the returned job is simply the existing one).
// The returned record is a snapshot: workers keep mutating the live one.
func (s *Server) Submit(spec JobSpec) (job *Job, coalesced bool, err error) {
	prog, _, start, err := spec.build()
	if err != nil {
		return nil, false, err
	}
	key := memoKey(prog, start)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, ErrDraining
	}
	// Coalesce onto a live twin before counting queue depth: pointing the
	// client at existing work costs nothing.
	for _, ej := range s.jobs {
		if ej.MemoKey == key && !ej.State.terminal() {
			cp := *ej
			return &cp, true, nil
		}
	}
	now := time.Now()
	r, ok := s.sp.loadMemo(key)
	if !ok {
		// A finishing job publishes Done before its memo entry is written;
		// answer from its in-memory result rather than run it again.
		for _, ej := range s.jobs {
			if ej.MemoKey == key && ej.State == StateDone && ej.Result != nil {
				r, ok = ej.Result, true
				break
			}
		}
	}
	if ok {
		j := &Job{
			ID: s.newID(), Spec: spec, State: StateDone,
			MemoKey: key, FromMemo: true, Result: r,
			SubmitTime: now, UpdateTime: now,
		}
		if err := s.sp.saveJob(j); err != nil {
			return nil, false, err
		}
		s.jobs[j.ID] = j
		cp := *j
		return &cp, false, nil
	}
	pending := 0
	for _, ej := range s.jobs {
		if !ej.State.terminal() {
			pending++
		}
	}
	if pending >= s.opts.QueueLimit {
		return nil, false, ErrOverloaded
	}
	j := &Job{
		ID: s.newID(), Spec: spec, State: StateQueued,
		MemoKey: key, SubmitTime: now, UpdateTime: now,
	}
	if err := s.sp.saveJob(j); err != nil {
		return nil, false, err
	}
	s.jobs[j.ID] = j
	s.enqueue(j.ID)
	cp := *j
	return &cp, false, nil
}

// Jobs returns a snapshot of every job record, sorted by ID (submission
// order).
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		cp := *j
		out = append(out, &cp)
	}
	sortJobs(out)
	return out
}

// JobByID returns a snapshot of one job.
func (s *Server) JobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	cp := *j
	return &cp, true
}

// JournalPath exposes where a job's run journal lives (for the HTTP
// journal endpoint and the smoke tests).
func (s *Server) JournalPath(id string) string { return s.sp.journalPath(id) }

// TracePath exposes where a job's span-trace file lives (written after
// each attempt; absent until the job has run at least once).
func (s *Server) TracePath(id string) string { return s.sp.tracePath(id) }

// Tracez renders the live span-trace summary of every attempt currently
// running — the body dfenced serves at /tracez.
func (s *Server) Tracez() string {
	s.mu.Lock()
	type entry struct {
		id string
		tr *trace.Tracer
	}
	live := make([]entry, 0, len(s.tracers))
	for id, tr := range s.tracers {
		live = append(live, entry{id, tr})
	}
	s.mu.Unlock()
	if len(live) == 0 {
		return "no jobs running\n"
	}
	sort.Slice(live, func(a, b int) bool { return live[a].id < live[b].id })
	var b strings.Builder
	for _, e := range live {
		fmt.Fprintf(&b, "== job %s ==\n%s\n", e.id, e.tr.Summary())
	}
	return b.String()
}

func sortJobs(jobs []*Job) {
	for i := 1; i < len(jobs); i++ {
		for k := i; k > 0 && jobs[k].ID < jobs[k-1].ID; k-- {
			jobs[k], jobs[k-1] = jobs[k-1], jobs[k]
		}
	}
}

// setState transitions a job under the lock and persists the record. The
// spool write happening inside the lock keeps disk and memory ordered:
// no later transition can overtake an earlier one's persistence.
func (s *Server) setState(j *Job, mut func(*Job)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mut(j)
	j.UpdateTime = time.Now()
	_ = s.sp.saveJob(j) // spool write failure must not take the server down
}

// runJob executes one queued job attempt end to end.
func (s *Server) runJob(id string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.State.terminal() || j.State == StateRunning {
		s.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.UpdateTime = time.Now()
	_ = s.sp.saveJob(j)
	s.mu.Unlock()

	prog, cfg, start, err := j.Spec.build()
	if err != nil {
		// The spec cannot compile; no retry will change that.
		s.setState(j, func(j *Job) { j.State = StateFailed; j.Error = err.Error() })
		return
	}
	if j.MemoKey == "" {
		s.setState(j, func(j *Job) { j.MemoKey = memoKey(prog, start) })
	}
	if r, ok := s.sp.loadMemo(j.MemoKey); ok {
		// An identical job finished (possibly in a previous process life)
		// while this one waited.
		s.setState(j, func(j *Job) { j.State = StateDone; j.FromMemo = true; j.Result = r })
		return
	}

	// Open the run journal: resume it if a previous attempt (or process
	// life) left one behind, otherwise start fresh. A journal too corrupt
	// to resume is discarded — the job simply runs from round one.
	jp := s.sp.journalPath(id)
	var (
		journal *telemetry.Journal
		kept    []telemetry.Event
	)
	if _, serr := os.Stat(jp); serr == nil {
		journal, kept, err = telemetry.ResumeJournal(jp)
		if err != nil {
			os.Remove(jp)
			journal, kept = nil, nil
		}
	}
	if journal == nil {
		journal, err = telemetry.CreateJournal(jp)
		if err != nil {
			s.failTransient(j, fmt.Errorf("create journal: %w", err))
			return
		}
	}
	if len(kept) == 0 {
		journal.Emit(start)
	}
	journal.SyncOnCheckpoint(true)
	if rs, rerr := core.ResumeFromEvents(kept); rerr == nil && rs != nil {
		cfg.Resume = rs
	}
	cfg.Sink = journal
	cfg.Interrupt = s.drainCh
	cfg.Metrics = s.metrics

	// Every attempt gets its own span tracer: the job span's "round" slot
	// carries the attempt number, worker lanes match the job's Workers
	// setting, and the snapshot is written to the spool whatever the
	// outcome — best-effort observability, never job-fatal. While the
	// attempt runs the tracer is also registered for the live /tracez view.
	tracer := trace.New(trace.Options{Lanes: cfg.Workers})
	cfg.Tracer = tracer
	jobSpan := tracer.Begin(0, trace.SpanJob, j.Attempts+1)
	s.mu.Lock()
	s.tracers[id] = tracer
	s.mu.Unlock()
	defer func() {
		jobSpan.End()
		s.mu.Lock()
		delete(s.tracers, id)
		s.mu.Unlock()
		_ = tracer.WriteJSONFile(s.sp.tracePath(id))
	}()

	if hook := s.opts.FaultHook; hook != nil {
		if herr := hook(j, j.Attempts+1); herr != nil {
			journal.Close()
			s.failTransient(j, herr)
			return
		}
	}

	res, panicked, err := superviseSynthesize(prog, cfg)
	if cerr := journal.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("journal: %w", cerr)
	}
	switch {
	case panicked:
		// A panic is containment working, not proof the job is hopeless —
		// retry with backoff, resuming from the journal's last checkpoint.
		s.failTransient(j, err)
	case err != nil:
		// Synthesize errors are deterministic functions of (program,
		// config): rerunning reproduces them, so fail permanently.
		s.setState(j, func(j *Job) { j.State = StateFailed; j.Error = err.Error() })
	case res.Interrupted:
		// Drain landed at a round boundary. Back to the queue with no
		// attempt charged — the next process life resumes the journal.
		s.setState(j, func(j *Job) { j.State = StateQueued })
	default:
		digest := resultDigest(res)
		s.setState(j, func(j *Job) { j.State = StateDone; j.Result = digest; j.Error = "" })
		_ = s.sp.saveMemo(j.MemoKey, digest)
	}
}

// superviseSynthesize contains a panicking synthesis run the way the
// scheduler contains panicking executions: recovered into an error, with
// the panicked bit telling the retry policy it was a crash (transient,
// retry from the last checkpoint) rather than a deterministic refusal
// (permanent).
func superviseSynthesize(prog *ir.Program, cfg core.Config) (res *core.Result, panicked bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, panicked = nil, true
			err = fmt.Errorf("synthesis panicked: %v", p)
		}
	}()
	res, err = core.Synthesize(prog, cfg)
	return res, false, err
}

// failTransient records a failed attempt and either schedules a
// backoff-delayed retry or quarantines the job once MaxAttempts is
// reached. The job is persisted as queued (with NextRetry) before the
// timer starts, so a crash during the backoff window still requeues it at
// the next startup.
func (s *Server) failTransient(j *Job, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.Attempts++
	j.Error = cause.Error()
	j.UpdateTime = time.Now()
	if j.Attempts >= s.opts.MaxAttempts {
		j.State = StateQuarantined
		_ = s.sp.saveJob(j)
		return
	}
	backoff := s.opts.BackoffBase << (j.Attempts - 1)
	if backoff > s.opts.BackoffMax || backoff <= 0 {
		backoff = s.opts.BackoffMax
	}
	// Up to 25% jitter, so a fleet of jobs felled by one cause does not
	// retry in lockstep.
	backoff += time.Duration(s.rng.Int63n(int64(backoff)/4 + 1))
	j.State = StateQueued
	j.NextRetry = time.Now().Add(backoff)
	_ = s.sp.saveJob(j)
	if s.draining {
		return // the record says queued; the next process life retries it
	}
	id := j.ID
	s.timers[id] = time.AfterFunc(backoff, func() {
		s.mu.Lock()
		delete(s.timers, id)
		draining := s.draining
		s.mu.Unlock()
		if !draining {
			s.enqueue(id)
		}
	})
}

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// logLines returns the spool's job log split into its lines.
func logLines(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.SplitAfter(string(bytes.TrimSuffix(data, []byte("\n"))), "\n")
}

// doneRecord is a finished job's log line, as the spool writes it.
func doneRecord(t *testing.T, id, key string) []byte {
	t.Helper()
	now := time.Unix(1700000000, 0).UTC()
	line, err := json.Marshal(&Job{
		ID: id, Spec: mailboxSpec(), State: StateDone, MemoKey: key,
		Result:     &JobResult{Outcome: "converged", Rounds: 2, TotalExecutions: 600, Summary: "s"},
		SubmitTime: now, UpdateTime: now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// runToDone submits spec to a fresh life on dir, waits for it to finish,
// drains, and returns the finished job.
func runToDone(t *testing.T, dir string, spec JobSpec) *Job {
	t.Helper()
	s := newServer(t, dir, nil)
	s.Start()
	job, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, job.ID, StateDone)
	drain(t, s)
	return done
}

// TestSpoolTornTailDropped: a log whose last line was cut mid-append (a
// crash during the write) replays without that line, and the restart
// compacts the torn bytes away.
func TestSpoolTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	a, b := doneRecord(t, "j1", "k1"), doneRecord(t, "j2", "k2")
	torn := doneRecord(t, "j3", "k3")
	log := append(append(append([]byte{}, a...), b...), torn[:len(torn)/2]...)
	if err := os.WriteFile(filepath.Join(dir, "jobs.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newServer(t, dir, nil)
	defer drain(t, s)
	for _, id := range []string{"j1", "j2"} {
		if j, ok := s.JobByID(id); !ok || j.State != StateDone {
			t.Fatalf("job %s lost in replay: %+v", id, j)
		}
	}
	if _, ok := s.JobByID("j3"); ok {
		t.Fatal("the torn record was replayed")
	}
	got, err := os.ReadFile(filepath.Join(dir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte{}, a...), b...); !bytes.Equal(got, want) {
		t.Fatalf("log after restart:\n%s\nwant the two whole records:\n%s", got, want)
	}
}

// TestSpoolCorruptLineFails: an unreadable line that is not the log's
// last cannot be a torn append, so New refuses the spool.
func TestSpoolCorruptLineFails(t *testing.T) {
	dir := t.TempDir()
	log := append(append(doneRecord(t, "j1", "k1"), "{\"id\":\"j2\",\"sta\n"...), doneRecord(t, "j3", "k3")...)
	if err := os.WriteFile(filepath.Join(dir, "jobs.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := New(Options{Dir: dir}); err == nil {
		drain(t, s)
		t.Fatal("New accepted a log with a corrupt record in the middle")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error does not name the corrupt line: %v", err)
	}
}

// TestSpoolRestartsCompact: a life that runs two jobs leaves several
// records per job; the next restart compacts the log to one line per job,
// and a further restart leaves it byte-identical, with the same jobs.
func TestSpoolRestartsCompact(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, dir, nil)
	s.Start()
	var ids []string
	for _, seed := range []int64{7, 8} {
		spec := mailboxSpec()
		spec.Seed = seed
		job, _, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	drain(t, s)
	if n := len(logLines(t, dir)); n <= len(ids) {
		t.Fatalf("first life logged %d records for %d jobs; want one per transition", n, len(ids))
	}

	var lives [2][]*Job
	var logs [2][]byte
	for life := range lives {
		s := newServer(t, dir, nil)
		lives[life] = s.Jobs()
		drain(t, s)
		if n := len(logLines(t, dir)); n != len(ids) {
			t.Fatalf("restart %d left %d log lines for %d jobs", life+1, n, len(ids))
		}
		logs[life], _ = os.ReadFile(filepath.Join(dir, "jobs.log"))
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("a restart on a compacted log rewrote it:\n%s\nthen:\n%s", logs[0], logs[1])
	}
	if !reflect.DeepEqual(lives[0], lives[1]) {
		t.Fatalf("restarts disagree on the jobs:\n%+v\n%+v", lives[0], lives[1])
	}
	for i, j := range lives[1] {
		if j.ID != ids[i] || j.State != StateDone || j.Result == nil {
			t.Fatalf("job %d after restarts: %+v", i, j)
		}
	}
}

// TestMemoAfterRestart: the memo is read from done records, so a
// resubmission in a later life is answered without running, with the
// original job's result.
func TestMemoAfterRestart(t *testing.T) {
	dir := t.TempDir()
	orig := runToDone(t, dir, mailboxSpec())

	s := newServer(t, dir, nil)
	defer drain(t, s)
	again, coalesced, err := s.Submit(mailboxSpec())
	if err != nil {
		t.Fatal(err)
	}
	if coalesced || !again.FromMemo || again.State != StateDone {
		t.Fatalf("resubmission after restart: coalesced=%v fromMemo=%v state=%s", coalesced, again.FromMemo, again.State)
	}
	if !reflect.DeepEqual(again.Result, orig.Result) {
		t.Fatalf("memoized result %+v != original %+v", again.Result, orig.Result)
	}
}

// TestSpoolNextRetry: a job that never retried logs no next_retry at all
// (not the zero time), and a retried job's next_retry survives a restart.
func TestSpoolNextRetry(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, dir, func(o *Options) {
		o.BackoffBase = time.Millisecond
		o.BackoffMax = 5 * time.Millisecond
		o.FaultHook = func(j *Job, attempt int) error {
			if j.Spec.Seed == 8 && attempt == 1 {
				return errors.New("injected fault")
			}
			return nil
		}
	})
	s.Start()
	var ids []string
	for _, seed := range []int64{7, 8} {
		spec := mailboxSpec()
		spec.Seed = seed
		job, _, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	plain, retried := waitState(t, s, ids[0], StateDone), waitState(t, s, ids[1], StateDone)
	drain(t, s)
	if plain.NextRetry != nil || retried.NextRetry == nil || retried.Attempts != 1 {
		t.Fatalf("next_retry: never-retried %v, retried %v after %d failed attempts",
			plain.NextRetry, retried.NextRetry, retried.Attempts)
	}
	for _, line := range logLines(t, dir) {
		var j Job
		if err := json.Unmarshal([]byte(line), &j); err != nil {
			t.Fatal(err)
		}
		if j.ID == ids[0] && strings.Contains(line, "next_retry") {
			t.Errorf("never-retried job logged next_retry: %s", line)
		}
	}

	s = newServer(t, dir, nil)
	defer drain(t, s)
	if j, _ := s.JobByID(ids[0]); j.NextRetry != nil {
		t.Errorf("never-retried job has next_retry %v after restart", j.NextRetry)
	}
	if j, _ := s.JobByID(ids[1]); j.NextRetry == nil || !j.NextRetry.Equal(*retried.NextRetry) {
		t.Errorf("retried job's next_retry after restart = %v, want %v", j.NextRetry, retried.NextRetry)
	}
}

// failingLog fails every append part-way: failWrite writes half the
// record and returns an error (a full disk), otherwise the whole record
// is written and the fsync fails.
type failingLog struct {
	*os.File
	failWrite bool
}

var errInjected = errors.New("injected I/O error")

func (f *failingLog) Write(p []byte) (int, error) {
	if !f.failWrite {
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:len(p)/2])
	return n, errInjected
}

func (f *failingLog) Sync() error {
	if f.failWrite {
		return f.File.Sync()
	}
	return errInjected
}

// TestSpoolFailedAppendRollsBack: an append that fails, in the write or
// in the fsync, leaves the log byte-identical to before, so the next
// append lands right after the last whole record.
func TestSpoolFailedAppendRollsBack(t *testing.T) {
	for _, failWrite := range []bool{true, false} {
		dir := t.TempDir()
		s := newServer(t, dir, nil)
		if _, _, err := s.Submit(mailboxSpec()); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(filepath.Join(dir, "jobs.log"))
		if err != nil {
			t.Fatal(err)
		}
		f := s.sp.log.(*os.File)
		s.sp.log = &failingLog{File: f, failWrite: failWrite}
		spec := mailboxSpec()
		spec.Seed = 8
		if _, _, err := s.Submit(spec); !errors.Is(err, errInjected) {
			t.Fatalf("failWrite=%v: submission over a failing log: err=%v", failWrite, err)
		}
		after, err := os.ReadFile(filepath.Join(dir, "jobs.log"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("failWrite=%v: failed append left the log changed:\n%q\nwant:\n%q", failWrite, after, before)
		}
		s.sp.log = f
		if _, _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
		drain(t, s)
		s2 := newServer(t, dir, nil)
		if n := len(s2.Jobs()); n != 2 {
			t.Fatalf("failWrite=%v: replay found %d jobs, want 2", failWrite, n)
		}
		drain(t, s2)
	}
}

// TestSpoolRefusesFileLayout: a spool holding job records under jobs/
// (the layout before jobs.log) is refused rather than silently emptied.
func TestSpoolRefusesFileLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "j1.json"), doneRecord(t, "j1", "k1"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Dir: dir})
	if err == nil {
		drain(t, s)
		t.Fatal("New accepted a spool in the per-file layout")
	}
	if !strings.Contains(err.Error(), "jobs.log") {
		t.Fatalf("error does not name the layout change: %v", err)
	}
}

// openHandles counts this process's open file descriptors on path, read
// from /proc/self/fd.
func openHandles(t *testing.T, path string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == path {
			n++
		}
	}
	return n
}

// TestDrainClosesJobLog: a fresh spool holds only the job log, and Drain
// leaves no handle open on it.
func TestDrainClosesJobLog(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, dir, nil)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "jobs.log" {
		t.Fatalf("fresh spool holds %q", got)
	}
	path := filepath.Join(dir, "jobs.log")
	if n := openHandles(t, path); n != 1 {
		t.Fatalf("%d handles open on the job log before Drain, want 1", n)
	}
	s.Start()
	drain(t, s)
	if n := openHandles(t, path); n != 0 {
		t.Fatalf("%d handles still open on the job log after Drain", n)
	}
}

// The on-disk spool: dfenced's only durable state.
//
//	<dir>/jobs.log                 every job transition, one JSON Job per line
//	<dir>/journals/<id>.jsonl      the job's run journal (checkpointed)
//	<dir>/traces/<id>.trace.json   the job's span trace (best-effort)
//
// The job log is append-only: each transition appends the job's whole
// record as one line and fsyncs it before the call returns, and the last
// line per ID is the job's state. A done record that carries a Result is
// also the memo entry for its MemoKey, so there is no separate memo
// store. Opening the spool replays the log, drops a torn final line (the
// append a crash interrupted), fails on any other unreadable line, and
// compacts the log to one line per job when it holds superseded records
// or a torn tail. Journals and traces stay per-job files; the journal's
// crash story is the checkpoint/torn-tail machinery in internal/telemetry.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// logFile is the job log's file handle: *os.File, or a wrapper the tests
// use to fail an append part-way.
type logFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

type spool struct {
	dir string
	log logFile
	// end is the log's size after its last complete record: a failed
	// append truncates back to it.
	end int64
	// broken is set when a failed append could not be rolled back; every
	// later append fails with it rather than write past a partial record.
	broken error
}

func (sp *spool) logPath() string              { return filepath.Join(sp.dir, "jobs.log") }
func (sp *spool) journalPath(id string) string { return filepath.Join(sp.dir, "journals", id+".jsonl") }
func (sp *spool) tracePath(id string) string {
	return filepath.Join(sp.dir, "traces", id+".trace.json")
}

// openSpool opens (or creates) the spool in dir and replays its job log.
// It returns the jobs sorted by ID, for a deterministic requeue order.
// On success the log is open for appending; the caller closes it. A fresh
// spool gets only the job log: makeJobDirs adds the rest when a job runs.
func openSpool(dir string) (*spool, []*Job, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := refuseFileLayout(dir); err != nil {
		return nil, nil, err
	}
	sp := &spool{dir: dir}
	data, err := os.ReadFile(sp.logPath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	jobs, records, torn, err := replay(data)
	if err != nil {
		return nil, nil, fmt.Errorf("spool %s: %w", sp.logPath(), err)
	}
	sp.end = int64(len(data))
	if records > len(jobs) || torn {
		var buf bytes.Buffer
		for _, j := range jobs {
			line, err := json.Marshal(j)
			if err != nil {
				return nil, nil, err
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		if err := writeFileAtomic(sp.logPath(), buf.Bytes()); err != nil {
			return nil, nil, err
		}
		sp.end = int64(buf.Len())
	}
	f, err := os.OpenFile(sp.logPath(), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	sp.log = f
	return sp, jobs, nil
}

// makeJobDirs creates the directories of the per-job files, journals/
// and traces/, if they are missing.
func (sp *spool) makeJobDirs() error {
	for _, sub := range []string{"journals", "traces"} {
		if err := os.MkdirAll(filepath.Join(sp.dir, sub), 0o755); err != nil {
			return err
		}
	}
	return nil
}

// refuseFileLayout fails on a spool written in the earlier layout, one
// file per job under jobs/: this version reads only jobs.log, and
// starting on such a spool would silently lose its jobs.
func refuseFileLayout(dir string) error {
	entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil // no jobs/ directory: not the old layout
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			return fmt.Errorf("spool %s: job records under jobs/ are the per-file layout, which this version no longer reads (jobs now live in jobs.log); drain them with the dfenced that wrote them, or start on a new spool", dir)
		}
	}
	return nil
}

// replay folds the job log: the last record per ID wins. Bytes after the
// last newline are a torn tail, the append a crash interrupted, and are
// dropped (torn reports them); any unreadable complete line is an error,
// since a corrupt spool should fail loudly at startup, not silently lose
// jobs. records counts the complete lines read.
func replay(data []byte) (jobs []*Job, records int, torn bool, err error) {
	cut := bytes.LastIndexByte(data, '\n') + 1
	torn = cut < len(data)
	byID := make(map[string]*Job)
	for n, line := range bytes.SplitAfter(data[:cut], []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var j Job
		if err := json.Unmarshal(line, &j); err != nil {
			return nil, 0, false, fmt.Errorf("line %d: %w", n+1, err)
		}
		if j.ID == "" {
			return nil, 0, false, fmt.Errorf("line %d: record has no id", n+1)
		}
		records++
		byID[j.ID] = &j
	}
	for _, j := range byID {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	return jobs, records, torn, nil
}

// saveJob appends a job record to the log and fsyncs it. A failed append
// is truncated away, so a partial record never sits before a later one.
func (sp *spool) saveJob(j *Job) error {
	if sp.broken != nil {
		return sp.broken
	}
	line, err := json.Marshal(j)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	_, err = sp.log.Write(line)
	if err == nil {
		err = sp.log.Sync()
	}
	if err != nil {
		if terr := sp.log.Truncate(sp.end); terr != nil {
			sp.broken = fmt.Errorf("spool: job log left with a partial record: %w", errors.Join(err, terr))
		}
		return err
	}
	sp.end += int64(len(line))
	return nil
}

var errLogClosed = errors.New("spool: job log closed")

// close closes the job log; later appends fail. Closing twice is a no-op.
func (sp *spool) close() error {
	if sp.broken == errLogClosed {
		return nil
	}
	sp.broken = errLogClosed
	return sp.log.Close()
}

// writeFileAtomic replaces path with data via a same-directory temp file
// and rename, fsyncing before the rename so the new content is durable
// when the new name appears.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

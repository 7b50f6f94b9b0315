package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// spans records the benchmark's own spans: one around each public call
// the benchmark makes into the program, kept in memory and written out as
// Chrome trace-event JSON (loadable in Perfetto) when the run ends. A nil
// *spans records nothing, which is how untraced passes stay uninstrumented.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	recs  []spanRec
}

type spanRec struct {
	name   string
	lane   int
	id     int
	parent int
	start  time.Duration
	dur    time.Duration
}

// span is an open span; end closes it. The zero span (from a nil *spans)
// is inert, and so are its children.
type span struct {
	s     *spans
	idx   int
	lane  int
	start time.Time
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span named after the call it wraps. lane separates
// concurrent clients; parent is the enclosing span's id (0 = root).
func (s *spans) begin(name string, lane, parent int) span {
	if s == nil {
		return span{}
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, spanRec{name: name, lane: lane, id: len(s.recs) + 1, parent: parent, start: now.Sub(s.epoch)})
	return span{s: s, idx: len(s.recs) - 1, lane: lane, start: now}
}

// child opens a span caused by sp, on the same lane.
func (sp span) child(name string) span {
	if sp.s == nil {
		return span{}
	}
	return sp.s.begin(name, sp.lane, sp.id())
}

// id is the span's identifier for children (0 for the inert span).
func (sp span) id() int {
	if sp.s == nil {
		return 0
	}
	return sp.idx + 1
}

func (sp span) end() {
	if sp.s == nil {
		return
	}
	d := time.Since(sp.start)
	sp.s.mu.Lock()
	sp.s.recs[sp.idx].dur = d
	sp.s.mu.Unlock()
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the recorded spans as Chrome trace-event JSON: one
// complete ("X") event per span, with its id and its parent's in args, and
// a thread-name record per lane.
func (s *spans) writeChrome(path string) error {
	s.mu.Lock()
	events := make([]chromeEvent, 0, len(s.recs))
	lanes := map[int]bool{}
	for _, r := range s.recs {
		if !lanes[r.lane] {
			lanes[r.lane] = true
			name := "passes and probes"
			if r.lane > 0 {
				name = fmt.Sprintf("client %d", r.lane)
			}
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: r.lane, Args: map[string]any{"name": name}})
		}
		events = append(events, chromeEvent{
			Name: r.name, Ph: "X",
			Ts:  float64(r.start.Nanoseconds()) / 1e3,
			Dur: float64(r.dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: r.lane,
			Args: map[string]any{"id": r.id, "parent": r.parent},
		})
	}
	s.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

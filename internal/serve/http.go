// The dfenced HTTP API.
//
//	POST /jobs               submit a JobSpec; 202 queued, 200 memo hit or
//	                         coalesced onto a live twin, 400 invalid spec,
//	                         429 queue full (with Retry-After), 503 draining
//	GET  /jobs               all job records
//	GET  /jobs/{id}          one job record
//	GET  /jobs/{id}/journal  the job's run journal (JSONL)
//	GET  /jobs/{id}/trace    the job's span trace (Chrome trace-event
//	                         JSON, written after each attempt; load in
//	                         Perfetto or summarize with `dfence trace`)
//	/metrics /runz /tracez /healthz /readyz /debug/pprof/
//	                         the shared introspection surface
//	                         (internal/telemetry.Server); /tracez shows the
//	                         live summaries of running attempts; /readyz
//	                         turns 503 the moment a drain starts, so load
//	                         balancers stop routing before shutdown
//	                         completes
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"

	"dfence/internal/telemetry"
)

// submitResponse is POST /jobs' body.
type submitResponse struct {
	ID        string     `json:"id"`
	State     JobState   `json:"state"`
	FromMemo  bool       `json:"from_memo,omitempty"`
	Coalesced bool       `json:"coalesced,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
}

// Handler returns the service mux: the job API plus the shared telemetry
// introspection endpoints, with readiness wired to the drain state.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/journal", s.handleJournal)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	ts := &telemetry.Server{Metrics: s.metrics, Ready: s.Ready, Tracez: s.Tracez}
	mux.Handle("/", ts.Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, fmt.Sprintf("bad job spec: %v", err), http.StatusBadRequest)
		return
	}
	job, coalesced, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, ErrOverloaded):
		// Shed load the polite way: tell the client when the queue is
		// likely to have moved.
		w.Header().Set("Retry-After", "5")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := submitResponse{
		ID: job.ID, State: job.State,
		FromMemo: job.FromMemo, Coalesced: coalesced, Result: job.Result,
	}
	code := http.StatusAccepted
	if job.State.terminal() || coalesced {
		code = http.StatusOK
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.JobByID(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.JobByID(id); !ok {
		http.NotFound(w, r)
		return
	}
	data, err := os.ReadFile(s.sp.journalPath(id))
	if err != nil {
		http.Error(w, "no journal recorded for this job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	_, _ = w.Write(data)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.JobByID(id); !ok {
		http.NotFound(w, r)
		return
	}
	data, err := os.ReadFile(s.sp.tracePath(id))
	if err != nil {
		http.Error(w, "no trace recorded for this job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// The optional introspection HTTP server behind `dfence -listen`,
// `experiments -listen`, and the dfenced service: a plain net/http mux
// exposing
//
//	/metrics       the metrics registry in OpenMetrics text format
//	/runz          the live run status + merged metrics snapshot as JSON
//	/tracez        the live span-trace summary (404 unless tracing is on)
//	/healthz       process liveness (200 while the server runs)
//	/readyz        readiness (503 while draining or not yet ready)
//	/debug/pprof/  the standard runtime profiles
//
// The server only reads — the registry merges shards on demand and
// Metrics.Run hands out a copy of the event fold under its lock — so
// serving concurrent scrapes during a run is safe and costs the synthesis
// loop nothing.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server exposes a Metrics bundle over HTTP: its registry on /metrics,
// its run view (Metrics.Run) and registry snapshot on /runz. All fields
// are optional: a nil Metrics serves an empty /metrics and an empty /runz,
// and a nil Ready makes /readyz always 200.
type Server struct {
	Metrics *Metrics
	// Ready, when non-nil, gates /readyz: a non-nil error serves 503 with
	// the error text — how dfenced reports "draining" to load balancers.
	Ready func() error
	// Tracez, when non-nil, serves /tracez: the live terminal summary of
	// the run's span tracer (trace.Tracer.Summary). A func field rather
	// than a tracer value keeps this package ignorant of internal/trace.
	Tracez func() string
}

// runzPayload is the /runz response body.
type runzPayload struct {
	Run     RunStatus `json:"run"`
	Metrics Snapshot  `json:"metrics"`
}

// Handler returns the server's mux (exported separately from Start so
// tests can drive it with httptest and embedders can mount it wherever).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/runz", s.serveRunz)
	mux.HandleFunc("/tracez", s.serveTracez)
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/readyz", s.serveReadyz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", s.serveIndex)
	return mux
}

func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	if s.Metrics == nil {
		fmt.Fprint(w, "# EOF\n")
		return
	}
	_ = s.Metrics.Registry.WriteOpenMetrics(w)
}

func (s *Server) serveRunz(w http.ResponseWriter, _ *http.Request) {
	var p runzPayload
	if s.Metrics != nil {
		p.Run = s.Metrics.Run()
		p.Metrics = s.Metrics.Registry.Snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(p)
}

func (s *Server) serveTracez(w http.ResponseWriter, _ *http.Request) {
	if s.Tracez == nil {
		http.Error(w, "tracing not enabled (run with -trace)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.Tracez())
}

// serveHealthz is pure liveness: if this handler runs at all, the process
// is alive. Readiness is /readyz's job.
func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) serveReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Ready != nil {
		if err := s.Ready(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "dfence introspection\n\n  /metrics        OpenMetrics exposition\n  /runz           run status + metrics snapshot (JSON)\n  /tracez         live span-trace summary (text; 404 unless -trace)\n  /healthz        liveness\n  /readyz         readiness\n  /debug/pprof/   runtime profiles\n")
}

// ShutdownGrace bounds how long Start's shutdown function waits for
// in-flight introspection requests before closing their connections.
const ShutdownGrace = 3 * time.Second

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine. It returns the bound address — what to print for
// the user, and what tests dial — and a shutdown function that drains
// gracefully: http.Server.Shutdown with a ShutdownGrace deadline (new
// connections refused, in-flight requests finished), then a hard Close
// for whatever remains (pprof streams can outlive any deadline). Errors
// from the serving goroutine after a successful Listen are dropped: the
// server is advisory and must never take the run down with it.
func (s *Server) Start(addr string) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
		}
	}, nil
}

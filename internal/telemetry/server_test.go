package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func serverFixture() *Server {
	reg := NewRegistry(2)
	m := NewMetrics(reg)
	m.Executions.Add(0, 100)
	m.Violations.Add(1, 7)
	m.CacheHits.Add(0, 90)
	m.CacheMisses.Add(1, 10)
	m.Emit(RoundStart{Round: 1})
	m.Emit(SolverResult{Round: 1, Models: 3, Conflicts: 5, Decisions: 40, Propagations: 200, Restarts: 1, WallUS: 120})
	m.Emit(RoundEnd{Round: 1, Executions: 100, Violations: 7, DistinctClauses: 2})
	m.Emit(FenceChange{Round: 1, Action: "insert", Fences: []Fence{{After: 1, Label: 9, Kind: "fence", Func: "f"}}})
	m.Emit(Converged{Outcome: "converged"})
	return &Server{Metrics: m}
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerMetrics(t *testing.T) {
	code, body := get(t, serverFixture().Handler(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"dfence_executions_total 100", "dfence_violations_total 7", "# EOF"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServerRunz(t *testing.T) {
	code, body := get(t, serverFixture().Handler(), "/runz")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var p struct {
		Run     RunStatus `json:"run"`
		Metrics Snapshot  `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/runz is not JSON: %v\n%s", err, body)
	}
	if p.Run.Executions != 100 || p.Run.Violations != 7 || p.Run.FencesInserted != 1 {
		t.Errorf("run status = %+v", p.Run)
	}
	if p.Run.Outcome != "converged" || p.Run.CacheHits != 90 {
		t.Errorf("terminal fields not folded: %+v", p.Run)
	}
	s := p.Run.Solver
	if s.Rounds != 1 || s.Models != 3 || s.Conflicts != 5 || s.Decisions != 40 ||
		s.Propagations != 200 || s.Restarts != 1 {
		t.Errorf("solver status not folded: %+v", s)
	}
	if len(s.RoundWallUS) != 1 || s.RoundWallUS[0] != 120 || s.Truncated != 0 {
		t.Errorf("solver round wall not folded: %+v", s)
	}
	if len(p.Metrics.Counters) == 0 {
		t.Error("metrics snapshot empty")
	}
}

func TestServerPprofAndIndex(t *testing.T) {
	h := serverFixture().Handler()
	if code, body := get(t, h, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, body := get(t, h, "/"); code != http.StatusOK || !strings.Contains(body, "/runz") {
		t.Errorf("index status %d body %q", code, body)
	}
	if code, _ := get(t, h, "/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", code)
	}
}

// TestServerEmpty: a server without a Metrics bundle must serve
// valid empty responses, not nil-pointer panics.
func TestServerEmpty(t *testing.T) {
	h := (&Server{}).Handler()
	if code, body := get(t, h, "/metrics"); code != http.StatusOK || !strings.Contains(body, "# EOF") {
		t.Errorf("/metrics on empty server: %d %q", code, body)
	}
	if code, _ := get(t, h, "/runz"); code != http.StatusOK {
		t.Errorf("/runz on empty server: %d", code)
	}
}

func TestServerStart(t *testing.T) {
	srv := serverFixture()
	bound, shutdown, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
}

package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, submitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, sr
}

// TestHTTPLifecycle drives the full API surface over httptest: submit,
// poll to done, fetch the record and journal, resubmit into the memo,
// and exercise the introspection endpoints.
func TestHTTPLifecycle(t *testing.T) {
	s := newServer(t, t.TempDir(), nil)
	s.Start()
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specJSON, err := json.Marshal(mailboxSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, sr := postJob(t, ts, string(specJSON))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if sr.ID == "" || sr.State != StateQueued {
		t.Fatalf("submit response: %+v", sr)
	}

	// Poll GET /jobs/{id} until done.
	var job Job
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/jobs/" + sr.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&job)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.State.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.State != StateDone || job.Result == nil || len(job.Result.Fences) != 1 {
		t.Fatalf("job over HTTP: state=%s result=%+v", job.State, job.Result)
	}

	// The journal endpoint serves the full JSONL stream.
	r, err := http.Get(ts.URL + "/jobs/" + sr.ID + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ev":"Converged"`) {
		t.Fatalf("journal endpoint: status=%d body=%q...", r.StatusCode, body[:min(80, len(body))])
	}

	// Resubmission: 200 with from_memo.
	resp2, sr2 := postJob(t, ts, string(specJSON))
	if resp2.StatusCode != http.StatusOK || !sr2.FromMemo {
		t.Fatalf("memo resubmit: status=%d resp=%+v", resp2.StatusCode, sr2)
	}
	if sr2.Result == nil || len(sr2.Result.Fences) != 1 {
		t.Fatalf("memo resubmit carried no result: %+v", sr2)
	}

	// GET /jobs lists both records.
	lr, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []Job
	err = json.NewDecoder(lr.Body).Decode(&all)
	lr.Body.Close()
	if err != nil || len(all) != 2 {
		t.Fatalf("job list: %d records, err=%v", len(all), err)
	}

	// Introspection: healthz always ok, readyz ok while serving, metrics
	// exposition parses as text.
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/runz"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, r.StatusCode)
		}
	}

	// Bad specs are 400s.
	if resp, _ := postJob(t, ts, `{"source":"int x = ;"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("uncompilable source: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJob(t, ts, `{"surprise":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPOverloadAndDrain: queue saturation answers 429 with Retry-After;
// a draining server turns /readyz 503 and rejects submissions with 503.
func TestHTTPOverloadAndDrain(t *testing.T) {
	s := newServer(t, t.TempDir(), func(o *Options) { o.QueueLimit = 1 })
	// Workers not started: the first job wedges the queue at its limit.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first, err := json.Marshal(mailboxSpec())
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJob(t, ts, string(first)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	over := mailboxSpec()
	over.Seed = 999
	overJSON, _ := json.Marshal(over)
	resp, _ := postJob(t, ts, string(overJSON))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	drain(t, s)
	if r, err := http.Get(ts.URL + "/readyz"); err != nil || r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d err=%v, want 503", r.StatusCode, err)
	}
	if r, err := http.Get(ts.URL + "/healthz"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: status %d err=%v, want 200", r.StatusCode, err)
	}
	resp3, _ := postJob(t, ts, string(overJSON))
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp3.StatusCode)
	}
}

// TestRunzCacheHitsAcrossJobs: /runz reports cache hits and misses from the
// same counters /metrics exports, so after two different jobs the run
// section agrees with the cumulative dfence_exec_cache_* counters instead
// of holding only the last job's numbers.
func TestRunzCacheHitsAcrossJobs(t *testing.T) {
	s := newServer(t, t.TempDir(), nil)
	s.Start()
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, seed := range []int64{7, 8} {
		spec := mailboxSpec()
		spec.Seed = seed
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, sr := postJob(t, ts, string(body))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit seed %d: status %d, want 202", seed, resp.StatusCode)
		}
		waitState(t, s, sr.ID, StateDone)
	}

	r, err := http.Get(ts.URL + "/runz")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Run struct {
			CacheHits   int64 `json:"cache_hits"`
			CacheMisses int64 `json:"cache_misses"`
		} `json:"run"`
		Metrics struct {
			Counters []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"counters"`
		} `json:"metrics"`
	}
	err = json.NewDecoder(r.Body).Decode(&p)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	counter := map[string]int64{}
	for _, c := range p.Metrics.Counters {
		counter[c.Name] = c.Value
	}
	if hits := counter["dfence_exec_cache_hits"]; p.Run.CacheHits != hits || hits == 0 {
		t.Errorf("run.cache_hits = %d, dfence_exec_cache_hits = %d (want equal, non-zero)", p.Run.CacheHits, hits)
	}
	if misses := counter["dfence_exec_cache_misses"]; p.Run.CacheMisses != misses {
		t.Errorf("run.cache_misses = %d, dfence_exec_cache_misses = %d (want equal)", p.Run.CacheMisses, misses)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/serve/api"
	"repro/internal/wire"
)

// The two fuzz targets feed untrusted bytes to the service's two decoders —
// the submission body and the status query — through the real handlers. The
// seed corpora are committed under testdata/fuzz and run as plain tests.

// requireRefusal checks that a non-2xx answer is one of the allowed statuses
// and a structured wire.ErrorResponse naming its class.
func requireRefusal(t *testing.T, rec *httptest.ResponseRecorder, allowed map[int]string) {
	t.Helper()
	want, ok := allowed[rec.Code]
	if !ok {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	var er wire.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != want || er.Error == "" {
		t.Fatalf("HTTP %d body %s: want a wire error with code %s (%v)", rec.Code, rec.Body, want, err)
	}
}

// requireTable fails when a request left a job behind: nothing may be active,
// and only what the target put there itself retained.
func requireTable(t *testing.T, s *Server, retained int) {
	t.Helper()
	if active, kept := s.jobs.counts(); active != 0 || kept != retained {
		t.Fatalf("job table holds %d active and %d retained jobs, want 0 and %d", active, kept, retained)
	}
}

// FuzzSubmitDecode posts arbitrary bytes to /v1/jobs on a server whose intake
// is closed: the body decoder and intake (validation, defaults, model parse
// through the cache, query construction, content hash) run in full, and a
// submission they accept is then refused 503 instead of starting a sweep — so
// every input must end in a structured 4xx or that 503, never a panic, and
// never a job.
func FuzzSubmitDecode(f *testing.F) {
	s := New(Config{CPUTokens: 1})
	s.jobs.close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		requireRefusal(t, rec, map[int]string{
			http.StatusBadRequest:            wire.CodeBadRequest,
			http.StatusRequestEntityTooLarge: wire.CodeBodyTooLarge,
			http.StatusServiceUnavailable:    wire.CodeShuttingDown,
		})
		requireTable(t, s, 0)
	})
}

// FuzzStatusQuery sends arbitrary query strings to the status endpoint of a
// finished job (so an accepted wait has nothing to wait for): the answer is
// the status or a 400 bad_request, parseWaitMS never yields a wait outside
// [0, maxStatusWait], the status carries the job's result bytes exactly when
// the query asks with result=1 — a result of any other value is the 400 —
// and the table still holds that one job and no other.
func FuzzStatusQuery(f *testing.F) {
	s := New(Config{CPUTokens: 1})
	j, _ := s.jobs.adopt("fuzzed", api.CompletionEvent{Key: "fuzzed", Kind: "ta", State: StateDone, Result: []byte("{}")})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.id, nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		values, _ := url.ParseQuery(query)
		wait, err := parseWaitMS(values.Get("wait_ms"))
		if wait < 0 || wait > maxStatusWait || (err != nil && wait != 0) {
			t.Fatalf("parseWaitMS(%q) = %v, %v", values.Get("wait_ms"), wait, err)
		}
		badResult := values.Has("result") && values.Get("result") != "1"
		if err != nil || badResult {
			requireRefusal(t, rec, map[int]string{http.StatusBadRequest: wire.CodeBadRequest})
		} else if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d for an acceptable query: %s", rec.Code, rec.Body)
		} else {
			var members map[string]json.RawMessage
			if err := json.Unmarshal(rec.Body.Bytes(), &members); err != nil {
				t.Fatalf("status body %s: %v", rec.Body, err)
			}
			raw, has := members["result"]
			var result []byte
			if has && json.Unmarshal(raw, &result) != nil {
				t.Fatalf("result member %s is not base64 bytes", raw)
			}
			if has != values.Has("result") || (has && string(result) != "{}") {
				t.Fatalf("query %q: status carries result %s (present %v)", query, result, has)
			}
		}
		requireTable(t, s, 1)
	})
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/wire"
)

// statusAnswer is what one GET /v1/jobs/{id} came back with.
type statusAnswer struct {
	code int
	body []byte
	took time.Duration
	err  error
}

// getStatus issues GET /v1/jobs/{id}?query (query verbatim, "" for the plain
// call). It reports failures instead of failing a test, so waiters can run it
// on goroutines of their own.
func getStatus(base, id, query string) (a statusAnswer) {
	url := base + "/v1/jobs/" + id
	if query != "" {
		url += "?" + query
	}
	begin := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		return statusAnswer{err: err}
	}
	defer resp.Body.Close()
	a.code = resp.StatusCode
	a.body, a.err = io.ReadAll(resp.Body)
	a.took = time.Since(begin)
	return a
}

func waitStatus(t *testing.T, base, id, query string) (int, []byte, time.Duration) {
	t.Helper()
	a := getStatus(base, id, query)
	if a.err != nil {
		t.Fatal(a.err)
	}
	return a.code, a.body, a.took
}

// parkThen issues the waiting status call GET /v1/jobs/{id}?query, runs then
// once the server has parked it, and returns what the wait was answered with.
func parkThen(t *testing.T, s *Server, base, id, query string, then func()) (int, []byte, time.Duration) {
	t.Helper()
	got := make(chan statusAnswer, 1)
	go func() { got <- getStatus(base, id, query) }()
	waitParked(t, s, 1)
	then()
	a := <-got
	if a.err != nil {
		t.Fatal(a.err)
	}
	return a.code, a.body, a.took
}

func decodeStatus(t *testing.T, body []byte) StatusResponse {
	t.Helper()
	var st StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding status %s: %v", body, err)
	}
	return st
}

// waitParked blocks until exactly n status requests are parked on s.
func waitParked(t *testing.T, s *Server, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.statusWaiters.Load() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d status waiters parked, want %d", s.statusWaiters.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func cancelJob(t *testing.T, base, id string) {
	t.Helper()
	if code, body := postJSON(t, base+"/v1/jobs/"+id+"/cancel", nil); code != http.StatusOK {
		t.Fatalf("cancel: %d: %s", code, body)
	}
}

// prompt is the slack the tests grant an answer that should come "at once":
// far under any wait they ask for, far over a loaded CI host's scheduling.
const prompt = 2 * time.Second

// TestStatusWait is the table of the waiting status call: what ends a wait,
// and what the caller reads when it ends.
func TestStatusWait(t *testing.T) {
	s, ts := testServer(t, Config{CPUTokens: 1})
	// One token: running holds it, so queued and quick wait behind it.
	running := submit(t, ts.URL, hugeSubmit(47, 0))
	awaitProgress(t, ts.URL, running.JobID, 500, time.Minute)
	queued := submit(t, ts.URL, hugeSubmit(53, 0))
	expiring := submit(t, ts.URL, hugeSubmit(59, 200))
	quick := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: tinyArchModel(t),
		Options: SubmitOptions{HorizonMS: 100}})

	t.Run("non-terminal answers at the timeout", func(t *testing.T) {
		for id, want := range map[string]string{running.JobID: StateRunning, queued.JobID: StateQueued} {
			code, body, took := waitStatus(t, ts.URL, id, "wait_ms=80")
			if code != http.StatusOK {
				t.Fatalf("status: %d: %s", code, body)
			}
			if st := decodeStatus(t, body); st.State != want || st.FinishedAt != nil {
				t.Errorf("%s job after an 80ms wait: %s finished=%v", want, st.State, st.FinishedAt)
			}
			if took < 80*time.Millisecond || took > prompt {
				t.Errorf("%s job: an 80ms wait answered after %v", want, took)
			}
		}
	})

	t.Run("deadline expiry mid-wait", func(t *testing.T) {
		code, body, took := waitStatus(t, ts.URL, expiring.JobID, "wait_ms=30000")
		st := decodeStatus(t, body)
		if code != http.StatusOK || st.State != StateFailed || st.Error != wire.CodeDeadlineExceeded {
			t.Fatalf("expired job: HTTP %d %s (%q), want failed (DeadlineExceeded)", code, st.State, st.Error)
		}
		if took > prompt {
			t.Errorf("a 200ms deadline ended the wait after %v", took)
		}
	})

	t.Run("unknown id is 404 without waiting", func(t *testing.T) {
		code, body, took := waitStatus(t, ts.URL, "nope", "wait_ms=30000")
		var er wire.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || code != http.StatusNotFound || er.Code != wire.CodeNotFound {
			t.Errorf("unknown id: HTTP %d %s", code, body)
		}
		if took > prompt {
			t.Errorf("unknown id answered after %v", took)
		}
	})

	t.Run("malformed wait_ms is 400", func(t *testing.T) {
		for _, v := range []string{"-1", "abc", "1e3", "1.5", "0x10", "%205", "99999999999999999999"} {
			code, body, _ := waitStatus(t, ts.URL, running.JobID, "wait_ms="+v)
			var er wire.ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || code != http.StatusBadRequest || er.Code != wire.CodeBadRequest {
				t.Errorf("wait_ms=%s: HTTP %d %s, want 400 %s", v, code, body, wire.CodeBadRequest)
			}
		}
	})

	t.Run("cancel mid-wait", func(t *testing.T) {
		code, body, took := parkThen(t, s, ts.URL, queued.JobID, "wait_ms=30000", func() { cancelJob(t, ts.URL, queued.JobID) })
		if st := decodeStatus(t, body); code != http.StatusOK || st.State != StateCanceled {
			t.Fatalf("canceled job: HTTP %d %s (%q)", code, st.State, st.Error)
		}
		if took > prompt {
			t.Errorf("the wait was answered %v after it began", took)
		}
	})

	t.Run("finishing mid-wait answers at the finish", func(t *testing.T) {
		// quick is queued behind running; canceling running lets it through.
		code, body, _ := parkThen(t, s, ts.URL, quick.JobID, "wait_ms=30000", func() { cancelJob(t, ts.URL, running.JobID) })
		answered := time.Now()
		st := decodeStatus(t, body)
		if code != http.StatusOK || st.State != StateDone || st.FinishedAt == nil {
			t.Fatalf("quick job: HTTP %d %s (%q)", code, st.State, st.Error)
		}
		// A few ms in practice; the bound only has to tell a wake-up from a
		// poll interval or the timeout.
		if lag := answered.Sub(*st.FinishedAt); lag > 100*time.Millisecond {
			t.Errorf("answer reached the caller %v after finished_at", lag)
		}
	})

	t.Run("terminal answers at once, above the cap is clamped", func(t *testing.T) {
		_, plain, _ := waitStatus(t, ts.URL, quick.JobID, "")
		for _, q := range []string{"wait_ms=30000", "wait_ms=86400000", "wait_ms=0", "wait_ms="} {
			code, body, took := waitStatus(t, ts.URL, quick.JobID, q)
			if code != http.StatusOK || took > prompt {
				t.Errorf("%s on a done job: HTTP %d after %v", q, code, took)
			}
			if string(body) != string(plain) {
				t.Errorf("%s renders a different body than the plain call:\n%s\n%s", q, body, plain)
			}
		}
		if d, err := parseWaitMS("86400000"); err != nil || d != maxStatusWait {
			t.Errorf("parseWaitMS above the cap = %v, %v; want %v", d, err, maxStatusWait)
		}
	})

	if n := s.statusWaiters.Load(); n != 0 {
		t.Errorf("%d status waiters left parked", n)
	}
}

// TestStatusWaitHerd parks 64 waiters on one job and ends it once: every one
// of them wakes on that single finish with the terminal state, and the two
// status families account for exactly what happened.
func TestStatusWaitHerd(t *testing.T) {
	const herd = 64
	s, ts := testServer(t, Config{CPUTokens: 1})
	sr := submit(t, ts.URL, hugeSubmit(61, 0))
	before := s.statusRequests.Load()

	answers := make([]statusAnswer, herd)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i] = getStatus(ts.URL, sr.JobID, "wait_ms=30000")
		}()
	}
	waitParked(t, s, herd)
	if h := healthz(t, ts.URL); h["status_waiters"] != float64(herd) {
		t.Errorf("healthz status_waiters = %v with %d parked", h["status_waiters"], herd)
	}
	begin := time.Now()
	cancelJob(t, ts.URL, sr.JobID)
	wg.Wait()
	if took := time.Since(begin); took > prompt {
		t.Errorf("the herd took %v to wake", took)
	}
	for i, a := range answers {
		if a.err != nil || a.code != http.StatusOK || decodeStatus(t, a.body).State != StateCanceled {
			t.Errorf("waiter %d read HTTP %d %s (%v), want canceled", i, a.code, a.body, a.err)
		}
	}

	_, body := getBody(t, ts.URL+"/v1/metrics")
	text := string(body)
	if errs := obs.Lint(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("exposition fails lint: %v", errs)
	}
	if n, _ := client.Metric(text, "taserved_status_requests_total"); n != before+herd {
		t.Errorf("taserved_status_requests_total = %d, want %d", n, before+herd)
	}
	if n, ok := client.Metric(text, "taserved_status_waiters"); !ok || n != 0 {
		t.Errorf("taserved_status_waiters = %d (present %v) after the herd woke, want 0", n, ok)
	}
	// Both register after every older family, so those scrape as they did.
	if i := strings.Index(text, "# HELP taserved_status_requests_total"); i < 0 ||
		strings.Contains(text[i:], "# HELP taserved_job_") || strings.Contains(text[i:], "# HELP taserved_replicated_results") {
		t.Errorf("the status families are not the last of the exposition")
	}
}

func healthz(t *testing.T, base string) map[string]any {
	t.Helper()
	_, body := getBody(t, base+"/v1/healthz")
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestStatusWaitDisconnect walks away from a parked wait: the handler must
// notice and return, leaving no goroutine behind.
func TestStatusWaitDisconnect(t *testing.T) {
	s, ts := testServer(t, Config{CPUTokens: 1})
	sr := submit(t, ts.URL, hugeSubmit(67, 0))
	awaitProgress(t, ts.URL, sr.JobID, 500, time.Minute)
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()

	// The waiter gets a transport of its own, so that dropping its connection
	// is exactly what the test does and nothing else.
	tr := &http.Transport{}
	cl := client.New(ts.URL, &http.Client{Transport: tr})
	time.Sleep(20 * time.Millisecond) // let the closed connections' goroutines exit
	baseline := runtime.NumGoroutine()

	ctx, hangUp := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := cl.StatusWait(ctx, sr.JobID, 30*time.Second)
		errc <- err
	}()
	waitParked(t, s, 1)
	hangUp()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned wait returned %v, want context.Canceled", err)
	}
	tr.CloseIdleConnections()
	waitParked(t, s, 0)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the abandoned wait:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelJob(t, ts.URL, sr.JobID)
	await(t, ts.URL, sr.JobID, 30*time.Second)
}

// liveNode is a Server behind a real http.Server, the way cmd/taserved wears
// it, so the tests can drain the listener the way the binary does.
type liveNode struct {
	srv    *Server
	http   *http.Server
	served chan error
	base   string
}

func startLiveNode(t *testing.T, cfg Config) *liveNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &liveNode{srv: New(cfg), served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	n.http = &http.Server{Handler: n.srv.Handler()}
	go func() { n.served <- n.http.Serve(ln) }()
	return n
}

// drainListener is http.Server.Shutdown under a budget far above the bound
// the tests assert.
func (n *liveNode) drainListener(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := n.http.Shutdown(ctx); err != nil {
		t.Errorf("http shutdown: %v", err)
	}
	if err := <-n.served; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("serve returned %v", err)
	}
}

// TestShutdownWithParkedWaiter is the fix for a wait outliving the server: a
// node with a running job and a client waiting on it stops in well under a
// second, and the client reads the job's final state.
func TestShutdownWithParkedWaiter(t *testing.T) {
	n := startLiveNode(t, Config{})
	sr := submit(t, n.base, hugeSubmit(71, 0))
	awaitProgress(t, n.base, sr.JobID, 500, time.Minute)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	type awaited struct {
		st  *StatusResponse
		err error
	}
	got := make(chan awaited, 1)
	go func() {
		st, err := client.New(n.base, &http.Client{Transport: tr}).Await(context.Background(), sr.JobID, 0)
		got <- awaited{st, err}
	}()
	waitParked(t, n.srv, 1)

	// Jobs first, as cmd/taserved stops: the waiter is answered by its job
	// turning terminal, while the listener is still up to carry the answer.
	begin := time.Now()
	if err := n.srv.Shutdown(20 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	n.drainListener(t)
	if took := time.Since(begin); took > time.Second {
		t.Errorf("shutdown with a parked waiter took %v", took)
	}
	if a := <-got; a.err != nil || a.st.State != StateCanceled {
		t.Errorf("waiting client read %+v, %v; want canceled", a.st, a.err)
	}
}

// TestShutdownEndsWaitOnStuckJob parks a wait on a job that ignores its cancel
// signal: Shutdown gives up on the job at its timeout and must end the wait
// then, or the listener's drain would sit it out; later waits do not park.
func TestShutdownEndsWaitOnStuckJob(t *testing.T) {
	s, ts := testServer(t, Config{})
	release := make(chan struct{})
	defer close(release)
	stuck := func(*job) ([]byte, map[string]string, error) {
		<-release
		return nil, nil, errors.New("released")
	}
	if _, _, err := s.jobs.submit("stuck", "ta", false, 0, time.Time{}, stuck); err != nil {
		t.Fatal(err)
	}
	code, body, took := parkThen(t, s, ts.URL, "stuck", "wait_ms=30000", func() {
		if err := s.Shutdown(50 * time.Millisecond); err == nil {
			t.Error("shutdown reported a drained server with a job still running")
		}
	})
	if st := decodeStatus(t, body); code != http.StatusOK || st.State != StateRunning || took > prompt {
		t.Errorf("wait on the stuck job: HTTP %d %s after %v", code, st.State, took)
	}
	code, body, took = waitStatus(t, ts.URL, "stuck", "wait_ms=30000")
	if st := decodeStatus(t, body); code != http.StatusOK || st.State != StateRunning || took > prompt {
		t.Errorf("wait after shutdown: HTTP %d %s after %v", code, st.State, took)
	}
}

// hasResultKey reports whether a status body carries a "result" member.
func hasResultKey(t *testing.T, body []byte) bool {
	t.Helper()
	var members map[string]json.RawMessage
	if err := json.Unmarshal(body, &members); err != nil {
		t.Fatalf("decoding status %s: %v", body, err)
	}
	_, ok := members["result"]
	return ok
}

// TestStatusWaitResult is the table of ?result=1: a done job's answer carries
// the very bytes GET …/result serves, and no other answer has a result key.
func TestStatusWaitResult(t *testing.T) {
	s, ts := testServer(t, Config{CPUTokens: 1})
	archJob := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: tinyArchModel(t),
		Options: SubmitOptions{HorizonMS: 100}})
	// Its query text and sup verdict hold "<=", which wire.Encode stores as
	// \u003c=: the answer must carry that spelling and wire.Encode's
	// indentation, not a re-encoding of either.
	taJob := submit(t, ts.URL, SubmitRequest{Kind: "ta", Model: tinyTAModel(t),
		Queries: []wire.TAQuery{{Kind: "sup", Clock: "x", Pred: "RAD.busy"}, {Kind: "safety", Pred: "rec<=4"}},
		Options: SubmitOptions{MaxConst: 20}})

	t.Run("done answers carry the stored bytes", func(t *testing.T) {
		for kind, id := range map[string]string{"arch": archJob.JobID, "ta": taJob.JobID} {
			code, body, _ := waitStatus(t, ts.URL, id, "wait_ms=30000&result=1")
			st := decodeStatus(t, body)
			if code != http.StatusOK || st.State != StateDone {
				t.Fatalf("%s job: HTTP %d %s (%q)", kind, code, st.State, st.Error)
			}
			code, want := getBody(t, ts.URL+"/v1/jobs/"+id+"/result")
			if code != http.StatusOK || !bytes.Equal(st.Result, want) {
				t.Errorf("%s job: the status carries\n%s\nGET …/result (HTTP %d) serves\n%s", kind, st.Result, code, want)
			}
			if kind == "ta" && !bytes.Contains(st.Result, []byte(`"rec\u003c=4"`)) {
				t.Errorf("ta result %s does not hold the stored query text", st.Result)
			}
			if _, again, _ := waitStatus(t, ts.URL, id, "result=1"); !bytes.Equal(decodeStatus(t, again).Result, want) {
				t.Errorf("%s job: result=1 without a wait carries %s", kind, again)
			}
			for _, q := range []string{"", "wait_ms=30000"} {
				if _, body, _ := waitStatus(t, ts.URL, id, q); hasResultKey(t, body) {
					t.Errorf("%s job: ?%s carries a result: %s", kind, q, body)
				}
			}
		}
	})

	// One token: running holds it, so queued and expiring wait behind it.
	running := submit(t, ts.URL, hugeSubmit(73, 0))
	awaitProgress(t, ts.URL, running.JobID, 500, time.Minute)
	queued := submit(t, ts.URL, hugeSubmit(79, 0))
	expiring := submit(t, ts.URL, hugeSubmit(83, 200))

	t.Run("a timed-out wait has no result", func(t *testing.T) {
		code, body, _ := waitStatus(t, ts.URL, running.JobID, "wait_ms=80&result=1")
		if st := decodeStatus(t, body); code != http.StatusOK || st.State != StateRunning || hasResultKey(t, body) {
			t.Errorf("running job after an 80ms wait: HTTP %d %s", code, body)
		}
	})

	t.Run("a failed wait has no result", func(t *testing.T) {
		code, body, _ := waitStatus(t, ts.URL, expiring.JobID, "wait_ms=30000&result=1")
		if st := decodeStatus(t, body); code != http.StatusOK || st.State != StateFailed || hasResultKey(t, body) {
			t.Errorf("expired job: HTTP %d %s", code, body)
		}
	})

	t.Run("a canceled wait has no result", func(t *testing.T) {
		code, body, _ := parkThen(t, s, ts.URL, queued.JobID, "wait_ms=30000&result=1",
			func() { cancelJob(t, ts.URL, queued.JobID) })
		if st := decodeStatus(t, body); code != http.StatusOK || st.State != StateCanceled || hasResultKey(t, body) {
			t.Errorf("canceled job: HTTP %d %s", code, body)
		}
	})

	cancelJob(t, ts.URL, running.JobID)
	await(t, ts.URL, running.JobID, 30*time.Second)
}

// TestStatusBodyBytes pins what a caller reads without ?result: the plain and
// the wait_ms-only status bodies of a done and a failed job are the bytes
// under testdata/, captured before the status call took the parameter.
func TestStatusBodyBytes(t *testing.T) {
	at := time.Date(2024, 5, 6, 7, 8, 9, 10, time.UTC)
	s := New(Config{CPUTokens: 1})
	defer s.Shutdown(time.Second)
	for _, id := range []string{"done", "failed"} {
		j, _ := s.jobs.adopt(id, api.CompletionEvent{Key: id, Kind: "ta", State: StateDone, Result: []byte(`{"sup": "<=3"}`)})
		j.submitted = at
		j.mu.Lock()
		j.started, j.finished = at.Add(time.Millisecond), at.Add(2*time.Millisecond)
		if id == "failed" {
			j.state, j.errMsg, j.result = StateFailed, wire.CodeDeadlineExceeded, nil
		}
		j.mu.Unlock()
	}
	h := s.Handler()
	for _, id := range []string{"done", "failed"} {
		want, err := os.ReadFile("testdata/status_" + id + ".json")
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"", "wait_ms=0", "wait_ms=250"} {
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
			req.URL.RawQuery = q
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s job, ?%s: HTTP %d\n%s\nwant\n%s", id, q, rec.Code, rec.Body, want)
			}
		}
	}
}

package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/wire"
)

// fakeNode serves GET /v1/jobs/{id} from answer, which is handed the call's
// ordinal (from 1) and its wait_ms, and returns the state to report.
func fakeNode(t *testing.T, answer func(r *http.Request, call int, wait time.Duration) string) (*Client, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ms, _ := strconv.ParseInt(r.URL.Query().Get("wait_ms"), 10, 64)
		state := answer(r, int(calls.Add(1)), time.Duration(ms)*time.Millisecond)
		_ = json.NewEncoder(w).Encode(api.StatusResponse{JobID: "j", State: state})
	}))
	t.Cleanup(ts.Close)
	return New(ts.URL, nil), &calls
}

// TestAwaitAgainstAPollingServer is the fallback: a node that ignores wait_ms
// (or is draining) answers early, and interval paces the calls.
func TestAwaitAgainstAPollingServer(t *testing.T) {
	const interval = 20 * time.Millisecond
	c, calls := fakeNode(t, func(_ *http.Request, call int, wait time.Duration) string {
		if wait <= 0 {
			t.Errorf("call %d carried no wait_ms", call)
		}
		if call < 4 {
			return api.StateRunning
		}
		return api.StateDone
	})
	begin := time.Now()
	st, err := c.Await(context.Background(), "j", interval)
	if err != nil || st.State != api.StateDone {
		t.Fatalf("Await = %+v, %v", st, err)
	}
	if calls.Load() != 4 {
		t.Errorf("%d status calls, want 4", calls.Load())
	}
	if took := time.Since(begin); took < 3*interval {
		t.Errorf("three early answers were followed up within %v, want a pause of %v after each", took, interval)
	}
}

// TestAwaitReissuesAFullWaitAtOnce: a wait that ran its length is not an early
// answer, so no pause follows it — with an hour's interval, any pause at all
// would outlast the test's context.
func TestAwaitReissuesAFullWaitAtOnce(t *testing.T) {
	c, calls := fakeNode(t, func(_ *http.Request, call int, wait time.Duration) string {
		if call < 3 {
			time.Sleep(wait)
			return api.StateQueued
		}
		return api.StateFailed
	})
	c.maxWait = 30 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := c.Await(ctx, "j", time.Hour)
	if err != nil || st.State != api.StateFailed {
		t.Fatalf("Await = %+v, %v", st, err)
	}
	if calls.Load() != 3 {
		t.Errorf("%d status calls, want 3", calls.Load())
	}
}

// TestAwaitContextEnds: whether the context runs out inside a request or
// inside the pause between two, Await hands back the last status it saw.
func TestAwaitContextEnds(t *testing.T) {
	t.Run("mid-request", func(t *testing.T) {
		c, _ := fakeNode(t, func(r *http.Request, call int, _ time.Duration) string {
			if call > 1 {
				<-r.Context().Done()
			}
			return api.StateRunning
		})
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		st, err := c.Await(ctx, "j", time.Millisecond)
		if !errors.Is(err, context.DeadlineExceeded) || st == nil || st.State != api.StateRunning {
			t.Errorf("Await = %+v, %v; want the running status and DeadlineExceeded", st, err)
		}
	})
	t.Run("mid-pause", func(t *testing.T) {
		c, calls := fakeNode(t, func(*http.Request, int, time.Duration) string { return api.StateQueued })
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		st, err := c.Await(ctx, "j", time.Hour)
		if !errors.Is(err, context.DeadlineExceeded) || st == nil || st.State != api.StateQueued || calls.Load() != 1 {
			t.Errorf("Await = %+v, %v after %d calls; want the queued status and DeadlineExceeded after 1", st, err, calls.Load())
		}
	})
	t.Run("before the first answer", func(t *testing.T) {
		c, _ := fakeNode(t, func(r *http.Request, _ int, _ time.Duration) string {
			<-r.Context().Done()
			return api.StateRunning
		})
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if st, err := c.Await(ctx, "j", 0); !errors.Is(err, context.DeadlineExceeded) || st != nil {
			t.Errorf("Await = %+v, %v; want no status and DeadlineExceeded", st, err)
		}
	})
}

// TestAwaitAPIError: a refusal is not a status; it ends the await as itself.
func TestAwaitAPIError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(wire.ErrorResponse{Error: "unknown job", Code: wire.CodeNotFound})
	}))
	defer ts.Close()
	st, err := New(ts.URL, nil).Await(context.Background(), "j", 0)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Body.Code != wire.CodeNotFound || st != nil {
		t.Errorf("Await = %+v, %v; want a 404 APIError", st, err)
	}
}

// TestStatusOmitsTheParameter: the plain call is the URL it always was.
func TestStatusOmitsTheParameter(t *testing.T) {
	var plain, waited string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.RawQuery == "" {
			plain = r.URL.Path
		} else {
			waited = r.URL.RawQuery
		}
		_ = json.NewEncoder(w).Encode(api.StatusResponse{JobID: "j", State: api.StateDone})
	}))
	defer ts.Close()
	c := New(ts.URL, nil)
	if _, err := c.Status(context.Background(), "j"); err != nil || plain != "/v1/jobs/j" {
		t.Errorf("Status requested %q, %v", plain, err)
	}
	if _, err := c.StatusWait(context.Background(), "j", 1500*time.Millisecond); err != nil || waited != "wait_ms=1500" {
		t.Errorf("StatusWait requested ?%s, %v", waited, err)
	}
}

// tinyArch is testdata/tiny.json with requirement names that need escaping in
// a query string.
const tinyArch = `{
  "name": "tiny",
  "processors": [{"name": "A", "mips": 10, "sched": "fp"}, {"name": "B", "mips": 20, "sched": "fp-preemptive"}],
  "buses": [{"name": "BUS", "kbit_per_sec": 8, "sched": "fp"}],
  "scenarios": [{
    "name": "job", "priority": 1,
    "arrival": {"kind": "po", "period_ms": "100", "offset_ms": "0"},
    "steps": [
      {"name": "opA", "processor": "A", "instructions": 100000},
      {"name": "msg", "bus": "BUS", "bytes": 10},
      {"name": "opB", "processor": "B", "instructions": 200000}
    ]
  }],
  "requirements": [
    {"name": "end to end & back", "scenario": "job", "from": -1, "to": 2},
    {"name": "k2a+v", "scenario": "job", "from": -1, "to": 0}
  ]
}`

// endlessTA renders a network too large to sweep within a test's patience
// (six free generators with co-prime periods and a deep shared counter): a
// job against it ends only by cancellation or shutdown.
func endlessTA() string {
	var b strings.Builder
	b.WriteString("system:huge\nclock:sx\nint:rec:0:0:40\nchan:hurry:urgent-broadcast\n")
	for i, p := range []int{7, 11, 13, 17, 19, 23} {
		fmt.Fprintf(&b, "clock:gx%d\nprocess:GEN%d\n", i, i)
		fmt.Fprintf(&b, "location:GEN%d:tick{initial; invariant: gx%d<=%d}\n", i, i, p)
		fmt.Fprintf(&b, "edge:GEN%d:tick:tick{guard: gx%d==%d && rec<40; do: rec=rec+1, gx%d=0}\n", i, i, p, i)
	}
	b.WriteString("process:SRV\nlocation:SRV:idle{initial}\nlocation:SRV:busy{invariant: sx<=2}\n")
	b.WriteString("edge:SRV:idle:busy{guard: rec>0; sync: hurry!; do: rec=rec-1, sx=0}\n")
	b.WriteString("edge:SRV:busy:idle{guard: sx==2}\n")
	return b.String()
}

// realNode serves the real handler of a node with one CPU token.
func realNode(t *testing.T) *Client {
	t.Helper()
	s := serve.New(serve.Config{CPUTokens: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		_ = s.Shutdown(10 * time.Second)
		ts.Close()
	})
	return New(ts.URL, nil)
}

// TestTraceEscapesTheRequirementName: a requirement is named by its model's
// author, so the name travels as an escaped query value — a space, an '&' or
// a '+' in it selects that requirement's trace and no other.
func TestTraceEscapesTheRequirementName(t *testing.T) {
	c := realNode(t)
	ctx := context.Background()
	sr, err := c.Submit(ctx, &api.SubmitRequest{Kind: "arch", Model: tinyArch,
		Options: api.SubmitOptions{HorizonMS: 100, Witness: true}})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Await(ctx, sr.JobID, 0); err != nil || st.State != api.StateDone {
		t.Fatalf("Await = %+v, %v", st, err)
	}
	all, err := c.Trace(ctx, sr.JobID, "")
	if err != nil || len(all) != 2 {
		t.Fatalf("Trace of every requirement = %d traces, %v; want 2", len(all), err)
	}
	for _, name := range []string{"end to end & back", "k2a+v"} {
		one, err := c.Trace(ctx, sr.JobID, name)
		if err != nil {
			t.Errorf("Trace(%q): %v", name, err)
			continue
		}
		if len(one) != 1 || one[name] == "" || one[name] != all[name] {
			t.Errorf("Trace(%q) = %q, want that requirement's trace alone", name, one)
		}
	}
	var ae *APIError
	if _, err := c.Trace(ctx, sr.JobID, "end to end"); !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Errorf("Trace of an unknown requirement: %v, want a 404 APIError", err)
	}
}

// TestCancelQueuedJob: a job waiting for the node's one CPU token is canceled
// where it waits — it reads canceled without ever having started — and its
// running neighbour is left alone.
func TestCancelQueuedJob(t *testing.T) {
	c := realNode(t)
	ctx := context.Background()
	endless := func(q wire.TAQuery) *api.SubmitRequest {
		return &api.SubmitRequest{Kind: "ta", Model: endlessTA(), Queries: []wire.TAQuery{q}}
	}
	running, err := c.Submit(ctx, endless(wire.TAQuery{Kind: "deadlock"}))
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, err := c.Status(ctx, running.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == api.StateRunning {
			break
		}
		if st.State != api.StateQueued {
			t.Fatalf("the endless job is %s (%s)", st.State, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := c.Submit(ctx, endless(wire.TAQuery{Kind: "safety", Pred: "rec<=40"}))
	if err != nil {
		t.Fatal(err)
	}
	// Cancellation is cooperative: the answer carries the state as of the
	// request, queued or already canceled.
	cr, err := c.Cancel(ctx, queued.JobID)
	if err != nil || cr.JobID != queued.JobID || (cr.State != api.StateQueued && cr.State != api.StateCanceled) {
		t.Fatalf("Cancel of the queued job = %+v, %v", cr, err)
	}
	if st, err := c.Await(ctx, queued.JobID, 0); err != nil || st.State != api.StateCanceled || st.StartedAt != nil {
		t.Fatalf("the queued job reads %+v, %v after Cancel; want canceled and never started", st, err)
	}
	if st, err := c.Status(ctx, running.JobID); err != nil || st.State != api.StateRunning {
		t.Errorf("the running job is %+v, %v after its neighbour's cancel", st, err)
	}
	if _, err := c.Cancel(ctx, running.JobID); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Await(ctx, running.JobID, 0); err != nil || st.State != api.StateCanceled {
		t.Errorf("Await after Cancel = %+v, %v; want canceled", st, err)
	}
}

// countingNode serves the real handler of a node with one CPU token and
// counts the requests that reach it.
func countingNode(t *testing.T) (*Client, *atomic.Int64) {
	t.Helper()
	s := serve.New(serve.Config{CPUTokens: 1})
	h := s.Handler()
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		_ = s.Shutdown(10 * time.Second)
		ts.Close()
	})
	return New(ts.URL, nil), &requests
}

// submitTiny submits tinyArch at the given horizon and awaits it done.
func submitTiny(t *testing.T, c *Client, horizonMS int64) string {
	t.Helper()
	ctx := context.Background()
	sr, err := c.Submit(ctx, &api.SubmitRequest{Kind: "arch", Model: tinyArch,
		Options: api.SubmitOptions{HorizonMS: horizonMS}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Await(ctx, sr.JobID, 0)
	if err != nil || st.State != api.StateDone {
		t.Fatalf("Await = %+v, %v", st, err)
	}
	if st.Result != nil {
		t.Errorf("Await returned a status with %d result bytes, want none", len(st.Result))
	}
	return sr.JobID
}

// TestResultAfterAwaitIsHandedOver: the verdict rides home on the wait that
// saw the job finish, so the Result after it sends nothing; it is handed over
// once, and every other Result asks the server for the same bytes.
func TestResultAfterAwaitIsHandedOver(t *testing.T) {
	c, requests := countingNode(t)
	ctx := context.Background()
	other := submitTiny(t, c, 150)
	id := submitTiny(t, c, 100)

	before := requests.Load()
	handed, err := c.Result(ctx, id)
	if err != nil || len(handed) == 0 {
		t.Fatalf("Result after Await = %q, %v", handed, err)
	}
	if n := requests.Load() - before; n != 0 {
		t.Errorf("Result right after Await sent %d requests, want 0", n)
	}
	served, err := New(c.base, nil).Result(ctx, id)
	if err != nil || !bytes.Equal(handed, served) {
		t.Errorf("handed-over result differs from GET …/result (%v):\n%s\n%s", err, handed, served)
	}

	t.Run("a second Result asks the server", func(t *testing.T) {
		before := requests.Load()
		again, err := c.Result(ctx, id)
		if err != nil || !bytes.Equal(again, served) || requests.Load()-before != 1 {
			t.Errorf("second Result = %d bytes, %v after %d requests; want the served bytes after 1",
				len(again), err, requests.Load()-before)
		}
	})

	t.Run("another id asks the server and leaves the kept result", func(t *testing.T) {
		id := submitTiny(t, c, 200)
		before := requests.Load()
		got, err := c.Result(ctx, other)
		sent := requests.Load() - before
		want, _ := New(c.base, nil).Result(ctx, other)
		if err != nil || !bytes.Equal(got, want) || sent != 1 {
			t.Errorf("Result of another id = %d bytes, %v after %d requests; want the served bytes after 1", len(got), err, sent)
		}
		before = requests.Load()
		if _, err := c.Result(ctx, id); err != nil || requests.Load() != before {
			t.Errorf("Result of the awaited id after another id's: %v, %d requests", err, requests.Load()-before)
		}
	})
}

// TestResultFromAServerThatIgnoresTheParameter: a node that answers the wait
// without the bytes leaves Result to fetch them.
func TestResultFromAServerThatIgnoresTheParameter(t *testing.T) {
	var asked, fetched atomic.Bool
	c, calls := fakeNode(t, func(r *http.Request, _ int, _ time.Duration) string {
		if r.URL.Query().Get("result") == "1" {
			asked.Store(true)
		}
		if strings.HasSuffix(r.URL.Path, "/result") {
			fetched.Store(true)
		}
		return api.StateDone
	})
	ctx := context.Background()
	if st, err := c.Await(ctx, "j", 0); err != nil || st.State != api.StateDone {
		t.Fatalf("Await = %+v, %v", st, err)
	}
	if !asked.Load() {
		t.Error("Await did not ask for the result")
	}
	if _, err := c.Result(ctx, "j"); err != nil || !fetched.Load() || calls.Load() != 2 {
		t.Errorf("Result: %v after %d calls (fetched %v); want one GET …/result", err, calls.Load(), fetched.Load())
	}
}

// TestConcurrentAwaitResultPairs: the client keeps one handed-over result, so
// pairs racing on one client must each read their own job's bytes — from the
// hand-over or from the server.
func TestConcurrentAwaitResultPairs(t *testing.T) {
	c := realNode(t)
	ctx := context.Background()
	const pairs = 8
	var wg sync.WaitGroup
	got := make([][]byte, pairs)
	ids := make([]string, pairs)
	for i := range pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr, err := c.Submit(ctx, &api.SubmitRequest{Kind: "arch", Model: tinyArch,
				Options: api.SubmitOptions{HorizonMS: int64(100 + 10*i)}})
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = sr.JobID
			if st, err := c.Await(ctx, sr.JobID, 0); err != nil || st.State != api.StateDone {
				t.Errorf("Await = %+v, %v", st, err)
				return
			}
			if got[i], err = c.Result(ctx, sr.JobID); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	fresh := New(c.base, nil)
	for i, id := range ids {
		want, err := fresh.Result(ctx, id)
		if err != nil || !bytes.Equal(got[i], want) {
			t.Errorf("pair %d read\n%s\nits job serves (%v)\n%s", i, got[i], err, want)
		}
	}
}

// TestNotReadyIsOneLine: the 409 of a job with nothing to give yet reads as
// its state, and its failure when it has one, on one line.
func TestNotReadyIsOneLine(t *testing.T) {
	c := realNode(t)
	ctx := context.Background()
	sr, err := c.Submit(ctx, &api.SubmitRequest{Kind: "ta", Model: endlessTA(),
		Queries: []wire.TAQuery{{Kind: "deadlock"}}})
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, err := c.Status(ctx, sr.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == api.StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	calls := map[string]func() error{
		"Result":  func() error { _, err := c.Result(ctx, sr.JobID); return err },
		"Trace":   func() error { _, err := c.Trace(ctx, sr.JobID, ""); return err },
		"Profile": func() error { _, err := c.Profile(ctx, sr.JobID); return err },
	}
	for name, call := range calls {
		var ae *APIError
		if err := call(); !errors.As(err, &ae) || ae.Status != http.StatusConflict ||
			err.Error() != "taserved: job is running (HTTP 409)" {
			t.Errorf("%s of a running job: %v", name, err)
		}
	}
	if _, err := c.Cancel(ctx, sr.JobID); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Await(ctx, sr.JobID, 0); err != nil || st.State != api.StateCanceled {
		t.Fatalf("Await after Cancel = %+v, %v", st, err)
	}
	// A canceled job has its profile; the other two still answer 409, and
	// the trace 409 names no failure.
	for name, want := range map[string]string{
		"Result": "taserved: job is canceled: canceled (HTTP 409)",
		"Trace":  "taserved: job is canceled (HTTP 409)",
	} {
		if err := calls[name](); err == nil || err.Error() != want {
			t.Errorf("%s of a canceled job: %v, want %q", name, err, want)
		}
	}
}

package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/api"
	"repro/internal/wire"
)

// hugeTASource renders a model whose zone graph is far too large to sweep
// within the tests' patience (six free generators with co-prime periods and
// a deep shared counter): jobs against it only ever end by cancellation,
// deadline, or shutdown. An extra generator period distinguishes variants so
// tests can mint non-identical submissions on demand.
func hugeTASource(lastPeriod int64) string {
	var b strings.Builder
	b.WriteString("system:huge\nclock:sx\nint:rec:0:0:40\nchan:hurry:urgent-broadcast\n")
	periods := []int64{7, 11, 13, 17, 19, lastPeriod}
	for i := range periods {
		fmt.Fprintf(&b, "clock:gx%d\n", i)
	}
	for i, p := range periods {
		fmt.Fprintf(&b, "process:GEN%d\n", i)
		fmt.Fprintf(&b, "location:GEN%d:tick{initial; invariant: gx%d<=%d}\n", i, i, p)
		fmt.Fprintf(&b, "edge:GEN%d:tick:tick{guard: gx%d==%d && rec<40; do: rec=rec+1, gx%d=0}\n", i, i, p, i)
	}
	b.WriteString("process:SRV\nlocation:SRV:idle{initial}\nlocation:SRV:busy{invariant: sx<=2}\n")
	b.WriteString("edge:SRV:idle:busy{guard: rec>0; sync: hurry!; do: rec=rec-1, sx=0}\n")
	b.WriteString("edge:SRV:busy:idle{guard: sx==2}\n")
	return b.String()
}

func hugeSubmit(lastPeriod int64, deadlineMS int64) SubmitRequest {
	return SubmitRequest{
		Kind:    "ta",
		Model:   hugeTASource(lastPeriod),
		Queries: []wire.TAQuery{{Kind: "deadlock"}},
		Options: SubmitOptions{DeadlineMS: deadlineMS},
	}
}

// awaitProgress polls until the job reports at least minStored states.
func awaitProgress(t *testing.T, base, id string, minStored int64, timeout time.Duration) StatusResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, body := getBody(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status: %d: %s", code, body)
		}
		var st StatusResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Progress.Stored >= minStored || st.State == StateDone ||
			st.State == StateFailed || st.State == StateCanceled {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %d stored states: %+v", id, minStored, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelEndpointMidSweep cancels a hopeless job mid-sweep and requires a
// prompt canceled state with partial progress still readable.
func TestCancelEndpointMidSweep(t *testing.T) {
	s, ts := testServer(t, Config{})
	sr := submit(t, ts.URL, hugeSubmit(23, 0))
	st := awaitProgress(t, ts.URL, sr.JobID, 2000, time.Minute)
	if st.State != StateRunning {
		t.Fatalf("job %s: %s (%s), want running mid-sweep", sr.JobID, st.State, st.Error)
	}
	begin := time.Now()
	code, body := postJSON(t, ts.URL+"/v1/jobs/"+sr.JobID+"/cancel", nil)
	if code != http.StatusOK {
		t.Fatalf("cancel: %d: %s", code, body)
	}
	final := await(t, ts.URL, sr.JobID, 30*time.Second)
	if final.State != StateCanceled {
		t.Fatalf("state after cancel = %s (%s)", final.State, final.Error)
	}
	if elapsed := time.Since(begin); elapsed > 20*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	// Partial progress survives the abort; the sweep had stored thousands.
	if final.Progress.Stored < 2000 {
		t.Errorf("final progress %+v lost the partial sweep", final.Progress)
	}
	if c := s.Stats(); c.Canceled == 0 {
		t.Errorf("canceled counter not bumped: %+v", c)
	}
	// The result endpoint reports the state instead of a result.
	if code, body := getBody(t, ts.URL+"/v1/jobs/"+sr.JobID+"/result"); code != http.StatusConflict {
		t.Errorf("result of canceled job: %d (%s), want 409", code, body)
	}
	// A canceled job does not poison the cache: resubmitting the identical
	// work starts a fresh attempt.
	again := submit(t, ts.URL, hugeSubmit(23, 0))
	if again.JobID != sr.JobID || !again.Created {
		t.Errorf("resubmission after cancel: %+v, want a fresh attempt under the same key", again)
	}
	postJSON(t, ts.URL+"/v1/jobs/"+again.JobID+"/cancel", nil)
	await(t, ts.URL, again.JobID, 30*time.Second)
}

// TestDeadlineExceededJob bounds a hopeless job by wall clock; it must fail
// with exactly the DeadlineExceeded error name.
func TestDeadlineExceededJob(t *testing.T) {
	s, ts := testServer(t, Config{})
	sr := submit(t, ts.URL, hugeSubmit(29, 150))
	final := await(t, ts.URL, sr.JobID, 30*time.Second)
	if final.State != StateFailed || final.Error != wire.CodeDeadlineExceeded {
		t.Fatalf("deadline job: %s (%q), want failed (DeadlineExceeded)", final.State, final.Error)
	}
	if c := s.Stats(); c.Expired == 0 {
		t.Errorf("expired counter not bumped: %+v", c)
	}
}

// TestServerDefaultDeadline applies the configured budget when the
// submission does not set one.
func TestServerDefaultDeadline(t *testing.T) {
	_, ts := testServer(t, Config{DefaultDeadline: 150 * time.Millisecond})
	sr := submit(t, ts.URL, hugeSubmit(31, 0))
	final := await(t, ts.URL, sr.JobID, 30*time.Second)
	if final.State != StateFailed || final.Error != wire.CodeDeadlineExceeded {
		t.Fatalf("default-deadline job: %s (%q)", final.State, final.Error)
	}
}

// TestGracefulShutdownCancelsJobs drives the shutdown path: a running sweep
// is cooperatively canceled, the drain completes, and intake closes.
func TestGracefulShutdownCancelsJobs(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sr := submit(t, ts.URL, hugeSubmit(37, 0))
	awaitProgress(t, ts.URL, sr.JobID, 2000, time.Minute)

	begin := time.Now()
	if err := s.Shutdown(30 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 20*time.Second {
		t.Errorf("shutdown drain took %v", elapsed)
	}
	final := await(t, ts.URL, sr.JobID, 5*time.Second)
	if final.State != StateCanceled {
		t.Errorf("job after shutdown: %s (%s), want canceled", final.State, final.Error)
	}
	code, body := postJSON(t, ts.URL+"/v1/jobs", hugeSubmit(23, 0))
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: %d (%s), want 503", code, body)
	}
}

// TestAdmissionSerializesOnTokens pins the CPU-token contract: with a single
// token, a second job waits in queued state (never started) while the first
// runs, and a queued job canceled — or expired — before admission reports so
// without ever starting, and is counted.
func TestAdmissionSerializesOnTokens(t *testing.T) {
	s, ts := testServer(t, Config{CPUTokens: 1})
	a := submit(t, ts.URL, hugeSubmit(41, 0))
	awaitProgress(t, ts.URL, a.JobID, 1000, time.Minute)

	b := submit(t, ts.URL, hugeSubmit(43, 0))
	// Give b ample opportunity to (wrongly) start while a holds the token.
	time.Sleep(50 * time.Millisecond)
	code, body := getBody(t, ts.URL+"/v1/jobs/"+b.JobID)
	if code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	var st StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("job b = %s while a holds the only token, want queued", st.State)
	}
	// Cancel the queued job: it aborts at admission, never having run.
	postJSON(t, ts.URL+"/v1/jobs/"+b.JobID+"/cancel", nil)
	final := await(t, ts.URL, b.JobID, 10*time.Second)
	if final.State != StateCanceled || final.StartedAt != nil {
		t.Errorf("queued-cancel: state=%s started=%v, want canceled and never started", final.State, final.StartedAt)
	}
	// Aborts are counted where jobs finish, not inside a sweep: b never ran
	// one, and still counts.
	if c := s.Stats(); c.Canceled != 1 {
		t.Errorf("Canceled = %d after a queued job was canceled, want 1", c.Canceled)
	}
	// The deadline twin: a job that expires in the admission queue fails with
	// the DeadlineExceeded name, never starts, and bumps Expired.
	c := submit(t, ts.URL, hugeSubmit(44, 100))
	final = await(t, ts.URL, c.JobID, 10*time.Second)
	if final.State != StateFailed || final.Error != wire.CodeDeadlineExceeded || final.StartedAt != nil {
		t.Errorf("queued-deadline: state=%s error=%q started=%v, want failed (DeadlineExceeded) and never started",
			final.State, final.Error, final.StartedAt)
	}
	if c := s.Stats(); c.Expired != 1 {
		t.Errorf("Expired = %d after a queued job outlived its deadline, want 1", c.Expired)
	}
	postJSON(t, ts.URL+"/v1/jobs/"+a.JobID+"/cancel", nil)
	await(t, ts.URL, a.JobID, 30*time.Second)
}

// anyResult is a replicated result cache that holds a done answer for every
// key, so each submission is adopted.
type anyResult struct{}

func (anyResult) Get(key string) (api.CompletionEvent, bool) {
	return api.CompletionEvent{Key: key, Kind: "ta", State: api.StateDone, Result: []byte(`{}`)}, true
}

func (anyResult) Put(api.CompletionEvent) {}
func (anyResult) Len() int                { return 0 }

// TestTerminalJobContextDone requires a job's context to be done once the job
// is terminal, however it ended — done (with a deadline still an hour away),
// failed on its deadline, canceled, or adopted from the result cache — so a
// retained job holds no deadline timer and no link to the manager's context.
func TestTerminalJobContextDone(t *testing.T) {
	s, ts := testServer(t, Config{})
	ctxDone := func(name, id, wantState string) {
		t.Helper()
		if st := await(t, ts.URL, id, time.Minute); st.State != wantState {
			t.Fatalf("%s: job %s (%s), want %s", name, st.State, st.Error, wantState)
		}
		if err := s.jobs.get(id).ctx.Err(); err == nil {
			t.Errorf("%s: the terminal job's context is still live", name)
		}
	}
	done := submit(t, ts.URL, SubmitRequest{Kind: "ta", Model: tinyTAModel(t),
		Queries: []wire.TAQuery{{Kind: "deadlock"}},
		Options: SubmitOptions{MaxConst: 20, DeadlineMS: int64(time.Hour / time.Millisecond)}})
	ctxDone("done", done.JobID, StateDone)

	expired := submit(t, ts.URL, hugeSubmit(47, 100))
	ctxDone("deadline", expired.JobID, StateFailed)

	canceled := submit(t, ts.URL, hugeSubmit(53, 0))
	awaitProgress(t, ts.URL, canceled.JobID, 1000, time.Minute)
	postJSON(t, ts.URL+"/v1/jobs/"+canceled.JobID+"/cancel", nil)
	ctxDone("canceled", canceled.JobID, StateCanceled)

	as, ats := testServer(t, Config{Results: anyResult{}})
	adopted := submit(t, ats.URL, hugeSubmit(59, 0))
	if st := await(t, ats.URL, adopted.JobID, time.Minute); st.State != StateDone || adopted.Created {
		t.Fatalf("adopted: job %s (%s), created %v, want done and not created", st.State, st.Error, adopted.Created)
	}
	if err := as.jobs.get(adopted.JobID).ctx.Err(); err == nil {
		t.Error("adopted: the adopted job's context is still live")
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/wire"
)

// This file is the robustness suite of the service layer: overload shedding,
// degraded health, memory-grant admission, budget failures on the wire, and
// the blast-radius contract — one misbehaving submission fails alone while
// everything else keeps completing bit-identically.

// TestOversizedBody413 pins the request-size guard: a body over maxBodyBytes
// is rejected with 413 and a structured, machine-readable error — not a
// truncated-JSON parse error masquerading as a 400.
func TestOversizedBody413(t *testing.T) {
	_, ts := testServer(t, Config{})
	huge := `{"kind":"ta","model":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var body wire.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "body_too_large" || body.Error == "" {
		t.Errorf("413 body = %+v, want code body_too_large with a message", body)
	}
	// An in-limit submission still works: the guard reads limit+1 bytes, it
	// does not truncate valid bodies near the boundary.
	sr := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: tinyArchModel(t),
		Options: SubmitOptions{HorizonMS: 100}})
	if st := await(t, ts.URL, sr.JobID, time.Minute); st.State != StateDone {
		t.Fatalf("follow-up job: %s (%s)", st.State, st.Error)
	}
}

// TestShedRetryAfterAndDegradedHealth drives the overload path end to end:
// with the job table saturated, /v1/healthz flips to 503/degraded with the
// admission pressure readable, NEW work is shed with 429 plus jittered retry
// guidance, cached results keep being served, and everything recovers once
// the backlog drains.
func TestShedRetryAfterAndDegradedHealth(t *testing.T) {
	s, ts := testServer(t, Config{CPUTokens: 1, MaxActiveJobs: 1})

	// Finish one small job first so the result cache has an entry.
	cached := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: tinyArchModel(t),
		Options: SubmitOptions{HorizonMS: 100}})
	if st := await(t, ts.URL, cached.JobID, time.Minute); st.State != StateDone {
		t.Fatalf("cache-priming job: %s (%s)", st.State, st.Error)
	}

	// Saturate admission with a hopeless sweep.
	hog := submit(t, ts.URL, hugeSubmit(47, 0))
	awaitProgress(t, ts.URL, hog.JobID, 1000, time.Minute)

	// Health is now graded, not a flat 200.
	code, body := getBody(t, ts.URL+"/v1/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while saturated: %d (%s), want 503", code, body)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["ok"] != false || h["degraded"] != true {
		t.Errorf("healthz = %s, want ok:false degraded:true", body)
	}
	if h["active_jobs"] != float64(1) || h["cpu_saturation"] != float64(1) {
		t.Errorf("healthz pressure fields = %s", body)
	}
	if _, ok := h["result_cache_hit_rate"]; !ok {
		t.Errorf("healthz missing result_cache_hit_rate: %s", body)
	}

	// New work is shed: 429, Retry-After header, structured jittered backoff.
	reqBytes, _ := json.Marshal(hugeSubmit(53, 0))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(reqBytes))
	if err != nil {
		t.Fatal(err)
	}
	var shedBody wire.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&shedBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", resp.StatusCode)
	}
	if shedBody.Code != "overloaded" || shedBody.RetryAfterMS <= 0 || shedBody.RetryJitterMS <= 0 {
		t.Errorf("shed body = %+v, want overloaded with retry guidance", shedBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After header")
	}
	if c := s.Stats(); c.Shed == 0 {
		t.Errorf("shed counter not bumped: %+v", c)
	}

	// Degraded mode: the identical finished submission is still answered from
	// the result cache — only NEW work is rejected.
	again := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: tinyArchModel(t),
		Options: SubmitOptions{HorizonMS: 100}})
	if again.JobID != cached.JobID || again.Created || again.State != StateDone {
		t.Errorf("cached resubmission while saturated = %+v, want done/not-created", again)
	}

	// /v1/metrics exposes the same pressure for scraping.
	_, mbody := getBody(t, ts.URL+"/v1/metrics")
	for _, metric := range []string{"taserved_shed_total 1", "taserved_admission_queue_depth 0"} {
		if !bytes.Contains(mbody, []byte(metric)) {
			t.Errorf("metrics missing %q:\n%s", metric, mbody)
		}
	}

	// Drain and recover.
	postJSON(t, ts.URL+"/v1/jobs/"+hog.JobID+"/cancel", nil)
	await(t, ts.URL, hog.JobID, 30*time.Second)
	code, body = getBody(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz after drain: %d (%s), want 200", code, body)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["ok"] != true || h["degraded"] != false {
		t.Errorf("healthz after drain = %s, want ok:true", body)
	}
}

// TestBudgetFailuresOnWire pins the budget error names clients key on: a job
// that outgrows its memory budget fails with exactly MemoryBudgetExceeded,
// one that exceeds its state budget with exactly StateBudgetExceeded — both
// with partial progress readable, both leaving the server fully serviceable.
func TestBudgetFailuresOnWire(t *testing.T) {
	_, ts := testServer(t, Config{})

	mem := submit(t, ts.URL, SubmitRequest{
		Kind: "ta", Model: hugeTASource(59),
		Queries: []wire.TAQuery{{Kind: "deadlock"}},
		Options: SubmitOptions{MaxBytes: 16 << 10},
	})
	final := await(t, ts.URL, mem.JobID, 30*time.Second)
	if final.State != StateFailed || final.Error != wire.CodeMemoryBudget {
		t.Fatalf("memory-budget job: %s (%q), want failed (MemoryBudgetExceeded)", final.State, final.Error)
	}
	if final.Progress.Stored == 0 {
		t.Errorf("memory-budget job lost partial progress: %+v", final.Progress)
	}

	st := submit(t, ts.URL, SubmitRequest{
		Kind: "ta", Model: hugeTASource(61),
		Queries: []wire.TAQuery{{Kind: "deadlock"}},
		Options: SubmitOptions{StateBudget: 500},
	})
	final = await(t, ts.URL, st.JobID, 30*time.Second)
	if final.State != StateFailed || final.Error != wire.CodeStateBudget {
		t.Fatalf("state-budget job: %s (%q), want failed (StateBudgetExceeded)", final.State, final.Error)
	}
	if final.Progress.Stored == 0 {
		t.Errorf("state-budget job lost partial progress: %+v", final.Progress)
	}

	// The node survived both: a normal job still completes.
	ok := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: tinyArchModel(t),
		Options: SubmitOptions{HorizonMS: 100}})
	if got := await(t, ts.URL, ok.JobID, time.Minute); got.State != StateDone {
		t.Fatalf("follow-up job: %s (%s)", got.State, got.Error)
	}
}

// TestOverBudgetJobFailsAloneBitIdentical is the blast-radius acceptance
// check: an over-budget submission fails alone while a concurrent in-budget
// job completes with wire bytes bit-identical to the direct library run.
func TestOverBudgetJobFailsAloneBitIdentical(t *testing.T) {
	_, ts := testServer(t, Config{CPUTokens: 4, MemoryBudget: 1 << 30})

	// Direct library run of the in-budget workload, encoded exactly as the
	// service encodes results.
	src := tinyArchModel(t)
	sys, reqs, err := arch.ParseSystem([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := arch.CompileAll(sys, reqs, arch.Options{HorizonMS: 100, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cs.Analyze(core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalArchBytes(t, encodeMust(t, wire.FromAllResult(direct)))

	// Launch the runaway job, then the in-budget one while it burns.
	bad := submit(t, ts.URL, SubmitRequest{
		Kind: "ta", Model: hugeTASource(67),
		Queries: []wire.TAQuery{{Kind: "deadlock"}},
		Options: SubmitOptions{MaxBytes: 16 << 10},
	})
	good := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: src,
		Options: SubmitOptions{HorizonMS: 100}})

	gf := await(t, ts.URL, good.JobID, time.Minute)
	if gf.State != StateDone {
		t.Fatalf("in-budget job: %s (%s)", gf.State, gf.Error)
	}
	bf := await(t, ts.URL, bad.JobID, 30*time.Second)
	if bf.State != StateFailed || bf.Error != wire.CodeMemoryBudget {
		t.Fatalf("over-budget job: %s (%q), want failed (MemoryBudgetExceeded)", bf.State, bf.Error)
	}

	code, got := getBody(t, ts.URL+"/v1/jobs/"+good.JobID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, got)
	}
	if !bytes.Equal(canonicalArchBytes(t, got), want) {
		t.Errorf("served result bytes differ from direct run:\nserved: %s\ndirect: %s", got, want)
	}
}

func encodeMust(t *testing.T, v any) []byte {
	t.Helper()
	data, err := wire.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// canonicalArchBytes re-encodes an arch result with the one inherently
// nondeterministic field (wall-clock duration) zeroed, so the byte comparison
// pins every verdict, counter, and encoding detail.
func canonicalArchBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var resp wire.ArchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("%v: %s", err, data)
	}
	resp.Stats.DurationNS = 0
	return encodeMust(t, resp)
}

// TestMemoryGrantAdmission pins the byte half of the admission controller: a
// grant that does not fit the remaining budget queues FIFO behind the holder
// even when CPU tokens are free, and is granted atomically on release.
func TestMemoryGrantAdmission(t *testing.T) {
	tok := newCPUTokens(4, 1000)
	bg := context.Background()
	if err := tok.acquire(bg, 700); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- tok.acquire(bg, 700) }()
	waitQueued(t, tok, 1)
	select {
	case err := <-errc:
		t.Fatalf("second grant landed with only 300 budget bytes free: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if got := tok.bytesInUse(); got != 700 {
		t.Fatalf("bytesInUse = %d, want 700", got)
	}
	tok.release(700)
	if err := <-errc; err != nil {
		t.Fatalf("queued grant after release: %v", err)
	}
	if got := tok.bytesInUse(); got != 700 {
		t.Fatalf("bytesInUse after handoff = %d, want 700", got)
	}
	tok.release(700)
	if tok.inUse() != 0 || tok.bytesInUse() != 0 {
		t.Fatalf("resources leaked: tokens=%d bytes=%d", tok.inUse(), tok.bytesInUse())
	}
}

// waitQueued polls until the admission queue reaches depth n.
func waitQueued(t *testing.T, tok *cpuTokens, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tok.waiting() < n {
		if time.Now().After(deadline) {
			t.Fatalf("admission queue never reached depth %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueuedCancelVersusGrant covers a queued job's cancellation racing its
// admission grant, in both deterministic orders and then as a true race under
// the race detector. The invariant in every interleaving: the caller sees
// either a clean grant (and releases it) or a clean abort (and the controller
// already took the grant back) — never a leaked token or byte.
func TestQueuedCancelVersusGrant(t *testing.T) {
	// Order 1: cancel strictly before any grant is possible.
	tok := newCPUTokens(1, 0)
	bg := context.Background()
	if err := tok.acquire(bg, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	errc := make(chan error, 1)
	go func() { errc <- tok.acquire(ctx, 0) }()
	waitQueued(t, tok, 1)
	cancel()
	if err := <-errc; !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("cancel-first: err = %v, want ErrCanceled", err)
	}
	tok.release(0)
	if tok.inUse() != 0 {
		t.Fatalf("cancel-first leaked %d tokens", tok.inUse())
	}

	// Order 2: grant strictly before the cancel fires.
	if err := tok.acquire(bg, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithCancel(bg)
	errc = make(chan error, 1)
	go func() { errc <- tok.acquire(ctx, 0) }()
	waitQueued(t, tok, 1)
	tok.release(0)
	if err := <-errc; err != nil {
		t.Fatalf("grant-first: err = %v, want nil", err)
	}
	cancel() // late cancel of an already-granted waiter is a no-op
	tok.release(0)
	if tok.inUse() != 0 {
		t.Fatalf("grant-first leaked %d tokens", tok.inUse())
	}

	// True race: release and cancel fire concurrently, repeatedly. Whichever
	// wins inside acquire, the accounting must return to zero.
	for i := 0; i < 200; i++ {
		tok := newCPUTokens(1, 64)
		if err := tok.acquire(bg, 64); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(bg)
		errc := make(chan error, 1)
		go func() { errc <- tok.acquire(ctx, 64) }()
		waitQueued(t, tok, 1)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); tok.release(64) }()
		go func() { defer wg.Done(); cancel() }()
		wg.Wait()
		if err := <-errc; err == nil {
			tok.release(64)
		} else if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("iteration %d: err = %v", i, err)
		}
		if tok.inUse() != 0 || tok.bytesInUse() != 0 {
			t.Fatalf("iteration %d leaked: tokens=%d bytes=%d", i, tok.inUse(), tok.bytesInUse())
		}
	}
}

// TestMemoryGrantDefaultsAndClamps pins intake's grant resolution: a
// declared max_bytes is clamped to the global budget, and an undeclared one
// defaults to the fair share of one token, budget / tokens.
func TestMemoryGrantDefaultsAndClamps(t *testing.T) {
	model := tinyArchModel(t)
	for _, tc := range []struct {
		name   string
		tokens int
		opts   SubmitOptions
		want   int64
	}{
		{"default fair share", 4, SubmitOptions{HorizonMS: 100}, 1000},
		{"fair share is budget / tokens", 5, SubmitOptions{HorizonMS: 100}, 800},
		{"declared passes through", 4, SubmitOptions{HorizonMS: 100, MaxBytes: 1500}, 1500},
		{"declared clamped to budget", 4, SubmitOptions{HorizonMS: 100, MaxBytes: 1 << 40}, 4000},
		{"negative treated as unset", 4, SubmitOptions{HorizonMS: 100, MaxBytes: -5}, 1000},
	} {
		s := New(Config{CPUTokens: tc.tokens, MemoryBudget: 4000})
		sub, err := s.intake(&SubmitRequest{Kind: "arch", Model: model, Options: tc.opts})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := sub.spec.MaxBytes; got != tc.want {
			t.Errorf("%s: grant=%d, want %d", tc.name, got, tc.want)
		}
	}
	// Without a server budget, declared bytes pass through unclamped (pure
	// per-job core budget, no admission hold).
	s2 := New(Config{CPUTokens: 4})
	sub, err := s2.intake(&SubmitRequest{Kind: "arch", Model: model,
		Options: SubmitOptions{HorizonMS: 100, MaxBytes: 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	if sub.spec.MaxBytes != 1<<40 {
		t.Errorf("unmetered server clamped max_bytes to %d", sub.spec.MaxBytes)
	}
}

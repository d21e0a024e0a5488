package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/icrns"
	"repro/internal/serve/client"
	"repro/internal/wire"
)

// testServer boots a Server on an httptest listener.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Shutdown(10 * time.Second)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// submit posts the request through the typed client and returns the
// response.
func submit(t *testing.T, base string, req SubmitRequest) SubmitResponse {
	t.Helper()
	sr, err := client.New(base, nil).Submit(context.Background(), &req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return *sr
}

// await waits through the typed client until the job reaches a terminal
// state.
func await(t *testing.T, base, id string, timeout time.Duration) StatusResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	st, err := client.New(base, nil).Await(ctx, id, 0)
	if err != nil {
		if st != nil {
			t.Fatalf("job %s still %s after %v (progress %+v)", id, st.State, timeout, st.Progress)
		}
		t.Fatalf("await %s: %v", id, err)
	}
	return *st
}

func result(t *testing.T, base, id string) wire.ArchResponse {
	t.Helper()
	body, err := client.New(base, nil).Result(context.Background(), id)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	var ar wire.ArchResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

func tinyArchModel(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func tinyTAModel(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/tiny.ta")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestHTTPOracleCaseStudyModels is the service-vs-library oracle on the
// paper's case-study models (the Table 1 AL-combination cells, whose po/pno
// columns are also Table 2's Uppaal columns): the verdicts served over HTTP
// must be bit-identical — same exact rational strings, same flags, same
// sweep counters — to a direct CompiledSet.Analyze call with the same
// horizons.
func TestHTTPOracleCaseStudyModels(t *testing.T) {
	_, ts := testServer(t, Config{CPUTokens: 2})
	names := []string{icrns.ReqHandleTMC, icrns.ReqAddressLookup}
	horizons := map[string]int64{}
	for _, n := range names {
		horizons[n] = icrns.HorizonMS(n)
	}
	for _, col := range []icrns.Column{icrns.ColPO, icrns.ColPNO} {
		sys, reqmap := icrns.Build(icrns.ComboAL, col, icrns.DefaultConfig())
		reqs := make([]*arch.Requirement, len(names))
		for i, n := range names {
			reqs[i] = reqmap[n]
		}
		src, err := arch.MarshalSystem(sys, reqs)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := arch.CompileAll(sys, reqs,
			arch.Options{HorizonMSFor: func(r *arch.Requirement) int64 { return horizons[r.Name] }})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := cs.Analyze(core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := wire.FromAllResult(direct)

		sr := submit(t, ts.URL, SubmitRequest{
			Kind:         "arch",
			Model:        string(src),
			Requirements: names,
			Options:      SubmitOptions{HorizonMSByReq: horizons},
		})
		st := await(t, ts.URL, sr.JobID, 2*time.Minute)
		if st.State != StateDone {
			t.Fatalf("col %v: job %s: %s (%s)", col, sr.JobID, st.State, st.Error)
		}
		got := result(t, ts.URL, sr.JobID)
		if len(got.Results) != len(want.Results) {
			t.Fatalf("col %v: %d results, want %d", col, len(got.Results), len(want.Results))
		}
		for i := range want.Results {
			g, w := got.Results[i], want.Results[i]
			if g != w {
				t.Errorf("col %v: %s: served %+v != direct %+v", col, w.Req, g, w)
			}
		}
		// Same single sweep: the exploration counters agree exactly
		// (durations differ, of course).
		if got.Stats.Stored != want.Stats.Stored || got.Stats.Popped != want.Stats.Popped ||
			got.Stats.Transitions != want.Stats.Transitions {
			t.Errorf("col %v: served sweep %+v != direct %+v", col, got.Stats, want.Stats)
		}
	}
}

// TestTAJobEndToEnd submits a ta model with a combined query set and checks
// the response against the shared wire path run directly.
func TestTAJobEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{})
	specs := []wire.TAQuery{
		{Kind: "reach", Pred: "RAD.busy"},
		{Kind: "sup", Clock: "x", Pred: "RAD.busy"},
		{Kind: "deadlock"},
	}
	sr := submit(t, ts.URL, SubmitRequest{
		Kind:    "ta",
		Model:   tinyTAModel(t),
		Queries: specs,
		Options: SubmitOptions{MaxConst: 20},
	})
	st := await(t, ts.URL, sr.JobID, time.Minute)
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	code, body := getBody(t, ts.URL+"/v1/jobs/"+sr.JobID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, body)
	}
	var resp wire.TAResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Queries) != 3 || !resp.Queries[0].Verdict || resp.Queries[1].Sup != "<=3" || !resp.Queries[2].Verdict {
		t.Errorf("unexpected ta response: %s", body)
	}
	// The reach witness is served through the trace endpoint too.
	code, body = getBody(t, ts.URL+"/v1/jobs/"+sr.JobID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: %d: %s", code, body)
	}
	var traces map[string]string
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	if traces["q0:reach"] == "" {
		t.Errorf("missing reach trace: %v", traces)
	}
	// Final status reports the finished sweep's exact counters.
	if st.Progress.Running || st.Progress.Stored != int64(resp.Stats.Stored) {
		t.Errorf("final progress %+v does not mirror stats %+v", st.Progress, resp.Stats)
	}
}

// TestSubmitValidation covers the 4xx paths.
func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	for name, req := range map[string]SubmitRequest{
		"no model":        {Kind: "arch"},
		"bad kind":        {Kind: "vhdl", Model: "x"},
		"bad order":       {Kind: "arch", Model: tinyArchModel(t), Options: SubmitOptions{Order: "dfs"}},
		"bad arch model":  {Kind: "arch", Model: "{not json"},
		"unknown req":     {Kind: "arch", Model: tinyArchModel(t), Requirements: []string{"ghost"}},
		"duplicate req":   {Kind: "arch", Model: tinyArchModel(t), Requirements: []string{"e2e", "e2e"}},
		"bad horizon req": {Kind: "arch", Model: tinyArchModel(t), Options: SubmitOptions{HorizonMSByReq: map[string]int64{"ghost": 5}}},
		"neg horizon":     {Kind: "arch", Model: tinyArchModel(t), Options: SubmitOptions{HorizonMS: -5}},
		"neg queue cap":   {Kind: "arch", Model: tinyArchModel(t), Options: SubmitOptions{QueueCap: -2}},
		"ta no queries":   {Kind: "ta", Model: tinyTAModel(t)},
		"ta bad query":    {Kind: "ta", Model: tinyTAModel(t), Queries: []wire.TAQuery{{Kind: "warp"}}},
		"ta bad model":    {Kind: "ta", Model: "system:", Queries: []wire.TAQuery{{Kind: "deadlock"}}},
	} {
		code, body := postJSON(t, ts.URL+"/v1/jobs", req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, code, body)
		}
	}
	if code, _ := getBody(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	// Result before completion conflicts rather than blocks: a queued job id
	// is hard to hold still here, so just check an unknown id 404s on result.
	if code, _ := getBody(t, ts.URL+"/v1/jobs/nope/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result: %d, want 404", code)
	}
}

// TestUnknownSupClockRefusal pins the 400 body for a sup clock the model
// does not declare: one message, whether or not max_const registers a
// horizon for the clock.
func TestUnknownSupClockRefusal(t *testing.T) {
	_, ts := testServer(t, Config{})
	want := encodeMust(t, wire.ErrorResponse{Error: `parsing ta model: wire: unknown clock "nope"`, Code: wire.CodeBadRequest})
	for _, maxConst := range []int64{0, 20} {
		code, body := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Kind: "ta", Model: tinyTAModel(t),
			Queries: []wire.TAQuery{{Kind: "sup", Clock: "nope", Pred: "RAD.busy"}}, Options: SubmitOptions{MaxConst: maxConst}})
		if code != http.StatusBadRequest || !bytes.Equal(body, want) {
			t.Errorf("max_const %d: %d %s, want 400 %s", maxConst, code, body, want)
		}
	}
}

// TestSubmitLimits pins both sides of the two option limits that guard an
// overflow: max_const past dbm.MaxConstant, which Finalize refuses for the
// sup clock's registered horizon, and deadline_ms past the milliseconds a
// time.Duration holds, which would wrap into the past. Beyond either limit a
// submission gets a 400; at it, the job runs to its answer.
func TestSubmitLimits(t *testing.T) {
	_, ts := testServer(t, Config{})
	maxDeadline := math.MaxInt64 / int64(time.Millisecond)
	ta := func(o SubmitOptions) SubmitRequest {
		return SubmitRequest{Kind: "ta", Model: tinyTAModel(t),
			Queries: []wire.TAQuery{{Kind: "sup", Clock: "x", Pred: "RAD.busy"}}, Options: o}
	}
	for name, req := range map[string]SubmitRequest{
		"max_const 2^61":        ta(SubmitOptions{MaxConst: dbm.MaxConstant + 1}),
		"max_const 2^62":        ta(SubmitOptions{MaxConst: 1 << 62}),
		"deadline_ms past":      ta(SubmitOptions{DeadlineMS: maxDeadline + 1}),
		"deadline_ms 10^13":     ta(SubmitOptions{DeadlineMS: 10_000_000_000_000}),
		"deadline_ms past arch": {Kind: "arch", Model: tinyArchModel(t), Options: SubmitOptions{DeadlineMS: maxDeadline + 1}},
	} {
		if code, body := postJSON(t, ts.URL+"/v1/jobs", req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, code, body)
		}
	}
	sr := submit(t, ts.URL, ta(SubmitOptions{MaxConst: dbm.MaxConstant, DeadlineMS: maxDeadline}))
	if st := await(t, ts.URL, sr.JobID, time.Minute); st.State != StateDone {
		t.Fatalf("max_const %d with deadline_ms %d: job %s (%s), want done", int64(dbm.MaxConstant), maxDeadline, st.State, st.Error)
	}
	code, body := getBody(t, ts.URL+"/v1/jobs/"+sr.JobID+"/result")
	var resp wire.TAResponse
	if err := json.Unmarshal(body, &resp); code != http.StatusOK || err != nil || resp.Queries[0].Sup != "<=3" {
		t.Errorf("result at the limits: %d %s", code, body)
	}
}

// TestHealthzAndMetrics smoke-checks the operational endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := testServer(t, Config{CPUTokens: 3})
	sr := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: tinyArchModel(t),
		Options: SubmitOptions{HorizonMS: 100}})
	await(t, ts.URL, sr.JobID, time.Minute)

	code, body := getBody(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["ok"] != true || h["cpu_tokens"] != float64(3) {
		t.Errorf("healthz: %s", body)
	}
	// The memory-footprint fields are always present; with the only job
	// finished, the live-store footprint is zero.
	if h["stored_zone_bytes"] != float64(0) {
		t.Errorf("healthz stored_zone_bytes = %v, want 0 after the job finished", h["stored_zone_bytes"])
	}
	if _, ok := h["intern_hit_rate"]; !ok {
		t.Errorf("healthz missing intern_hit_rate: %s", body)
	}
	code, body = getBody(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, metric := range []string{
		"taserved_submissions_total 1",
		"taserved_explorations_total 1",
		"taserved_cpu_tokens_total 3",
		"taserved_cpu_tokens_in_use 0",
		"taserved_stored_zone_bytes 0",
		"taserved_intern_hits_total 0",
		"taserved_intern_misses_total 0",
	} {
		if !bytes.Contains(body, []byte(metric)) {
			t.Errorf("metrics missing %q:\n%s", metric, body)
		}
	}
}

// TestWitnessTraces covers the arch trace path: submitted with witness, the
// job captures one critical-instant trace per requirement.
func TestWitnessTraces(t *testing.T) {
	_, ts := testServer(t, Config{})
	sr := submit(t, ts.URL, SubmitRequest{
		Kind: "arch", Model: tinyArchModel(t),
		Requirements: []string{"e2e"},
		Options:      SubmitOptions{HorizonMS: 100, Witness: true},
	})
	st := await(t, ts.URL, sr.JobID, time.Minute)
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	code, body := getBody(t, ts.URL+"/v1/jobs/"+sr.JobID+"/trace?req=e2e")
	if code != http.StatusOK {
		t.Fatalf("trace: %d: %s", code, body)
	}
	var traces map[string]string
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	if traces["e2e"] == "" {
		t.Error("missing witness trace for e2e")
	}
	// Without witness, the trace endpoint explains itself.
	sr2 := submit(t, ts.URL, SubmitRequest{
		Kind: "arch", Model: tinyArchModel(t),
		Requirements: []string{"e2e"},
		Options:      SubmitOptions{HorizonMS: 100},
	})
	await(t, ts.URL, sr2.JobID, time.Minute)
	if code, _ := getBody(t, ts.URL+"/v1/jobs/"+sr2.JobID+"/trace"); code != http.StatusNotFound {
		t.Errorf("trace without witness: %d, want 404", code)
	}
}

// rawWithWorkers is req's JSON body with options.workers set: the option
// is gone from the contract, and a client that still sends it must be
// served as if it had not.
func rawWithWorkers(t *testing.T, req SubmitRequest, workers int) map[string]any {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	body["options"].(map[string]any)["workers"] = workers
	return body
}

// postSubmit posts a raw submission body and decodes the accepted answer.
func postSubmit(t *testing.T, base string, body any) SubmitResponse {
	t.Helper()
	code, out := postJSON(t, base+"/v1/jobs", body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d: %s", code, out)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// holdTAJobs makes every ta job block in its compile phase — admitted,
// running and holding its token — until the returned release is called (and
// at the latest at cleanup). It swaps the kind table's ta entry for the
// test's life; the package's tests do not run in parallel.
func holdTAJobs(t *testing.T) (release func()) {
	orig := kinds["ta"]
	gate := make(chan struct{})
	kinds["ta"] = kind{orig.resolve, func(s *Server, spec *jobSpec, model any) (sweep, error) {
		<-gate
		return orig.bind(s, spec, model)
	}}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		kinds["ta"] = orig
	})
	return release
}

// awaitRunning polls until the job reads running.
func awaitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body, _ := waitStatus(t, base, id, "")
		st := decodeStatus(t, body)
		if st.State == StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s, want running", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tokensInUse reads taserved_cpu_tokens_in_use from /v1/metrics.
func tokensInUse(t *testing.T, base string) string {
	t.Helper()
	_, body := getBody(t, base+"/v1/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "taserved_cpu_tokens_in_use "); ok {
			return v
		}
	}
	t.Fatalf("metrics lack taserved_cpu_tokens_in_use:\n%s", body)
	return ""
}

// TestJobHoldsOneToken pins the admission contract: every job that computes
// holds exactly one CPU token, whatever workers value a client still sends,
// so two such jobs on a two-token server run side by side.
func TestJobHoldsOneToken(t *testing.T) {
	_, ts := testServer(t, Config{CPUTokens: 2})
	release := holdTAJobs(t)
	a := tinyTARequest(t)
	b := tinyTARequest(t)
	b.Queries = b.Queries[1:]
	first := postSubmit(t, ts.URL, rawWithWorkers(t, a, 2))
	awaitRunning(t, ts.URL, first.JobID)
	if got := tokensInUse(t, ts.URL); got != "1" {
		t.Errorf("one running job asking for 2 workers holds %s tokens, want 1", got)
	}
	second := postSubmit(t, ts.URL, rawWithWorkers(t, b, 2))
	awaitRunning(t, ts.URL, second.JobID)
	if got := tokensInUse(t, ts.URL); got != "2" {
		t.Errorf("two running jobs hold %s tokens, want 2", got)
	}
	release()
	for _, id := range []string{first.JobID, second.JobID} {
		if st := await(t, ts.URL, id, time.Minute); st.State != StateDone {
			t.Errorf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
}

// TestWorkersOptionIgnored: two submissions that differ only in the workers
// value a client still sends are one question, so one job and one
// exploration.
func TestWorkersOptionIgnored(t *testing.T) {
	s, ts := testServer(t, Config{CPUTokens: 4})
	req := SubmitRequest{Kind: "arch", Model: tinyArchModel(t), Options: SubmitOptions{HorizonMS: 100}}
	one := postSubmit(t, ts.URL, rawWithWorkers(t, req, 1))
	four := postSubmit(t, ts.URL, rawWithWorkers(t, req, 4))
	if one.JobID != four.JobID {
		t.Fatalf("workers 1 and 4 gave jobs %s and %s, want one", one.JobID, four.JobID)
	}
	if st := await(t, ts.URL, one.JobID, time.Minute); st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if n := s.Stats().Explorations; n != 1 {
		t.Errorf("Explorations = %d, want 1", n)
	}
}

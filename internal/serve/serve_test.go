package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
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
			Options:      SubmitOptions{HorizonMSByReq: horizons, Workers: 1},
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

// TestWorkersClamped pins the admission contract: a job cannot ask for more
// parallelism than the global CPU budget.
func TestWorkersClamped(t *testing.T) {
	_, ts := testServer(t, Config{CPUTokens: 2})
	sr := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: tinyArchModel(t),
		Options: SubmitOptions{HorizonMS: 100, Workers: 64}})
	st := await(t, ts.URL, sr.JobID, time.Minute)
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if st.Progress.Workers != 2 {
		t.Errorf("workers = %d, want clamped to 2", st.Progress.Workers)
	}
}

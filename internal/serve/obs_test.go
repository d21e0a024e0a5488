package serve

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
)

// TestMetricsAliasAndLint pins the exposition contract: the /v1/metrics body
// passes the shared obs.Lint validator — the same check the serve-smoke CI
// job runs against a live node — and the operational endpoints exist under
// /v1/ only (the historical unversioned aliases answer 404).
func TestMetricsAliasAndLint(t *testing.T) {
	_, ts := testServer(t, Config{CPUTokens: 1})
	sr := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: tinyArchModel(t),
		Options: SubmitOptions{HorizonMS: 100}})
	if st := await(t, ts.URL, sr.JobID, time.Minute); st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}

	code, v1 := getBody(t, ts.URL+"/v1/metrics")
	if code != 200 {
		t.Fatalf("/v1/metrics: HTTP %d", code)
	}
	for _, alias := range []string{"/metrics", "/healthz"} {
		if code, _ := getBody(t, ts.URL+alias); code != 404 {
			t.Errorf("%s: HTTP %d, want 404 (only /v1%s is registered)", alias, code, alias)
		}
	}
	if errs := obs.Lint(strings.NewReader(string(v1))); len(errs) > 0 {
		t.Fatalf("/v1/metrics fails exposition lint: %v\n%s", errs, v1)
	}
	for _, fam := range []string{
		"taserved_submissions_total", "taserved_jobs_active",
		"taserved_job_queue_wait_seconds", "taserved_job_admission_wait_seconds",
		"taserved_job_compute_seconds", "taserved_job_replicate_seconds",
		"taserved_zone_slab_bytes",
	} {
		if !strings.Contains(string(v1), "# TYPE "+fam+" ") {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
	if !strings.Contains(string(v1), `taserved_job_compute_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("compute histogram did not record the job:\n%s", v1)
	}
}

// slabGauges scrapes /v1/metrics and returns the two zone-slab series.
func slabGauges(t *testing.T, base string) (inUse, cached int64) {
	t.Helper()
	code, body := getBody(t, base+"/v1/metrics")
	if code != 200 {
		t.Fatalf("/v1/metrics: HTTP %d", code)
	}
	read := func(state string) int64 {
		series := `taserved_zone_slab_bytes{state="` + state + `"} `
		_, rest, ok := strings.Cut(string(body), series)
		if !ok {
			t.Fatalf("series %s missing from exposition:\n%s", series, body)
		}
		line, _, _ := strings.Cut(rest, "\n")
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			t.Fatalf("%s%s: %v", series, line, err)
		}
		return n
	}
	return read("in_use"), read("cached")
}

// TestZoneSlabGauges scrapes the slab series before, during and after a
// sweep. Zone memory is mapped, not allocated, so these are the service's
// only account of it: a running sweep shows as in_use, and what it releases
// stays as cached — the whole of it, for the next sweep — and is reported on
// /v1/healthz as well.
func TestZoneSlabGauges(t *testing.T) {
	_, ts := testServer(t, Config{})
	idle, _ := slabGauges(t, ts.URL)

	sr := submit(t, ts.URL, hugeSubmit(29, 0))
	if st := awaitProgress(t, ts.URL, sr.JobID, 2000, time.Minute); st.State != StateRunning {
		t.Fatalf("job %s: %s (%s), want running mid-sweep", sr.JobID, st.State, st.Error)
	}
	during, _ := slabGauges(t, ts.URL)
	if during <= idle {
		t.Errorf("in_use %d while a sweep with 2000 stored states runs, %d before it", during, idle)
	}

	postJSON(t, ts.URL+"/v1/jobs/"+sr.JobID+"/cancel", nil)
	await(t, ts.URL, sr.JobID, 30*time.Second)
	after, cached := slabGauges(t, ts.URL)
	if after != idle || cached < during-idle {
		t.Errorf("after the sweep: in_use %d (idle %d), cached %d; want the sweep's %d bytes cached", after, idle, cached, during-idle)
	}
	_, body := getBody(t, ts.URL+"/v1/healthz")
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["zone_slab_bytes"] != float64(after+cached) {
		t.Errorf("healthz zone_slab_bytes = %v, want in_use + cached = %d", h["zone_slab_bytes"], after+cached)
	}
}

// TestJobProfileEndpoint checks the per-job profile: lifecycle spans with
// monotone timings whose total stays within the job's wall time, and the
// engine's sweep profile (phase spans + per-worker series) for a locally
// computed job.
func TestJobProfileEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{CPUTokens: 1})
	sr := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: tinyArchModel(t),
		Options: SubmitOptions{HorizonMS: 100}})
	if st := await(t, ts.URL, sr.JobID, time.Minute); st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}

	// The replicate span is recorded after the job turns terminal — the
	// announce is kept off the path of whoever waits on the job — so a profile
	// read this early may be one span short: fetch until it is whole.
	var pr *api.ProfileResponse
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var err error
		if pr, err = client.New(ts.URL, nil).Profile(context.Background(), sr.JobID); err != nil {
			t.Fatalf("profile: %v", err)
		}
		if len(pr.Spans) == 4 || time.Now().After(deadline) {
			break
		}
	}
	if pr.JobID != sr.JobID || pr.State != StateDone || pr.WallNS <= 0 {
		t.Fatalf("profile header = %+v, want done job with positive wall time", pr)
	}

	spans := map[string]obs.Span{}
	var sum int64
	for _, sp := range pr.Spans {
		if sp.DurNS < 0 || sp.StartNS <= 0 {
			t.Errorf("span %s has start=%d dur=%d", sp.Name, sp.StartNS, sp.DurNS)
		}
		spans[sp.Name] = sp
		sum += sp.DurNS
	}
	for _, name := range []string{"queue_wait", "admission_wait", "compute", "replicate"} {
		if _, ok := spans[name]; !ok {
			t.Fatalf("span %s missing (got %+v)", name, pr.Spans)
		}
	}
	// The lifecycle spans are sequential: each begins no earlier than its
	// predecessor ends, and their total cannot exceed the wall time.
	for _, pair := range [][2]string{
		{"queue_wait", "admission_wait"}, {"admission_wait", "compute"}, {"compute", "replicate"},
	} {
		prev, next := spans[pair[0]], spans[pair[1]]
		if next.StartNS < prev.StartNS+prev.DurNS {
			t.Errorf("span %s starts at %d, before %s ends at %d",
				pair[1], next.StartNS, pair[0], prev.StartNS+prev.DurNS)
		}
	}
	if sum > pr.WallNS {
		t.Errorf("span durations sum to %dns, more than the %dns wall time", sum, pr.WallNS)
	}

	if len(pr.Sweep) == 0 {
		t.Fatal("locally computed job has no sweep profile")
	}
	var sweep core.SweepProfile
	if err := json.Unmarshal(pr.Sweep, &sweep); err != nil {
		t.Fatalf("sweep profile undecodable: %v", err)
	}
	phases := map[string]bool{}
	for _, sp := range sweep.Phases {
		phases[sp.Name] = true
	}
	for _, name := range []string{"parse", "compile", "explore"} {
		if !phases[name] {
			t.Errorf("sweep phase %s missing (got %+v)", name, sweep.Phases)
		}
	}
	if len(sweep.Series) != 1 {
		t.Errorf("sweep has %d series, want exactly one", len(sweep.Series))
	}
	if sweep.Totals.Stored == 0 {
		t.Error("sweep totals empty, want the run's exact counters")
	}

	// Unknown jobs 404 through the same route.
	code, _ := getBody(t, ts.URL+"/v1/jobs/nope/profile")
	if code != 404 {
		t.Errorf("profile of unknown job: HTTP %d, want 404", code)
	}
}

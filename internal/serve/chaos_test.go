//go:build faultinject

package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// This file is the serve half of the chaos suite (CI job "chaos"): it runs
// only under -tags faultinject, arming faults at the job runner's named site
// and asserting the blast radius stays one job — the grant is returned, the
// table slot recycles, and the server keeps serving.

// TestChaosJobPanicContained injects a panic into the job closure and
// requires a failed job (not a dead process), with the CPU grant released and
// a clean retry succeeding afterwards.
func TestChaosJobPanicContained(t *testing.T) {
	defer faultinject.Reset()
	s, ts := testServer(t, Config{CPUTokens: 2})
	req := SubmitRequest{Kind: "arch", Model: tinyArchModel(t),
		Options: SubmitOptions{HorizonMS: 100}}

	faultinject.Set("serve/job", faultinject.Fault{Kind: faultinject.KindPanic})
	sr := submit(t, ts.URL, req)
	final := await(t, ts.URL, sr.JobID, time.Minute)
	faultinject.Clear("serve/job")
	if final.State != StateFailed || !strings.Contains(final.Error, "job panicked") {
		t.Fatalf("job under injected panic: %s (%q), want failed (job panicked)", final.State, final.Error)
	}
	if held := s.tokens.inUse(); held != 0 {
		t.Fatalf("panicked job leaked %d CPU tokens", held)
	}

	// The failed entry is replaced by a fresh attempt, which now succeeds.
	again := submit(t, ts.URL, req)
	if again.JobID != sr.JobID || !again.Created {
		t.Fatalf("resubmission after contained panic = %+v, want a fresh attempt", again)
	}
	if final := await(t, ts.URL, again.JobID, time.Minute); final.State != StateDone {
		t.Fatalf("retry after contained panic: %s (%s)", final.State, final.Error)
	}
}

// TestChaosSlowJobStillSheds arms a delay at the job site and checks the
// operational endpoints stay responsive while the slow job holds its grant.
func TestChaosSlowJobStillSheds(t *testing.T) {
	defer faultinject.Reset()
	_, ts := testServer(t, Config{CPUTokens: 1, MaxActiveJobs: 1})
	faultinject.Set("serve/job", faultinject.Fault{Kind: faultinject.KindDelay, Delay: 200 * time.Millisecond})
	defer faultinject.Clear("serve/job")

	sr := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: tinyArchModel(t),
		Options: SubmitOptions{HorizonMS: 100}})
	// While the delayed job occupies the only table slot, health must answer
	// immediately (graded, but never blocked behind the slow job).
	start := time.Now()
	code, _ := getBody(t, ts.URL+"/v1/healthz")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("healthz blocked %v behind a slow job", elapsed)
	}
	if code != 200 && code != 503 {
		t.Errorf("healthz under load: %d", code)
	}
	if final := await(t, ts.URL, sr.JobID, time.Minute); final.State != StateDone {
		t.Fatalf("delayed job: %s (%s)", final.State, final.Error)
	}
}

package serve

import (
	"bytes"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/wire"
)

// TestThunderingHerdSingleflight is the satellite race/stress test: N
// goroutines submit the identical model + query set concurrently and the
// server must collapse them onto ONE job — exactly one parse, one compile,
// one exploration — with every response byte-identical, and the verdicts
// bit-identical to a direct CompiledSet.Analyze call. Run under -race in CI.
func TestThunderingHerdSingleflight(t *testing.T) {
	s, ts := testServer(t, Config{CPUTokens: 4})
	model := tinyArchModel(t)
	req := SubmitRequest{
		Kind:    "arch",
		Model:   model,
		Options: SubmitOptions{HorizonMS: 100},
	}

	const n = 16
	ids := make([]string, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			ids[i] = submit(t, ts.URL, req).JobID
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, submission 0 got %s — content addressing broken", i, ids[i], ids[0])
		}
	}
	st := await(t, ts.URL, ids[0], time.Minute)
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}

	// Every result fetch returns the same bytes.
	var first []byte
	var mu sync.Mutex
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			code, body := getBody(t, ts.URL+"/v1/jobs/"+ids[0]+"/result")
			if code != http.StatusOK {
				t.Errorf("result: %d", code)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if first == nil {
				first = body
			} else if !bytes.Equal(first, body) {
				t.Errorf("result bytes differ between fetches")
			}
		}()
	}
	done.Wait()

	c := s.Stats()
	if c.Explorations != 1 {
		t.Errorf("explorations = %d, want exactly 1 for %d identical submissions", c.Explorations, n)
	}
	if c.ModelMisses != 1 || c.CompileMisses != 1 {
		t.Errorf("parse/compile not singleflighted: modelMisses=%d compileMisses=%d", c.ModelMisses, c.CompileMisses)
	}
	if c.Submissions != n {
		t.Errorf("submissions = %d, want %d", c.Submissions, n)
	}
	if c.DedupedLive+c.ResultHits != n-1 {
		t.Errorf("dedup accounting: live=%d resultHits=%d, want %d total", c.DedupedLive, c.ResultHits, n-1)
	}

	// Bit-identical to the library path: same wire encoding of a direct
	// CompiledSet.Analyze with the same options, down to the sweep
	// counters.
	sys, reqs, err := arch.ParseSystem([]byte(model))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := arch.CompileAll(sys, reqs, arch.Options{HorizonMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cs.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := wire.FromAllResult(direct)
	got := result(t, ts.URL, ids[0])
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Errorf("result %d: served %+v != direct %+v", i, got.Results[i], want.Results[i])
		}
	}

	// The satellite's second half: a repeated identical submission after
	// completion hits the result cache — zero additional explorations.
	again := submit(t, ts.URL, req)
	if again.JobID != ids[0] || again.Created || again.State != StateDone {
		t.Errorf("resubmission did not hit the result cache: %+v", again)
	}
	if c := s.Stats(); c.Explorations != 1 {
		t.Errorf("resubmission re-explored: explorations = %d", c.Explorations)
	}
}

// TestDistinctSubmissionsDistinctJobs guards the inverse property: changing
// any key ingredient (options, requirement subset) yields a different job.
func TestDistinctSubmissionsDistinctJobs(t *testing.T) {
	_, ts := testServer(t, Config{})
	model := tinyArchModel(t)
	a := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: model,
		Options: SubmitOptions{HorizonMS: 100}})
	b := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: model,
		Options: SubmitOptions{HorizonMS: 200}})
	c := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: model,
		Requirements: []string{"e2e"}, Options: SubmitOptions{HorizonMS: 100}})
	if a.JobID == b.JobID || a.JobID == c.JobID || b.JobID == c.JobID {
		t.Errorf("distinct submissions collapsed: %s %s %s", a.JobID, b.JobID, c.JobID)
	}
	await(t, ts.URL, a.JobID, time.Minute)
	await(t, ts.URL, b.JobID, time.Minute)
	await(t, ts.URL, c.JobID, time.Minute)
	// Inert option fields are canonicalized away: the seed only feeds rdf
	// shuffling, so a bfs submission differing only in seed is the SAME
	// work and must land on the same job.
	d := submit(t, ts.URL, SubmitRequest{Kind: "arch", Model: model,
		Options: SubmitOptions{HorizonMS: 100, Seed: 42}})
	if d.JobID != a.JobID {
		t.Errorf("bfs submissions differing only in seed got distinct jobs %s vs %s", d.JobID, a.JobID)
	}
}

package serve

import (
	"runtime"
	"testing"
	"time"
)

// TestFinishedJobsPinNoSweepScratch fills the retained-results table with
// finished jobs and measures what each one keeps alive. Every job submits the
// same model with a different deadline, so the parsed-model and compiled
// caches hit and a job adds only itself: its result bytes, spans, monitor
// totals and finalized profile. A finished job must not pin its sweep's
// scratch (profile rings, parent logs, store), and once the table is full,
// further jobs evict as many as they add, so the heap stays flat.
func TestFinishedJobsPinNoSweepScratch(t *testing.T) {
	const retained = 64
	s := New(Config{MaxFinishedJobs: retained})
	t.Cleanup(func() { _ = s.Shutdown(10 * time.Second) })
	model := tinyArchModel(t)
	run := func(i int) {
		t.Helper()
		sr, err := s.Submit(&SubmitRequest{Kind: "arch", Model: model,
			Options: SubmitOptions{HorizonMS: 100, DeadlineMS: int64(time.Hour/time.Millisecond) + int64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		if !sr.Created {
			t.Fatalf("submission %d joined job %s; the deadline must make it new", i, sr.JobID)
		}
		j := s.jobs.get(sr.JobID)
		<-j.done
		if state, errMsg, _, _ := j.snapshot(); state != StateDone {
			t.Fatalf("job %d ended %s: %s", i, state, errMsg)
		}
	}
	liveHeap := func() int64 {
		t.Helper()
		// Job goroutines outlive done by their announce; let them exit.
		if err := s.jobs.wait(time.Minute); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	run(0) // warms the model and compile caches
	base := liveHeap()
	for i := 1; i < retained; i++ {
		run(i)
	}
	full := liveHeap()
	perJob := (full - base) / (retained - 1)
	t.Logf("live heap %d B with 1 job, %d B with %d: %d B per finished job", base, full, retained, perJob)
	if perJob > 8<<10 {
		t.Errorf("each finished job retains %d B, want at most %d", perJob, 8<<10)
	}

	for i := retained; i < 2*retained; i++ {
		run(i)
	}
	if _, kept := s.jobs.counts(); kept != retained {
		t.Fatalf("table retains %d finished jobs, want %d", kept, retained)
	}
	after := liveHeap()
	t.Logf("live heap %d B after %d more jobs", after, retained)
	// One job's worth of slack absorbs runtime noise; a leak of anything a
	// job allocates would grow the heap by at least 64 of it.
	if after > full+8<<10 {
		t.Errorf("live heap grew from %d to %d B over %d jobs that only replaced retained ones", full, after, retained)
	}
}

package serve

import (
	"time"

	"repro/internal/dbm"
	"repro/internal/obs"
)

// This file is the exposition: /v1/metrics renders an internal/obs registry.
// The counters stay owned by the Server's atomics (and the caches' own
// counters) and are bridged in with CounterFunc/GaugeFunc, so scraping adds no
// write path. Family names are a contract with dashboards, the smoke tools
// and the benchmark: none is renamed. On top of the bridges the registry owns
// real histograms for the per-job spans and, when the dispatch backend
// supports it (metricsInstrumenter), the pub/sub dispatch/announce/adopt
// latencies.

// secondsBuckets are the shared latency bounds (seconds) for every serve
// histogram: sub-millisecond queue hits through minute-long sweeps.
var secondsBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30, 60}

// jobSpans is the job lifecycle, one row per stage in the order a job passes
// through them: the span recorded on the job and the latency histogram its
// duration feeds.
var jobSpans = []struct{ span, family, help string }{
	{spanQueueWait, "taserved_job_queue_wait_seconds", "Submission to execution-goroutine start."},
	{spanAdmissionWait, "taserved_job_admission_wait_seconds", "Time blocked acquiring the CPU-token/memory grant."},
	{spanCompute, "taserved_job_compute_seconds", "Job closure runtime (sweep, or proxy wait for dispatched jobs)."},
	{spanReplicate, "taserved_job_replicate_seconds", "Result replication: cache put plus cluster announce."},
}

// observeSpan routes one finished job span into its histogram.
func (s *Server) observeSpan(span string, d time.Duration) {
	s.hists[span].Observe(d.Seconds())
}

// metricsInstrumenter is the optional seam a dispatch backend implements to
// register its own families (pubsub.Node does).
type metricsInstrumenter interface {
	InstrumentMetrics(*obs.Registry)
}

// buildRegistry assembles the server's metric registry. Registration order is
// the exposition order, kept stable so repeated scrapes are byte-comparable.
func (s *Server) buildRegistry() {
	r := obs.NewRegistry()
	s.reg = r
	c := r.CounterFunc
	g := r.GaugeFunc

	c("taserved_submissions_total", "Submissions received (bad requests included).", s.submissions.Load)
	c("taserved_jobs_deduped_total", "Submissions that joined a queued or running twin.", s.dedupLive.Load)
	c("taserved_result_cache_hits_total", "Submissions answered by a finished job.", s.resultHits.Load)
	c("taserved_explorations_total", "Sweeps actually run on this node.", s.explorations.Load)
	c("taserved_jobs_canceled_total", "Jobs aborted by cooperative cancellation.", s.canceled.Load)
	c("taserved_jobs_deadline_exceeded_total", "Jobs aborted by their wall-clock deadline.", s.expired.Load)
	c("taserved_model_cache_hits_total", "Parsed-model cache hits.", s.models.hits.Load)
	c("taserved_model_cache_misses_total", "Parsed-model cache misses.", s.models.misses.Load)
	g("taserved_model_cache_entries", "Parsed models currently cached.", func() int64 { return int64(s.models.len()) })
	c("taserved_compile_cache_hits_total", "Compiled-network cache hits.", s.compiled.hits.Load)
	c("taserved_compile_cache_misses_total", "Compiled-network cache misses.", s.compiled.misses.Load)
	g("taserved_compile_cache_entries", "Compiled networks currently cached.", func() int64 { return int64(s.compiled.len()) })
	g("taserved_jobs_active", "Jobs queued or running.", func() int64 { a, _ := s.jobs.counts(); return int64(a) })
	g("taserved_jobs_retained", "Terminal jobs retained as the result cache.", func() int64 { _, ret := s.jobs.counts(); return int64(ret) })
	g("taserved_cpu_tokens_total", "Global CPU-token admission budget.", func() int64 { return int64(s.cfg.CPUTokens) })
	g("taserved_cpu_tokens_in_use", "CPU tokens currently granted.", func() int64 { return int64(s.tokens.inUse()) })
	g("taserved_admission_queue_depth", "Jobs blocked waiting for an admission grant.", func() int64 { return int64(s.tokens.waiting()) })
	g("taserved_memory_budget_bytes", "Global zone-memory budget (0 = unmetered).", func() int64 { return s.cfg.MemoryBudget })
	g("taserved_memory_in_use_bytes", "Memory-budget bytes currently granted.", s.tokens.bytesInUse)
	g("taserved_stored_zone_bytes", "Live explorations' resident passed-store bytes.", func() int64 { b, _, _ := s.jobs.storedFootprint(); return b })
	g("taserved_intern_hits_total", "Live explorations' discrete-vector intern hits.", func() int64 { _, h, _ := s.jobs.storedFootprint(); return h })
	g("taserved_intern_misses_total", "Live explorations' discrete-vector intern misses.", func() int64 { _, _, miss := s.jobs.storedFootprint(); return miss })
	// Zone slabs are mapped, not allocated (internal/dbm): the Go runtime's
	// own metrics and heap profiles do not contain them, so without these two
	// the process's resident memory cannot be accounted for from its output.
	// Process-wide, like the cache itself.
	slab := func(state string, fn func() int64) {
		g("taserved_zone_slab_bytes", "Zone slab memory held by running sweeps (in_use) and kept for the next one (cached).",
			fn, obs.Label{Name: "state", Value: state})
	}
	slab("in_use", func() int64 { _, inUse, _ := dbm.SlabStats(); return inUse })
	slab("cached", func() int64 { _, _, cached := dbm.SlabStats(); return cached })
	c("taserved_shed_total", "Submissions rejected 429 at admission.", s.shed.Load)
	g("taserved_node_info", "Static node identity; the node label carries the id.",
		func() int64 { return 1 }, obs.Label{Name: "node", Value: s.dispatch.Self()})
	g("taserved_peer_count", "Known dispatch peers.", func() int64 { return int64(len(s.dispatch.Nodes())) })
	c("taserved_dispatched_total", "Submissions routed to the owning peer.", s.dispatched.Load)
	c("taserved_remote_hits_total", "Submissions answered with peer-computed bytes.", s.remoteHits.Load)
	c("taserved_dispatch_fallbacks_total", "Dispatches degraded to local compute.", s.fallbacks.Load)
	g("taserved_replicated_results", "Completion events held by the replicated cache.", func() int64 { return int64(s.results.Len()) })

	s.hists = make(map[string]*obs.Histogram, len(jobSpans))
	for _, sp := range jobSpans {
		s.hists[sp.span] = r.Histogram(sp.family, sp.help, secondsBuckets)
	}

	if mi, ok := s.dispatch.(metricsInstrumenter); ok {
		mi.InstrumentMetrics(r)
	}

	// Registered last, so every family above scrapes exactly as it did before
	// these two existed.
	c("taserved_status_requests_total", "Status requests received (GET /v1/jobs/{id}), waiting or not.", s.statusRequests.Load)
	g("taserved_status_waiters", "Status requests parked in a wait_ms wait right now.", s.statusWaiters.Load)
}

package main

// metricDef describes one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions; benchmark_json_test.go holds the two
// together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one. Each bound is the share of the parent's median by
// which the metric may worsen before a change counts as a regression. The
// timing and peak-memory bounds sit at the most the driver allows: on this
// shared microVM identical runs differ by 10–30% even in guest time
// (README, "Steadiness"). Allocation per verdict repeats within 1.5%, so its
// bound is tight. MB means MiB. Failures are not a metric here: the result
// line's attempted/failed counts carry them, and any failure makes the run
// incorrect. The mean-based rate verdicts_per_s repeated worse than the
// median it shadows and is a per-layer diagnostic (run.verdicts_per_s).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"verdict_ms_p50", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"alloc_mb_per_verdict", "MB", "lower", 0.05},
}

func layerDef(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayer are the single-layer metrics of the traced pass, named
// <module>.<what>. A workload that never enters a layer reports 0 for it.
var perLayer = []metricDef{
	layerDef("ta.parse_us", "us", "lower"),
	layerDef("ta.finalize_index_us", "us", "lower"),
	layerDef("ta.net_edges", "count", "lower"),
	layerDef("arch.parse_us", "us", "lower"),
	layerDef("arch.compile_us", "us", "lower"),
	layerDef("arch.net_clocks", "count", "lower"),
	layerDef("arch.net_procs", "count", "lower"),
	layerDef("arch.net_chans", "count", "lower"),
	layerDef("icrns.build_us", "us", "lower"),
	layerDef("icrns.cells_ms.cv_po", "ms", "lower"),
	layerDef("icrns.cells_ms.al_po", "ms", "lower"),
	layerDef("icrns.cells_ms.cv_pno", "ms", "lower"),
	layerDef("icrns.cells_ms.al_pno", "ms", "lower"),
	layerDef("icrns.cells_ms.cv_sp", "ms", "lower"),
	layerDef("icrns.cells_ms.al_sp", "ms", "lower"),
	layerDef("icrns.cells_ms.cv_pj", "ms", "lower"),
	layerDef("icrns.cells_ms.al_pj", "ms", "lower"),
	layerDef("icrns.cells_ms.cv_bur", "ms", "lower"),
	layerDef("icrns.cells_ms.al_bur", "ms", "lower"),
	layerDef("icrns.exact_cells", "count", "higher"),
	layerDef("core.new_checker_us", "us", "lower"),
	layerDef("core.run_queries_ms", "ms", "lower"),
	layerDef("core.explore_ms", "ms", "lower"),
	layerDef("core.stored", "count", "lower"),
	layerDef("core.popped", "count", "lower"),
	layerDef("core.transitions", "count", "lower"),
	layerDef("core.us_per_transition", "us", "lower"),
	layerDef("core.subsumed_ratio", "ratio", "lower"),
	layerDef("core.states_per_s", "1/s", "higher"),
	layerDef("core.stored_bytes_per_state", "B", "lower"),
	layerDef("core.intern_hit_ratio", "ratio", "higher"),
	layerDef("core.pool_reuse_ratio", "ratio", "higher"),
	layerDef("core.par_verdict_ms_p50", "ms", "lower"),
	layerDef("core.par_excess_states_ratio", "ratio", "lower"),
	layerDef("core.steals", "count", "lower"),
	layerDef("core.store_contention", "count", "lower"),
	layerDef("core.par_speedup", "ratio", "higher"),
	layerDef("core.trace_replay_ms", "ms", "lower"),
	layerDef("dbm.dim", "count", "lower"),
	layerDef("dbm.close_ns", "ns", "lower"),
	layerDef("dbm.up_extra_m_ns", "ns", "lower"),
	layerDef("dbm.compact_encode_ns", "ns", "lower"),
	layerDef("dbm.compact_subset_ns", "ns", "lower"),
	layerDef("dbm.kernel_share_est", "ratio", "lower"),
	layerDef("wire.new_run_us", "us", "lower"),
	layerDef("wire.encode_us", "us", "lower"),
	layerDef("wire.result_bytes", "B", "lower"),
	layerDef("serve.submit_ms_p50", "ms", "lower"),
	layerDef("serve.await_ms_p50", "ms", "lower"),
	layerDef("serve.result_ms_p50", "ms", "lower"),
	layerDef("serve.polls_per_job", "count", "lower"),
	layerDef("serve.job_server_ms_p50", "ms", "lower"),
	layerDef("serve.overhead_ms_p50", "ms", "lower"),
	layerDef("serve.hit_ms_p50", "ms", "lower"),
	layerDef("serve.sweep_ms_p50", "ms", "lower"),
	layerDef("serve.compute_ms_mean", "ms", "lower"),
	layerDef("serve.queue_wait_ms_mean", "ms", "lower"),
	layerDef("serve.admission_wait_ms_mean", "ms", "lower"),
	layerDef("serve.result_hit_ratio", "ratio", "higher"),
	layerDef("serve.compile_hit_ratio", "ratio", "higher"),
	layerDef("serve.model_hit_ratio", "ratio", "higher"),
	layerDef("serve.explorations", "count", "lower"),
	layerDef("serve.manager_submit_us", "us", "lower"),
	layerDef("serve.http_share", "ratio", "lower"),
	layerDef("serve.jobs_per_s", "1/s", "higher"),
	layerDef("serve.job_ms_p90", "ms", "lower"),
	layerDef("serve.job_ms_p99", "ms", "lower"),
	layerDef("pubsub.hop_ms_p50", "ms", "lower"),
	layerDef("pubsub.remote_hit_ms_p50", "ms", "lower"),
	layerDef("pubsub.dispatched", "count", "lower"),
	layerDef("pubsub.fallbacks", "count", "lower"),
	layerDef("obs.profile_overhead_ratio", "ratio", "lower"),
	layerDef("obs.scrape_ms", "ms", "lower"),
	layerDef("go.allocs_per_verdict", "count", "lower"),
	layerDef("go.gc_cycles", "count", "lower"),
	layerDef("go.gc_pause_ms_total", "ms", "lower"),
	layerDef("host.nproc", "count", "higher"),
	layerDef("host.canary_ms", "ms", "lower"),
	layerDef("host.sleep_overshoot_ms_p90", "ms", "lower"),
	layerDef("host.steal_ratio", "ratio", "lower"),
	layerDef("run.verdicts_per_s", "1/s", "higher"),
	layerDef("trace.overhead_ratio", "ratio", "lower"),
	layerDef("trace.layer_sum_ratio", "ratio", "higher"),
}

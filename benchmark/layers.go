package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/benchmark/expected"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/icrns"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/pubsub"
	"repro/internal/ta"
	"repro/internal/wire"
)

// tracedPass is what the traced units of a run produced; the per-layer
// metrics are computed from it and from the program's public read-outs.
type tracedPass struct {
	spans    []span
	units    int
	verdicts int
	stats    wire.Stats // summed over the traced units
	bytes    int
	busy     time.Duration
	p50MS    float64 // verdict_ms_p50 of the traced units
	plainMS  float64 // verdict_ms_p50 of the plain units run just before
}

// spanLayer maps a span name to the per-verdict layer metric its self time
// feeds, with the metric's time unit.
var spanLayer = map[string]struct {
	metric string
	per    time.Duration
}{
	"ta.parse":          {"ta.parse_us", time.Microsecond},
	"ta.finalize_index": {"ta.finalize_index_us", time.Microsecond},
	"arch.ParseSystem":  {"arch.parse_us", time.Microsecond},
	"arch.CompileAll":   {"arch.compile_us", time.Microsecond},
	"core.NewChecker":   {"core.new_checker_us", time.Microsecond},
	"core.RunQueries":   {"core.run_queries_ms", time.Millisecond},
	"wire.NewTARun":     {"wire.new_run_us", time.Microsecond},
	"wire.encode":       {"wire.encode_us", time.Microsecond},
}

// commonLayers fills the metrics every workload derives the same way: span
// self times per verdict, the engine's own effort counts, and the tracing
// controls.
func commonLayers(m map[string]float64, tp *tracedPass) {
	self, _ := selfTimes(tp.spans)
	v := float64(tp.verdicts)
	for name, l := range spanLayer {
		m[l.metric] = ratio(float64(self[name])/float64(l.per), v)
	}
	m["wire.result_bytes"] = ratio(float64(tp.bytes), v)
	m["core.explore_ms"] = ratio(float64(tp.stats.DurationNS)/1e6, v)
	m["core.stored"] = ratio(float64(tp.stats.Stored), v)
	m["core.popped"] = ratio(float64(tp.stats.Popped), v)
	m["core.transitions"] = ratio(float64(tp.stats.Transitions), v)
	m["core.us_per_transition"] = ratio(float64(tp.stats.DurationNS)/1e3, float64(tp.stats.Transitions))
	if tp.stats.Transitions > 0 {
		m["core.subsumed_ratio"] = 1 - float64(tp.stats.Stored)/float64(tp.stats.Transitions)
	}
	m["core.states_per_s"] = ratio(float64(tp.stats.Stored), tp.busy.Seconds())
	m["trace.overhead_ratio"] = ratio(tp.p50MS, tp.plainMS)
	m["trace.layer_sum_ratio"] = layerSumRatio(tp.spans)
}

// spanMSPerUnit is the summed duration of the spans with the given name,
// per traced unit, in milliseconds.
func spanMSPerUnit(tp *tracedPass, name string) float64 {
	var total int64
	for _, s := range tp.spans {
		if s.Name == name {
			total += s.EndNS - s.StartNS
		}
	}
	return ratio(float64(total)/1e6, float64(tp.units))
}

// spanP50MS is the median over units of the time each unit spent in spans
// with the given name.
func spanP50MS(tp *tracedPass, name string) float64 {
	perUnit := map[int]int64{}
	for _, s := range tp.spans {
		if s.Name == name {
			perUnit[s.Unit] += s.EndNS - s.StartNS
		}
	}
	vals := make([]float64, 0, len(perUnit))
	for _, ns := range perUnit {
		vals = append(vals, float64(ns)/1e6)
	}
	return median(vals)
}

// --- engine read-outs shared by the library workloads ---

// engineReadouts runs one extra profiled sweep of net and reads the store,
// pool and contention figures off core.Monitor — the engine's own public
// telemetry, nothing instrumented.
func engineReadouts(m map[string]float64, net *ta.Network, queries []core.Query, workers int) error {
	checker, err := core.NewChecker(net)
	if err != nil {
		return err
	}
	mon := &core.Monitor{}
	mon.EnableProfile(core.ProfileConfig{SampleEvery: 64})
	if _, err := checker.RunQueries(core.Options{Workers: workers, Monitor: mon}, queries...); err != nil {
		return err
	}
	snap := mon.Snapshot()
	m["core.stored_bytes_per_state"] = ratio(float64(snap.StoredBytes), float64(snap.Stored))
	m["core.intern_hit_ratio"] = ratio(float64(snap.InternHits), float64(snap.InternHits+snap.InternMisses))
	if prof := mon.Profile(); prof != nil {
		var gets, reuses int64
		for _, series := range prof.Series {
			if n := len(series.Samples); n > 0 {
				gets += series.Samples[n-1].PoolGets
				reuses += series.Samples[n-1].PoolReuses
			}
		}
		m["core.pool_reuse_ratio"] = ratio(float64(reuses), float64(gets))
		m["core.steals"] = float64(prof.Steals)
		m["core.store_contention"] = float64(prof.StoreContention)
	}
	return nil
}

// kernelZones is how many zones the dbm kernels are timed on.
const kernelZones = 1000

// dbmKernels times the four zone kernels the sweep leans on, on real zones:
// the first kernelZones the exploration of net admits, copied out of a
// Checker.Explore visitor. kernel_share_est prices every generated
// successor at one of each kernel — an upper estimate, since the engine's
// incremental closures do less than the full Close timed here.
func dbmKernels(m map[string]float64, net *ta.Network) error {
	checker, err := core.NewChecker(net)
	if err != nil {
		return err
	}
	var zones []*dbm.DBM
	if _, err := checker.Explore(core.Options{MaxStates: kernelZones}, func(s *core.State) bool {
		zones = append(zones, s.Zone.Copy())
		return false
	}); err != nil {
		return err
	}
	dim := net.NumClocks()
	m["dbm.dim"] = float64(dim)
	if len(zones) == 0 {
		return fmt.Errorf("no zones to time the dbm kernels on")
	}
	scratch := dbm.New(dim)
	rows, cols := dbm.NewTouched(dim), dbm.NewTouched(dim)
	pool := dbm.NewCompactPool()
	packed := make([]dbm.Compact, len(zones))
	for i, z := range zones {
		packed[i] = dbm.EncodeCompact(z, nil)
	}
	var sink bool
	// perZoneNS times op over all zones, several passes, and returns the
	// median pass's time per zone.
	perZoneNS := func(op func(i int, z *dbm.DBM)) float64 {
		var passes []float64
		for p := 0; p < 9; p++ {
			t0 := time.Now()
			for i, z := range zones {
				op(i, z)
			}
			passes = append(passes, float64(time.Since(t0))/float64(len(zones)))
		}
		return median(passes)
	}
	copyNS := perZoneNS(func(_ int, z *dbm.DBM) { scratch.CopyFrom(z) })
	less := func(ns float64) float64 {
		if ns < copyNS {
			return 0
		}
		return ns - copyNS
	}
	m["dbm.close_ns"] = less(perZoneNS(func(_ int, z *dbm.DBM) { scratch.CopyFrom(z); sink = scratch.Close() }))
	m["dbm.up_extra_m_ns"] = less(perZoneNS(func(_ int, z *dbm.DBM) {
		scratch.CopyFrom(z)
		scratch.Up()
		sink = scratch.ExtraMTouched(net.MaxConsts, rows, cols)
	}))
	m["dbm.compact_encode_ns"] = perZoneNS(func(_ int, z *dbm.DBM) { pool.Put(dbm.EncodeCompact(z, pool)) })
	m["dbm.compact_subset_ns"] = perZoneNS(func(i int, z *dbm.DBM) { sink = packed[(i+1)%len(packed)].ContainsDBM(z) })
	_ = sink
	kernels := m["dbm.close_ns"] + m["dbm.up_extra_m_ns"] + m["dbm.compact_encode_ns"] + m["dbm.compact_subset_ns"]
	m["dbm.kernel_share_est"] = ratio(m["core.transitions"]*kernels/1e6, m["core.explore_ms"])
	return nil
}

func netEdges(net *ta.Network) int {
	n := 0
	for _, p := range net.Procs {
		n += len(p.Edges)
	}
	return n
}

func archNetSizes(m map[string]float64, net *ta.Network) {
	m["arch.net_clocks"] = float64(net.NumClocks())
	m["arch.net_procs"] = float64(len(net.Procs))
	m["arch.net_chans"] = float64(len(net.Chans))
}

func supQueries(cs *arch.CompiledSet) []core.Query {
	qs := make([]core.Query, len(cs.Reqs))
	for i := range cs.Reqs {
		qs[i] = core.NewSupClockQuery(cs.Obs[i].Y.ID, cs.AtSeen(i))
	}
	return qs
}

func compileArch(model []byte, copts arch.Options) (*arch.CompiledSet, error) {
	sys, reqs, err := arch.ParseSystem(model)
	if err != nil {
		return nil, err
	}
	return arch.CompileAll(sys, reqs, copts)
}

// --- per-workload layers ---

func (in *table1Inst) layers(m map[string]float64, tp *tracedPass) error {
	groups := table1Groups()
	for _, g := range groups {
		m["icrns.cells_ms."+g.key()] = spanMSPerUnit(tp, "icrns.Cells."+g.key())
	}
	m["icrns.exact_cells"] = float64(in.lastExact)
	var builds []float64
	for p := 0; p < 21; p++ {
		t0 := time.Now()
		for _, g := range groups {
			icrns.Build(g.combo, g.col, in.opts.Cfg)
		}
		builds = append(builds, us(time.Since(t0))/float64(len(groups)))
	}
	m["icrns.build_us"] = median(builds)

	// Telemetry cost: the AL·pno batch with the sweep profile recording,
	// over the same batch without, alternating so both see the same host.
	names := []string{icrns.ReqHandleTMC, icrns.ReqAddressLookup}
	var plain, profiled []float64
	for p := 0; p < 9; p++ {
		for _, on := range []bool{false, true} {
			opts := in.opts
			if on {
				opts.Monitor = &core.Monitor{}
				opts.Monitor.EnableProfile(core.ProfileConfig{})
			}
			t0 := time.Now()
			if _, err := icrns.Cells(icrns.ComboAL, icrns.ColPNO, names, opts); err != nil {
				return err
			}
			if on {
				profiled = append(profiled, ms(time.Since(t0)))
			} else {
				plain = append(plain, ms(time.Since(t0)))
			}
		}
	}
	m["obs.profile_overhead_ratio"] = ratio(median(profiled), median(plain))
	return nil
}

func (in *archChainInst) layers(m map[string]float64, tp *tracedPass) error {
	copts := arch.Options{HorizonMS: archChainHorizonMS}
	cs, err := compileArch(in.model, copts)
	if err != nil {
		return err
	}
	archNetSizes(m, cs.Net)
	if err := engineReadouts(m, cs.Net, supQueries(cs), 1); err != nil {
		return err
	}

	// The parallel engine on the same input: sharded store, work-stealing
	// deques, parent logs. Its verdict time did not repeat within any bound
	// the driver allows (README, "Steadiness"), so it is measured here as
	// layer metrics and not as a workload of its own.
	var par []sample
	var stored float64
	for p := 0; p < parRuns; p++ {
		clock := readHostClock()
		out, res, err := archAnalysis(in.model, copts, core.Options{Workers: parWorkers}, nil)
		if err != nil {
			return err
		}
		_, _, got := clock.since()
		par = append(par, sample{value: ms(res.dur), got: got})
		var resp wire.ArchResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			return err
		}
		if err := expected.CheckArch(resp, in.names, in.want); err != nil {
			return fmt.Errorf("parallel run: %w", err)
		}
		if resp.Stats.Stored < in.stored {
			return fmt.Errorf("parallel run stored %d states, below the sequential %d", resp.Stats.Stored, in.stored)
		}
		stored += float64(resp.Stats.Stored) / parRuns
	}
	m["core.par_verdict_ms_p50"] = median(guestTimes(par))
	m["core.par_speedup"] = ratio(tp.plainMS, m["core.par_verdict_ms_p50"])
	m["core.par_excess_states_ratio"] = ratio(stored, m["core.stored"]) - 1
	pm := map[string]float64{}
	if err := engineReadouts(pm, cs.Net, supQueries(cs), parWorkers); err != nil {
		return err
	}
	m["core.steals"], m["core.store_contention"] = pm["core.steals"], pm["core.store_contention"]
	return dbmKernels(m, cs.Net)
}

// parWorkers and parRuns size the traced pass's look at the parallel engine.
const (
	parWorkers = 2
	parRuns    = 3
)

func (in *fischerInst) layers(m map[string]float64, tp *tracedPass) error {
	net, err := ta.Parse(in.src)
	if err != nil {
		return err
	}
	m["ta.net_edges"] = float64(netEdges(net))
	run, err := wire.NewTARun(net, fischerQueries())
	if err != nil {
		return err
	}
	if err := engineReadouts(m, net, run.Queries(), 1); err != nil {
		return err
	}
	// Trace replay: a reach query whose witness the engine reconstructs
	// from its parent logs; the profile's trace-replay phase is its cost.
	reach, err := wire.NewTARun(net, []wire.TAQuery{{Kind: "reach", Pred: "P1.cs"}})
	if err != nil {
		return err
	}
	checker, err := core.NewChecker(net)
	if err != nil {
		return err
	}
	mon := &core.Monitor{}
	mon.EnableProfile(core.ProfileConfig{})
	stats, err := checker.RunQueries(core.Options{Workers: 1, Monitor: mon}, reach.Queries()...)
	if err != nil {
		return err
	}
	if resp := reach.Response(stats); !resp.Queries[0].Verdict || resp.Queries[0].Trace == "" {
		return fmt.Errorf("fischer: the critical section must be reachable with a witness")
	}
	for _, ph := range mon.Profile().Phases {
		if ph.Name == "trace-replay" {
			m["core.trace_replay_ms"] += float64(ph.DurNS) / 1e6
		}
	}
	return dbmKernels(m, net)
}

func (in *variantsInst) layers(m map[string]float64, tp *tracedPass) error {
	// Model sizes of the first model of each kind: the variants differ in
	// constants, not in shape.
	for _, v := range in.models {
		if v.kind == "arch" && m["arch.net_clocks"] == 0 {
			cs, err := compileArch([]byte(v.model), arch.Options{HorizonMS: 100})
			if err != nil {
				return err
			}
			archNetSizes(m, cs.Net)
			m["dbm.dim"] = float64(cs.Net.NumClocks())
		}
		if v.kind == "ta" && m["ta.net_edges"] == 0 {
			net, err := ta.Parse(v.model)
			if err != nil {
				return err
			}
			m["ta.net_edges"] = float64(netEdges(net))
		}
	}
	return nil
}

// --- serve ---

func (in *serveInst) layers(m map[string]float64, tp *tracedPass) error {
	m["serve.submit_ms_p50"] = spanP50MS(tp, "client.Submit")
	m["serve.await_ms_p50"] = spanP50MS(tp, "client.Status") + spanP50MS(tp, "client.poll_sleep")
	m["serve.result_ms_p50"] = spanP50MS(tp, "client.Result")
	var polls float64
	var serverMS, overheadMS, totalMS []float64
	for _, jt := range in.tracedJobs {
		polls += float64(jt.polls)
		serverMS = append(serverMS, jt.serverMS)
		overheadMS = append(overheadMS, ms(jt.total)-jt.serverMS)
		totalMS = append(totalMS, ms(jt.total))
	}
	m["serve.polls_per_job"] = ratio(polls, float64(len(in.tracedJobs)))
	m["serve.job_server_ms_p50"] = median(serverMS)
	m["serve.overhead_ms_p50"] = median(overheadMS)
	m["serve.jobs_per_s"] = ratio(float64(tp.units), tp.busy.Seconds())
	m["serve.job_ms_p90"] = percentile(totalMS, 0.9)
	m["serve.job_ms_p99"] = percentile(totalMS, 0.99)

	// The sweep class: a seen model under a fresh state budget — compiled
	// network cached, result not. Run before the closing scrape so the
	// cache and exploration deltas cover it.
	var sweepMS []float64
	for k := 0; k < in.sz.sweepJobs; k++ {
		req := in.request(in.pno, 0)
		req.Options.StateBudget = 1_000_000 + k
		jt, err := checkedJob(in.node.cl, req, icrns.ColPNO)
		if err != nil {
			return fmt.Errorf("sweep-class job: %w", err)
		}
		sweepMS = append(sweepMS, ms(jt.total))
	}
	m["serve.sweep_ms_p50"] = median(sweepMS)

	// The hit class: byte-identical resubmissions drawn from the latest
	// submissions, answered from the job table — pure service overhead. Its
	// latency moved by more than any bound between identical runs (README,
	// "Steadiness"), so it is measured here and not as a workload.
	rng := rand.New(rand.NewSource(in.seed))
	var hitMS []float64
	for k := 0; k < in.sz.hitJobs; k++ {
		jt, err := checkedJob(in.node.cl, in.recent[rng.Intn(len(in.recent))], icrns.ColPO)
		if err != nil {
			return fmt.Errorf("hit-class job: %w", err)
		}
		hitMS = append(hitMS, ms(jt.total))
	}
	m["serve.hit_ms_p50"] = median(hitMS)

	var scrapes []float64
	var now map[string]float64
	for p := 0; p < 11; p++ {
		t0 := time.Now()
		var err error
		if now, err = in.scrape(); err != nil {
			return err
		}
		scrapes = append(scrapes, ms(time.Since(t0)))
	}
	m["obs.scrape_ms"] = median(scrapes)
	delta := func(name string) float64 { return now[name] - in.base[name] }
	meanMS := func(family string) float64 {
		return ratio(delta(family+"_sum")*1e3, delta(family+"_count"))
	}
	m["serve.compute_ms_mean"] = meanMS("taserved_job_compute_seconds")
	m["serve.queue_wait_ms_mean"] = meanMS("taserved_job_queue_wait_seconds")
	m["serve.admission_wait_ms_mean"] = meanMS("taserved_job_admission_wait_seconds")
	m["serve.result_hit_ratio"] = ratio(delta("taserved_result_cache_hits_total"), delta("taserved_submissions_total"))
	m["serve.compile_hit_ratio"] = ratio(delta("taserved_compile_cache_hits_total"),
		delta("taserved_compile_cache_hits_total")+delta("taserved_compile_cache_misses_total"))
	m["serve.model_hit_ratio"] = ratio(delta("taserved_model_cache_hits_total"),
		delta("taserved_model_cache_hits_total")+delta("taserved_model_cache_misses_total"))
	m["serve.explorations"] = delta("taserved_explorations_total")
	if want := tp.units + in.sz.sweepJobs; int(m["serve.explorations"]) != want {
		return fmt.Errorf("service ran %v explorations over the traced jobs, want exactly %d", m["serve.explorations"], want)
	}

	// The job manager alone, without HTTP: the same resubmissions through
	// Manager.Submit in process.
	var direct []float64
	for k := 0; k < in.sz.hitJobs; k++ {
		req := in.recent[k%len(in.recent)]
		t0 := time.Now()
		sr, err := in.node.srv.Submit(req)
		direct = append(direct, us(time.Since(t0)))
		if err != nil || sr.State != api.StateDone {
			return fmt.Errorf("in-process resubmission: %+v, %v", sr, err)
		}
	}
	m["serve.manager_submit_us"] = median(direct)
	m["serve.http_share"] = 1 - ratio(m["serve.manager_submit_us"]/1e3, m["serve.hit_ms_p50"])
	return in.fleetLayers(m)
}

// fleetLayers measures the only fleet there is — pubsub nodes over an
// in-process broker — as layer metrics: a 3-node fleet, never-seen jobs
// submitted to one frontend. The ring decides which of them that frontend
// owns; the others take the dispatch hop. Each job is then resubmitted to a
// second frontend, which — unless it owns the key and ran the job itself —
// answers from its replicated result cache.
func (in *serveInst) fleetLayers(m map[string]float64) (err error) {
	broker := pubsub.NewMemBroker()
	ids := []string{"n0", "n1", "n2"}
	var nodes []*node
	defer func() {
		for _, n := range nodes {
			if serr := n.stop(); err == nil {
				err = serr
			}
		}
		if cerr := broker.Close(); err == nil {
			err = cerr
		}
	}()
	var front *pubsub.Dispatcher
	for i, id := range ids {
		d, c, err := pubsub.NewNode(broker, id, ids, 0)
		if err != nil {
			return err
		}
		n, err := startNode(serve.Config{CPUTokens: 1, Dispatch: d, Results: c})
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
		if i == 0 {
			front = d
		}
	}
	var owned, hopped, remote []float64
	for k := 0; k < in.sz.fleetJobs; k++ {
		req := in.fresh(in.po)
		jt, err := checkedJob(nodes[0].cl, req, icrns.ColPO)
		if err != nil {
			return fmt.Errorf("fleet job: %w", err)
		}
		if front.Owner(jt.id) == front.Self() {
			owned = append(owned, ms(jt.total))
		} else {
			hopped = append(hopped, ms(jt.total))
		}
		if jt, err = checkedJob(nodes[1].cl, req, icrns.ColPO); err != nil {
			return fmt.Errorf("fleet resubmission: %w", err)
		}
		if front.Owner(jt.id) != ids[1] {
			remote = append(remote, ms(jt.total))
		}
	}
	counters := nodes[0].srv.Stats()
	m["pubsub.hop_ms_p50"] = median(hopped) - median(owned)
	m["pubsub.remote_hit_ms_p50"] = median(remote)
	m["pubsub.dispatched"] = float64(counters.Dispatched)
	m["pubsub.fallbacks"] = float64(counters.DispatchFallbacks)
	return nil
}

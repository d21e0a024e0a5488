// Package repro_test benches the reproduction of every table and figure of
// Hendriks & Verhoef, "Timed Automata Based Analysis of Embedded System
// Architectures" (IPPS 2006).
//
// Table 1 benches regenerate WCRT cells with the exact zone-based model
// checker (expensive ChangeVolume cells run with a state budget, mirroring
// the paper's own df/rdf fallback). Table 2 benches run the four competing
// engines on the same row. Figure benches exercise the automaton templates
// of Figs. 4-9 through compilation and exhaustive exploration. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/icrns"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/symta"
)

// benchCell runs one Table 1 cell per iteration and reports the value and
// exploration size as metrics.
func benchCell(b *testing.B, row icrns.Row, col icrns.Column, budget int) {
	b.Helper()
	// Always report allocations: the CI bench gate (scripts/benchgate.go)
	// holds the exact Table 1 cells to an exact allocs/op ceiling, and the
	// sequential engine with a fixed seed makes the count deterministic.
	b.ReportAllocs()
	opts := icrns.CellOptions{
		Cfg: icrns.DefaultConfig(), MaxStates: budget, FallbackStates: budget, Seed: 1,
	}
	var res arch.WCRTResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = icrns.Cell(row, col, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	ms, _ := res.MS.Float64()
	b.ReportMetric(ms, "wcrt_ms")
	b.ReportMetric(float64(res.Stats.Stored), "states")
}

// --- Table 1: five requirements × five event models ---

func BenchmarkTable1_HandleTMC_CV_po(b *testing.B) {
	benchCell(b, icrns.Table1Rows[0], icrns.ColPO, 120_000)
}
func BenchmarkTable1_HandleTMC_CV_pno(b *testing.B) {
	benchCell(b, icrns.Table1Rows[0], icrns.ColPNO, 120_000)
}
func BenchmarkTable1_HandleTMC_CV_sp(b *testing.B) {
	benchCell(b, icrns.Table1Rows[0], icrns.ColSP, 120_000)
}
func BenchmarkTable1_HandleTMC_CV_pj(b *testing.B) {
	benchCell(b, icrns.Table1Rows[0], icrns.ColPJ, 120_000)
}
func BenchmarkTable1_HandleTMC_CV_bur(b *testing.B) {
	benchCell(b, icrns.Table1Rows[0], icrns.ColBUR, 120_000)
}

func BenchmarkTable1_HandleTMC_AL_po(b *testing.B) { benchCell(b, icrns.Table1Rows[1], icrns.ColPO, 0) }
func BenchmarkTable1_HandleTMC_AL_pno(b *testing.B) {
	benchCell(b, icrns.Table1Rows[1], icrns.ColPNO, 0)
}
func BenchmarkTable1_HandleTMC_AL_sp(b *testing.B) {
	benchCell(b, icrns.Table1Rows[1], icrns.ColSP, 120_000)
}
func BenchmarkTable1_HandleTMC_AL_pj(b *testing.B) {
	benchCell(b, icrns.Table1Rows[1], icrns.ColPJ, 120_000)
}
func BenchmarkTable1_HandleTMC_AL_bur(b *testing.B) {
	benchCell(b, icrns.Table1Rows[1], icrns.ColBUR, 120_000)
}

func BenchmarkTable1_K2A_po(b *testing.B)  { benchCell(b, icrns.Table1Rows[2], icrns.ColPO, 120_000) }
func BenchmarkTable1_K2A_pno(b *testing.B) { benchCell(b, icrns.Table1Rows[2], icrns.ColPNO, 120_000) }
func BenchmarkTable1_K2A_sp(b *testing.B)  { benchCell(b, icrns.Table1Rows[2], icrns.ColSP, 120_000) }
func BenchmarkTable1_K2A_pj(b *testing.B)  { benchCell(b, icrns.Table1Rows[2], icrns.ColPJ, 120_000) }
func BenchmarkTable1_K2A_bur(b *testing.B) { benchCell(b, icrns.Table1Rows[2], icrns.ColBUR, 120_000) }

func BenchmarkTable1_A2V_po(b *testing.B)  { benchCell(b, icrns.Table1Rows[3], icrns.ColPO, 120_000) }
func BenchmarkTable1_A2V_pno(b *testing.B) { benchCell(b, icrns.Table1Rows[3], icrns.ColPNO, 120_000) }
func BenchmarkTable1_A2V_sp(b *testing.B)  { benchCell(b, icrns.Table1Rows[3], icrns.ColSP, 120_000) }
func BenchmarkTable1_A2V_pj(b *testing.B)  { benchCell(b, icrns.Table1Rows[3], icrns.ColPJ, 120_000) }
func BenchmarkTable1_A2V_bur(b *testing.B) { benchCell(b, icrns.Table1Rows[3], icrns.ColBUR, 120_000) }

func BenchmarkTable1_AddressLookup_po(b *testing.B) {
	benchCell(b, icrns.Table1Rows[4], icrns.ColPO, 0)
}
func BenchmarkTable1_AddressLookup_pno(b *testing.B) {
	benchCell(b, icrns.Table1Rows[4], icrns.ColPNO, 0)
}
func BenchmarkTable1_AddressLookup_sp(b *testing.B) {
	benchCell(b, icrns.Table1Rows[4], icrns.ColSP, 120_000)
}
func BenchmarkTable1_AddressLookup_pj(b *testing.B) {
	benchCell(b, icrns.Table1Rows[4], icrns.ColPJ, 120_000)
}
func BenchmarkTable1_AddressLookup_bur(b *testing.B) {
	benchCell(b, icrns.Table1Rows[4], icrns.ColBUR, 120_000)
}

// BenchmarkTable1_HandleTMC_AL_po_Budgeted is the budgeted twin of the
// HandleTMC_AL_po cell: the same exhaustive sweep under a zone-memory budget
// far too high to ever trip. Its CI baseline (scripts/bench_baseline.json)
// sits a fixed handful of allocs/op above the unbudgeted twin — the one-time
// per-run budget cells — pinning the accounting itself to zero allocations
// on the per-state hot path.
func BenchmarkTable1_HandleTMC_AL_po_Budgeted(b *testing.B) {
	b.ReportAllocs()
	row := icrns.Table1Rows[1]
	opts := icrns.CellOptions{Cfg: icrns.DefaultConfig(), Seed: 1, MaxBytes: 1 << 40}
	var res arch.WCRTResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = icrns.Cell(row, icrns.ColPO, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	ms, _ := res.MS.Float64()
	b.ReportMetric(ms, "wcrt_ms")
	b.ReportMetric(float64(res.Stats.Stored), "states")
}

// BenchmarkTable1_HandleTMC_AL_po_Profiled is the profiled twin: the same
// cell with a sweep profile attached (phase spans, per-worker sampled
// series). Its baseline sits a fixed handful of allocs/op above the plain
// twin — the per-run ring buffers — while the plain twin's unchanged exact
// baseline pins the profile-DISABLED hot path to zero extra allocations.
func BenchmarkTable1_HandleTMC_AL_po_Profiled(b *testing.B) {
	b.ReportAllocs()
	row := icrns.Table1Rows[1]
	var mon *core.Monitor
	var res arch.WCRTResult
	var err error
	for i := 0; i < b.N; i++ {
		// A fresh monitor per iteration keeps the profiling cost (rings,
		// span list) a constant per run, so allocs/op is exact.
		mon = &core.Monitor{}
		mon.EnableProfile(core.ProfileConfig{})
		res, err = icrns.Cell(row, icrns.ColPO,
			icrns.CellOptions{Cfg: icrns.DefaultConfig(), Seed: 1, Monitor: mon})
		if err != nil {
			b.Fatal(err)
		}
	}
	if prof := mon.Profile(); prof == nil || len(prof.Phases) == 0 {
		b.Fatal("profiled run recorded no phases")
	}
	ms, _ := res.MS.Float64()
	b.ReportMetric(ms, "wcrt_ms")
	b.ReportMetric(float64(res.Stats.Stored), "states")
}

// --- Table 2: tool comparison on the AddressLookup and HandleTMC rows ---

func table2System() (*arch.System, *arch.Requirement) {
	sys, reqs := icrns.Build(icrns.ComboAL, icrns.ColPNO, icrns.DefaultConfig())
	return sys, reqs[icrns.ReqAddressLookup]
}

func BenchmarkTable2_UppaalPNO(b *testing.B) {
	sys, req := table2System()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := arch.AnalyzeWCRT(sys, req, arch.Options{HorizonMS: 500}, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_UppaalPNO_Parallel runs the same Table 2 row on the
// work-stealing explorer with Workers = NumCPU, the acceptance comparison
// for the parallel engine. On single-core hosts Workers is floored at 2 so
// the parallel machinery (deques, sharded store, termination barrier) is
// actually exercised rather than silently routed to the sequential path.
func BenchmarkTable2_UppaalPNO_Parallel(b *testing.B) {
	sys, req := table2System()
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	for i := 0; i < b.N; i++ {
		if _, err := arch.AnalyzeWCRT(sys, req, arch.Options{HorizonMS: 500},
			core.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_POOSL(b *testing.B) {
	sys, req := table2System()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(sys, []*arch.Requirement{req},
			sim.Options{Seed: int64(i + 1), HorizonMS: 60000, Replications: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_SymTA(b *testing.B) {
	sys, req := table2System()
	for i := 0; i < b.N; i++ {
		if _, err := symta.Analyze(sys, []*arch.Requirement{req}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_MPA(b *testing.B) {
	sys, req := table2System()
	for i := 0; i < b.N; i++ {
		if _, err := rtc.Analyze(sys, []*arch.Requirement{req}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 4: search orders (the paper's structured-testing modes) ---

func benchOrder(b *testing.B, order core.Order) {
	sys, reqs := icrns.Build(icrns.ComboAL, icrns.ColPNO, icrns.DefaultConfig())
	req := reqs[icrns.ReqHandleTMC]
	for i := 0; i < b.N; i++ {
		res, err := arch.AnalyzeWCRT(sys, req, arch.Options{HorizonMS: 1500},
			core.Options{Order: order, Seed: int64(i), MaxStates: 20_000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			ms, _ := res.MS.Float64()
			b.ReportMetric(ms, "lower_bound_ms")
		}
	}
}

func BenchmarkSearchOrder_BFS(b *testing.B)  { benchOrder(b, core.BFS) }
func BenchmarkSearchOrder_DFS(b *testing.B)  { benchOrder(b, core.DFS) }
func BenchmarkSearchOrder_RDFS(b *testing.B) { benchOrder(b, core.RDFS) }

// --- Figures 4-6: hardware, preemption, and bus automata ---

// figSystem is a compact two-application system whose compiled network
// contains the Fig. 4/5/6 templates.
func figSystem(cpuSched, busSched arch.SchedKind) (*arch.System, *arch.Requirement) {
	sys := arch.NewSystem("fig")
	cpu := sys.AddProcessor("CPU", 10, cpuSched)
	bus := sys.AddBus("BUS", 8, busSched)
	hi := sys.AddScenario("hi", 2, arch.PeriodicUnknownOffset(arch.MS(40, 1)))
	hi.Compute("h", cpu, 50000).Transfer("hm", bus, 10)
	lo := sys.AddScenario("lo", 1, arch.PeriodicUnknownOffset(arch.MS(80, 1)))
	lo.Compute("l", cpu, 100000).Transfer("lm", bus, 20)
	return sys, arch.EndToEnd("hi", hi)
}

func benchFig(b *testing.B, cpuSched, busSched arch.SchedKind) {
	sys, req := figSystem(cpuSched, busSched)
	for i := 0; i < b.N; i++ {
		if _, err := arch.AnalyzeWCRT(sys, req, arch.Options{HorizonMS: 300}, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_NonPreemptiveServer(b *testing.B) { benchFig(b, arch.SchedNondet, arch.SchedFP) }
func BenchmarkFig5_PreemptiveServer(b *testing.B)    { benchFig(b, arch.SchedFPPreempt, arch.SchedFP) }
func BenchmarkFig6_NondetBus(b *testing.B)           { benchFig(b, arch.SchedFP, arch.SchedNondet) }

// --- Figures 7-8: environment automata ---

func benchEnv(b *testing.B, m arch.EventModel) {
	sys := arch.NewSystem("env")
	p := sys.AddProcessor("P", 10, arch.SchedFP)
	sc := sys.AddScenario("s", 1, m)
	sc.Compute("op", p, 50000)
	req := arch.EndToEnd("e2e", sc)
	for i := 0; i < b.N; i++ {
		if _, err := arch.AnalyzeWCRT(sys, req, arch.Options{HorizonMS: 200}, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7a_PeriodicOffset(b *testing.B) {
	benchEnv(b, arch.Periodic(arch.MS(20, 1), arch.MS(5, 1)))
}
func BenchmarkFig7b_PeriodicUnknownOffset(b *testing.B) {
	benchEnv(b, arch.PeriodicUnknownOffset(arch.MS(20, 1)))
}
func BenchmarkFig7c_Sporadic(b *testing.B) {
	benchEnv(b, arch.Sporadic(arch.MS(20, 1)))
}
func BenchmarkFig7d_PeriodicJitter(b *testing.B) {
	benchEnv(b, arch.PeriodicJitter(arch.MS(20, 1), arch.MS(20, 1)))
}
func BenchmarkFig8_Bursty(b *testing.B) {
	benchEnv(b, arch.Bursty(arch.MS(20, 1), arch.MS(40, 1), arch.MS(0, 1)))
}

// --- Figure 9 / Property 1: measuring observer and binary search ---

func BenchmarkFig9_BinarySearchWCRT(b *testing.B) {
	sys, reqs := icrns.Build(icrns.ComboAL, icrns.ColPO, icrns.DefaultConfig())
	req := reqs[icrns.ReqAddressLookup]
	for i := 0; i < b.N; i++ {
		if _, _, err := arch.AnalyzeWCRTBinary(sys, req, arch.Options{HorizonMS: 500},
			core.Options{}, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: bus arbitration (Section 3.2's protocol swap) ---

func benchBusAblation(b *testing.B, sched arch.SchedKind) {
	cfg := icrns.DefaultConfig()
	cfg.Bus = sched
	sys, reqs := icrns.Build(icrns.ComboAL, icrns.ColPO, cfg)
	req := reqs[icrns.ReqAddressLookup]
	var res arch.WCRTResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = arch.AnalyzeWCRT(sys, req, arch.Options{HorizonMS: 500}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	ms, _ := res.MS.Float64()
	b.ReportMetric(ms, "wcrt_ms")
}

func BenchmarkAblationBus_Nondet(b *testing.B)     { benchBusAblation(b, arch.SchedNondet) }
func BenchmarkAblationBus_FP(b *testing.B)         { benchBusAblation(b, arch.SchedFP) }
func BenchmarkAblationBus_Preemptive(b *testing.B) { benchBusAblation(b, arch.SchedFPPreempt) }

// --- Model compilation itself ---

func BenchmarkCompileCaseStudy(b *testing.B) {
	sys, reqs := icrns.Build(icrns.ComboCV, icrns.ColBUR, icrns.DefaultConfig())
	req := reqs[icrns.ReqK2A]
	for i := 0; i < b.N; i++ {
		if _, err := arch.Compile(sys, req, arch.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Multi-requirement analysis: batch (one exploration) vs sequential ---

// multiReqSystem returns the tractable Table 1 combination with both of its
// requirements, the workload the query-set engine amortizes: k observers in
// one network, k suprema from one sweep.
func multiReqSystem() (*arch.System, []*arch.Requirement) {
	sys, reqs := icrns.Build(icrns.ComboAL, icrns.ColPNO, icrns.DefaultConfig())
	return sys, []*arch.Requirement{reqs[icrns.ReqHandleTMC], reqs[icrns.ReqAddressLookup]}
}

func multiReqHorizon(r *arch.Requirement) int64 { return icrns.HorizonMS(r.Name) }

// BenchmarkMultiReq_AL_pno_Sequential is the historical shape: one
// compilation + one exploration per requirement.
func BenchmarkMultiReq_AL_pno_Sequential(b *testing.B) {
	sys, reqs := multiReqSystem()
	states := 0
	for i := 0; i < b.N; i++ {
		states = 0
		for _, req := range reqs {
			res, err := arch.AnalyzeWCRT(sys, req,
				arch.Options{HorizonMS: multiReqHorizon(req)}, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			states += res.Stats.Stored
		}
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkMultiReq_AL_pno_Batch answers the same requirements from ONE
// compiled network and ONE exploration (arch.AnalyzeAll).
func BenchmarkMultiReq_AL_pno_Batch(b *testing.B) {
	b.ReportAllocs()
	sys, reqs := multiReqSystem()
	var res *arch.AllResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = arch.AnalyzeAll(sys, reqs,
			arch.Options{HorizonMSFor: multiReqHorizon}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Stored), "states")
}

// BenchmarkMultiReq_AL_pno_Batch_Parallel runs the batch sweep on the
// work-stealing frontier.
func BenchmarkMultiReq_AL_pno_Batch_Parallel(b *testing.B) {
	sys, reqs := multiReqSystem()
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	for i := 0; i < b.N; i++ {
		if _, err := arch.AnalyzeAll(sys, reqs,
			arch.Options{HorizonMSFor: multiReqHorizon}, core.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Channel scaling: successor cost as synchronization structure grows ---

// scalingSystem builds a synthetic system with n independent periodic
// scenarios on one fixed-priority processor and one end-to-end requirement
// each. Every requirement adds a measuring observer listening on its own
// broadcast completion channels, so n scales the network's CHANNEL count —
// the axis the compiled successor index flattens (the legacy enumerator
// rescanned every process's out-edges once per channel). Arrivals are
// periodic with known offsets, keeping the product state space small and
// deterministic while the synchronization structure grows.
func scalingSystem(n int) (*arch.System, []*arch.Requirement) {
	sys := arch.NewSystem("scale")
	cpu := sys.AddProcessor("CPU", 10, arch.SchedNondet)
	reqs := make([]*arch.Requirement, n)
	for i := 0; i < n; i++ {
		name := "s" + string(rune('0'+i))
		sc := sys.AddScenario(name, i+1, arch.Periodic(arch.MS(int64(40+40*(i%2)), 1), arch.MS(int64(3*i), 1)))
		sc.Compute("op"+string(rune('0'+i)), cpu, 45000)
		reqs[i] = arch.EndToEnd("r"+string(rune('0'+i)), sc)
	}
	return sys, reqs
}

func benchMultiReqScaling(b *testing.B, n int) {
	b.Helper()
	b.ReportAllocs()
	sys, reqs := scalingSystem(n)
	var res *arch.AllResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = arch.AnalyzeAll(sys, reqs, arch.Options{HorizonMS: 120}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Stored), "states")
}

func BenchmarkMultiReq_Scaling_1(b *testing.B) { benchMultiReqScaling(b, 1) }
func BenchmarkMultiReq_Scaling_4(b *testing.B) { benchMultiReqScaling(b, 4) }
func BenchmarkMultiReq_Scaling_8(b *testing.B) { benchMultiReqScaling(b, 8) }

// BenchmarkRecycled_TwoDims runs two sweeps of different dimension back to
// back per iteration — the HandleTMC AL pno cell (11×11 zones) and the
// 8-scenario scaling system (18×18) — so that each starts on the slabs
// the other one just released. Its gated B/op is what the two cost beyond
// their zones: if recycling ever became per dimension or per width, or a
// sweep stopped releasing, one of the two would allocate its matrices and
// payloads again every iteration and the row would read several times higher.
func BenchmarkRecycled_TwoDims(b *testing.B) {
	b.ReportAllocs()
	row := icrns.Table1Rows[1]
	cellOpts := icrns.CellOptions{Cfg: icrns.DefaultConfig(), Seed: 1}
	sys, reqs := scalingSystem(8)
	states := 0
	for i := 0; i < b.N; i++ {
		cell, err := icrns.Cell(row, icrns.ColPNO, cellOpts)
		if err != nil {
			b.Fatal(err)
		}
		all, err := arch.AnalyzeAll(sys, reqs, arch.Options{HorizonMS: 120}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		states = cell.Stats.Stored + all.Stats.Stored
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkMultiReq_BinarySearch measures the rebuilt Property 1 procedure,
// which now answers every bisection threshold from a single sweep instead of
// re-exploring per iteration.
func BenchmarkMultiReq_BinarySearch(b *testing.B) {
	sys, reqs := icrns.Build(icrns.ComboAL, icrns.ColPO, icrns.DefaultConfig())
	req := reqs[icrns.ReqAddressLookup]
	for i := 0; i < b.N; i++ {
		if _, _, err := arch.AnalyzeWCRTBinary(sys, req, arch.Options{HorizonMS: 500},
			core.Options{}, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel explorer scaling ---

func benchParallelSup(b *testing.B, workers int) {
	sys, reqs := icrns.Build(icrns.ComboAL, icrns.ColPNO, icrns.DefaultConfig())
	req := reqs[icrns.ReqHandleTMC]
	for i := 0; i < b.N; i++ {
		if _, err := arch.AnalyzeWCRT(sys, req, arch.Options{HorizonMS: 1500},
			core.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelSup_1(b *testing.B) { benchParallelSup(b, 1) }
func BenchmarkParallelSup_2(b *testing.B) { benchParallelSup(b, 2) }
func BenchmarkParallelSup_4(b *testing.B) { benchParallelSup(b, 4) }

// Package repro_test holds the fourteen benchmark rows CI's bench-gate job
// holds to exact allocs/op and near-exact B/op ceilings (scripts/benchgate.go,
// scripts/bench_baseline.json): Table 1 cells of Hendriks & Verhoef, "Timed
// Automata Based Analysis of Embedded System Architectures" (IPPS 2006) that
// the exact zone-based checker sweeps exhaustively, the Table 2 checker row,
// the batch multi-requirement sweep, a channel-scaling series, the fixed cost
// of one small sweep, a two-dimension slab-recycling row and two Fischer
// sweeps at once. They run the sequential engine with fixed seeds, which is
// what makes their allocation counts a contract. Time is judged by the
// repository's benchmark (benchmark/README.md), not here.
package repro_test

import (
	"fmt"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/icrns"
	"repro/internal/ta"
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
	for i := 0; i < b.N; i++ {
		cells, err := icrns.Cells(row.Combo, col, []string{row.Req}, opts)
		if err != nil {
			b.Fatal(err)
		}
		res = cells[row.Req]
	}
	ms, _ := res.MS.Float64()
	b.ReportMetric(ms, "wcrt_ms")
	b.ReportMetric(float64(res.Stats.Stored), "states")
}

// --- Table 1: the cells the checker sweeps exhaustively ---

func BenchmarkTable1_HandleTMC_AL_po(b *testing.B) { benchCell(b, icrns.Table1Rows[1], icrns.ColPO, 0) }
func BenchmarkTable1_HandleTMC_AL_pno(b *testing.B) {
	benchCell(b, icrns.Table1Rows[1], icrns.ColPNO, 0)
}
func BenchmarkTable1_AddressLookup_po(b *testing.B) {
	benchCell(b, icrns.Table1Rows[4], icrns.ColPO, 0)
}
func BenchmarkTable1_AddressLookup_pno(b *testing.B) {
	benchCell(b, icrns.Table1Rows[4], icrns.ColPNO, 0)
}

// BenchmarkTable1_HandleTMC_AL_po_Budgeted is the budgeted twin of the
// HandleTMC_AL_po cell: the same exhaustive sweep under a zone-memory budget
// far too high to ever trip. Its CI baseline (scripts/bench_baseline.json)
// equals the unbudgeted twin's allocs/op: the budget sums the worker cells
// every run publishes anyway, so the accounting allocates nothing, per run
// or per state.
func BenchmarkTable1_HandleTMC_AL_po_Budgeted(b *testing.B) {
	b.ReportAllocs()
	row := icrns.Table1Rows[1]
	opts := icrns.CellOptions{Cfg: icrns.DefaultConfig(), Seed: 1, MaxBytes: 1 << 40}
	var res arch.WCRTResult
	for i := 0; i < b.N; i++ {
		cells, err := icrns.Cells(row.Combo, icrns.ColPO, []string{row.Req}, opts)
		if err != nil {
			b.Fatal(err)
		}
		res = cells[row.Req]
	}
	ms, _ := res.MS.Float64()
	b.ReportMetric(ms, "wcrt_ms")
	b.ReportMetric(float64(res.Stats.Stored), "states")
}

// BenchmarkTable1_HandleTMC_AL_po_Profiled is the profiled twin: the same
// cell with a sweep profile attached (phase spans, per-worker sampled
// series). Its baseline sits a fixed handful of allocs/op above the plain
// twin — the recorder, the finalized series, and a ring grown to the run's
// few samples — while the plain twin's exact baseline pins the
// profile-DISABLED hot path to zero extra allocations.
func BenchmarkTable1_HandleTMC_AL_po_Profiled(b *testing.B) {
	b.ReportAllocs()
	row := icrns.Table1Rows[1]
	var mon *core.Monitor
	var res arch.WCRTResult
	for i := 0; i < b.N; i++ {
		// A fresh monitor per iteration keeps the profiling cost (rings,
		// span list) a constant per run, so allocs/op is exact.
		mon = &core.Monitor{}
		mon.EnableProfile(core.ProfileConfig{})
		cells, err := icrns.Cells(row.Combo, icrns.ColPO, []string{row.Req},
			icrns.CellOptions{Cfg: icrns.DefaultConfig(), Seed: 1, Monitor: mon})
		if err != nil {
			b.Fatal(err)
		}
		res = cells[row.Req]
	}
	if prof := mon.Profile(); prof == nil || len(prof.Phases) == 0 {
		b.Fatal("profiled run recorded no phases")
	}
	ms, _ := res.MS.Float64()
	b.ReportMetric(ms, "wcrt_ms")
	b.ReportMetric(float64(res.Stats.Stored), "states")
}

// --- Table 2: the checker column of the AddressLookup row ---

func table2System() (*arch.System, *arch.Requirement) {
	sys, reqs := icrns.Build(icrns.ComboAL, icrns.ColPNO, icrns.DefaultConfig())
	return sys, reqs[icrns.ReqAddressLookup]
}

func BenchmarkTable2_UppaalPNO(b *testing.B) {
	sys, req := table2System()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cs, err := arch.CompileAll(sys, []*arch.Requirement{req}, arch.Options{HorizonMS: 500})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cs.Analyze(core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Multi-requirement analysis: one exploration for all requirements ---

// multiReqSystem returns the tractable Table 1 combination with both of its
// requirements, the workload the query-set engine amortizes: k observers in
// one network, k suprema from one sweep.
func multiReqSystem() (*arch.System, []*arch.Requirement) {
	sys, reqs := icrns.Build(icrns.ComboAL, icrns.ColPNO, icrns.DefaultConfig())
	return sys, []*arch.Requirement{reqs[icrns.ReqHandleTMC], reqs[icrns.ReqAddressLookup]}
}

func multiReqHorizon(r *arch.Requirement) int64 { return icrns.HorizonMS(r.Name) }

// BenchmarkMultiReq_AL_pno_Batch answers both requirements from ONE
// compiled network (arch.CompileAll) and ONE exploration (CompiledSet.Analyze).
func BenchmarkMultiReq_AL_pno_Batch(b *testing.B) {
	b.ReportAllocs()
	sys, reqs := multiReqSystem()
	var res *arch.AllResult
	for i := 0; i < b.N; i++ {
		cs, err := arch.CompileAll(sys, reqs, arch.Options{HorizonMSFor: multiReqHorizon})
		if err != nil {
			b.Fatal(err)
		}
		if res, err = cs.Analyze(core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Stored), "states")
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
	for i := 0; i < b.N; i++ {
		cs, err := arch.CompileAll(sys, reqs, arch.Options{HorizonMS: 120})
		if err != nil {
			b.Fatal(err)
		}
		if res, err = cs.Analyze(core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Stored), "states")
}

func BenchmarkMultiReq_Scaling_1(b *testing.B) { benchMultiReqScaling(b, 1) }
func BenchmarkMultiReq_Scaling_4(b *testing.B) { benchMultiReqScaling(b, 4) }
func BenchmarkMultiReq_Scaling_8(b *testing.B) { benchMultiReqScaling(b, 8) }

// --- The fixed cost of one small sweep ---

// BenchmarkSmallSweep runs one 9-state exploration of the 1-scenario scaling
// system per iteration, compiled once outside the loop: the per-run cost a
// design study pays for every alternative it tries. Its gated B/op has a
// slack of 2 KB, so per-run bookkeeping sized for a big sweep instead of
// this one (a 20 KB parent-log block, a 32 KB sample ring) fails the gate.
func BenchmarkSmallSweep(b *testing.B) {
	sys, reqs := scalingSystem(1)
	cs, err := arch.CompileAll(sys, reqs, arch.Options{HorizonMS: 120})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *arch.AllResult
	for i := 0; i < b.N; i++ {
		if res, err = cs.Analyze(core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Stored), "states")
}

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
		cells, err := icrns.Cells(row.Combo, icrns.ColPNO, []string{row.Req}, cellOpts)
		if err != nil {
			b.Fatal(err)
		}
		cs, err := arch.CompileAll(sys, reqs, arch.Options{HorizonMS: 120})
		if err != nil {
			b.Fatal(err)
		}
		all, err := cs.Analyze(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		states = cells[row.Req].Stats.Stored + all.Stats.Stored
	}
	b.ReportMetric(float64(states), "states")
}

// --- Two sweeps at once ---

// fischerNet is Fischer's mutual-exclusion protocol for n processes as the
// benchmark's fischer workload writes it (write bound 2, wait constant 2):
// 46,361 stored states at n = 5, high branching, 6-clock zones.
func fischerNet(b *testing.B, n int) *ta.Network {
	var src strings.Builder
	src.WriteString("system:fischer\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&src, "clock:x%d\n", i)
	}
	fmt.Fprintf(&src, "int:id:0:0:%d\nint:incs:0:0:%d\n", n, n)
	for i := 1; i <= n; i++ {
		p := fmt.Sprintf("P%d", i)
		fmt.Fprintf(&src, "process:%s\nlocation:%s:idle{initial}\nlocation:%s:req{invariant: x%d<=2}\n", p, p, p, i)
		fmt.Fprintf(&src, "location:%s:wait\nlocation:%s:cs\n", p, p)
		fmt.Fprintf(&src, "edge:%s:idle:req{guard: id==0; do: x%d=0}\n", p, i)
		fmt.Fprintf(&src, "edge:%s:req:wait{guard: x%d<=2; do: id=%d, x%d=0}\n", p, i, i, i)
		fmt.Fprintf(&src, "edge:%s:wait:req{guard: id==0; do: x%d=0}\n", p, i)
		fmt.Fprintf(&src, "edge:%s:wait:cs{guard: x%d>2 && id==%d; do: incs=incs+1}\n", p, i, i)
		fmt.Fprintf(&src, "edge:%s:cs:idle{do: id=0, incs=incs-1}\n", p)
	}
	net, err := ta.Parse(src.String())
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// cpuTime is the process's user and system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkTwoSweepsAtOnce runs two full Fischer-5 sweeps (deadlock
// freedom) on two goroutines per iteration: the regime of a loaded
// two-token service on a two-core host, where each sweep's lookahead helper
// competes with the other sweep for a core ("Lookahead" in
// internal/core/explore.go). It reports the process's CPU time per iteration
// (getrusage) beside the wall time: a helper that polls for work it does not
// have shows in cpu_ms/op. Its allocs/op carries a slack, because how many
// matrix headers a helper takes depends on how far it runs ahead, which the
// scheduler decides.
func BenchmarkTwoSweepsAtOnce(b *testing.B) {
	net := fischerNet(b, 5)
	var checkers [2]*core.Checker
	for i := range checkers {
		c, err := core.NewChecker(net)
		if err != nil {
			b.Fatal(err)
		}
		checkers[i] = c
	}
	b.ReportAllocs()
	b.ResetTimer()
	cpu0 := cpuTime(b)
	var stored [2]int
	var errs [2]error
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for k, c := range checkers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dl := core.NewDeadlockQuery()
				stats, err := c.RunQueries(core.Options{}, dl)
				stored[k], errs[k] = stats.Stored, err
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(cpuTime(b)-cpu0)/1e6/float64(b.N), "cpu_ms/op")
	b.ReportMetric(float64(stored[0]+stored[1]), "states")
}

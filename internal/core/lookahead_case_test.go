// The lookahead helper against the case study and the benchmark's chain
// system, compared where their verdicts leave the engine: wire bytes and
// formatted witness traces (external test package: arch imports core).
package core_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/wire"
)

// chainSet compiles n periodic scenarios with known offsets on one
// nondeterministic processor, one end-to-end requirement each: the
// benchmark's archchain system, shortened.
func chainSet(t *testing.T, n int) *arch.CompiledSet {
	t.Helper()
	sys := arch.NewSystem("chain")
	cpu := sys.AddProcessor("CPU", 10, arch.SchedNondet)
	reqs := make([]*arch.Requirement, n)
	for i := range reqs {
		sc := sys.AddScenario(fmt.Sprintf("s%d", i), i+1, arch.Periodic(arch.MS(int64(40+40*(i%2)), 1), arch.MS(int64(3*i), 1)))
		sc.Compute(fmt.Sprintf("op%d", i), cpu, 45000)
		reqs[i] = arch.EndToEnd(fmt.Sprintf("r%d", i), sc)
	}
	cs, err := arch.CompileAll(sys, reqs, arch.Options{HorizonMS: 120})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// verdictBytes analyzes cs with its witnesses and returns its wire bytes,
// the sweep's duration zeroed, and every requirement's formatted witness
// trace.
func verdictBytes(t *testing.T, cs *arch.CompiledSet, opts core.Options) (string, []string, core.Stats) {
	t.Helper()
	all, err := cs.AnalyzeTraced(opts)
	if err != nil {
		t.Fatal(err)
	}
	resp := wire.FromAllResult(all)
	resp.Stats.DurationNS = 0
	data, err := wire.Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]string, len(all.Results))
	for i, r := range all.Results {
		traces[i] = core.FormatTrace(cs.Net, r.Witness)
	}
	return string(data), traces, all.Stats
}

// TestLookaheadCaseStudyBitIdentical runs the AL·pno sweep with two
// observers and a 6-scenario chain with the lookahead helper forced on from
// the first expansion and forced off: the wire bytes, the Stats and every
// witness trace must be equal.
func TestLookaheadCaseStudyBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study sweep in -short mode")
	}
	for _, set := range []struct {
		name string
		cs   *arch.CompiledSet
	}{
		{"AL·pno", caseNet(t)},
		{"chain of 6", chainSet(t, 6)},
	} {
		on, onTraces, onStats := verdictBytes(t, set.cs, core.WithLookahead(core.Options{}, true))
		off, offTraces, offStats := verdictBytes(t, set.cs, core.WithLookahead(core.Options{}, false))
		if on != off {
			t.Errorf("%s: wire bytes differ\nwith the helper:\n%s\nwithout:\n%s", set.name, on, off)
		}
		if onStats.Live != offStats.Live {
			t.Errorf("%s: %d zones live with the helper, %d without", set.name, onStats.Live, offStats.Live)
		}
		for i := range onTraces {
			if onTraces[i] != offTraces[i] {
				t.Errorf("%s: witness %d differs\nwith the helper:\n%s\nwithout:\n%s", set.name, i, onTraces[i], offTraces[i])
			}
		}
	}
}

// collectEvery512 is a query that never completes and runs a full collection
// at every 512th admitted state, while the sweep's carved States and
// successor lists are live on both of its goroutines.
func collectEvery512() core.Query {
	n := 0
	return core.NewReachQuery(func(*core.State) bool {
		if n++; n%512 == 0 {
			runtime.GC()
		}
		return false
	})
}

// fischerText is the benchmark's Fischer model as .ta text: n processes,
// write bound 2, wait constant 2, incs counting the processes inside the
// critical section.
func fischerText(n int) string {
	var b strings.Builder
	b.WriteString("system:fischer\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "clock:x%d\n", i)
	}
	fmt.Fprintf(&b, "int:id:0:0:%d\nint:incs:0:0:%d\n", n, n)
	for i := 1; i <= n; i++ {
		p := fmt.Sprintf("P%d", i)
		fmt.Fprintf(&b, "process:%s\nlocation:%s:idle{initial}\nlocation:%s:req{invariant: x%d<=2}\n", p, p, p, i)
		fmt.Fprintf(&b, "location:%s:wait\nlocation:%s:cs\n", p, p)
		fmt.Fprintf(&b, "edge:%s:idle:req{guard: id==0; do: x%d=0}\n", p, i)
		fmt.Fprintf(&b, "edge:%s:req:wait{guard: x%d<=2; do: id=%d, x%d=0}\n", p, i, i, i)
		fmt.Fprintf(&b, "edge:%s:wait:req{guard: id==0; do: x%d=0}\n", p, i)
		fmt.Fprintf(&b, "edge:%s:wait:cs{guard: x%d>2 && id==%d; do: incs=incs+1}\n", p, i, i)
		fmt.Fprintf(&b, "edge:%s:cs:idle{do: id=0, incs=incs-1}\n", p)
	}
	return b.String()
}

// fischerBytes answers mutual exclusion and deadlock freedom on Fischer-5,
// as tacheck -json does, with extra queries attached, and returns the wire
// bytes with the duration zeroed.
func fischerBytes(t *testing.T, opts core.Options, extra ...core.Query) string {
	t.Helper()
	specs := []wire.TAQuery{{Kind: "safety", Pred: "incs <= 1"}, {Kind: "deadlock"}}
	net, err := wire.ParseTAModel(fischerText(5), specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	run, err := wire.NewTARun(net, specs)
	if err != nil {
		t.Fatal(err)
	}
	checker, err := core.NewChecker(net)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := checker.RunQueries(opts, append(run.Queries(), extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	resp := run.Response(stats)
	resp.Stats.DurationNS = 0
	data, err := wire.Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// chainBytes analyzes cs as CompiledSet.Analyze does, with extra queries
// attached to the one sweep, and returns the wire bytes with the duration
// zeroed.
func chainBytes(t *testing.T, cs *arch.CompiledSet, opts core.Options, extra ...core.Query) string {
	t.Helper()
	checker, err := core.NewChecker(cs.Net)
	if err != nil {
		t.Fatal(err)
	}
	sups := make([]*core.SupClockQuery, len(cs.Reqs))
	queries := extra
	for i := range cs.Reqs {
		sups[i] = core.NewSupClockQuery(cs.Obs[i].Y.ID, cs.AtSeen(i))
		queries = append(queries, sups[i])
	}
	stats, err := checker.RunQueries(opts, queries...)
	if err != nil {
		t.Fatal(err)
	}
	all := &arch.AllResult{Stats: stats}
	for i, req := range cs.Reqs {
		sup := sups[i].Result
		res := arch.WCRTResult{Req: req, Stats: stats}
		if sup.Unbounded {
			res.MS, res.BeyondHorizon = cs.UnitsToMS(cs.Horizons[i]), true
		} else {
			res.MS, res.Attained, res.Exact = cs.UnitsToMS(sup.Max.Value()), sup.Max.Weak(), !sup.Truncated
		}
		all.Results = append(all.Results, res)
	}
	resp := wire.FromAllResult(all)
	resp.Stats.DurationNS = 0
	data, err := wire.Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCarveRuleUnderGCStress is the oracle for the carve rule on the helper's
// side: Fischer-5 and the 10-scenario chain run with the helper engaged from
// the first expansion, the collector at GOGC=1 and a full collection every 512
// admitted states, and must answer with the bytes and counts of the inline
// sweep. A carved State or successor list that pointed at a heap object the
// set does not keep would see that object freed and reused under it. In a race
// build the slabs are heap objects the collector never scans, so the same
// holds there.
func TestCarveRuleUnderGCStress(t *testing.T) {
	if testing.Short() {
		t.Skip("two full sweeps under collection stress in -short mode")
	}
	cs := chainSet(t, 10)
	inlineFischer := fischerBytes(t, core.WithLookahead(core.Options{}, false), collectEvery512())
	inlineChain := chainBytes(t, cs, core.WithLookahead(core.Options{}, false), collectEvery512())
	for _, want := range []string{`"stored": 46361`, `"stored": 77613`} {
		if !strings.Contains(inlineFischer+inlineChain, want) {
			t.Fatalf("the inline sweeps do not report %s:\n%s\n%s", want, inlineFischer, inlineChain)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	on := core.WithLookahead(core.Options{}, true)
	if got := fischerBytes(t, on, collectEvery512()); got != inlineFischer {
		t.Errorf("Fischer-5 under collection stress with the helper:\n%s\ninline:\n%s", got, inlineFischer)
	}
	if got := chainBytes(t, cs, on, collectEvery512()); got != inlineChain {
		t.Errorf("chain of 10 under collection stress with the helper:\n%s\ninline:\n%s", got, inlineChain)
	}
}

// TestSweepHeapBytesFlatInPrunes sweeps the 10-scenario chain, inline with a
// query attached (so the parent log is on), to 60,000 stored states, before
// its first prune, and to its end at 77,613, after 6,836, and requires their
// heap bytes to differ by at most 16 KiB: the store gives every pruned
// payload back to its compact pool, whose free lists are carved from the
// sweep's slabs (dbm.Grow), as are the parent log's list of blocks and the
// rest of the sweep's bookkeeping. Each size keeps the fewest bytes of two
// runs, so an allocation of the runtime's own does not count.
func TestSweepHeapBytesFlatInPrunes(t *testing.T) {
	if testing.Short() {
		t.Skip("four chain sweeps in -short mode")
	}
	checker, err := core.NewChecker(chainSet(t, 10).Net)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(maxStates int) (bytes uint64, prunes int) {
		bytes = ^uint64(0)
		for range 2 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := checker.Explore(core.WithLookahead(core.Options{MaxStates: maxStates}, false), func(*core.State) bool { return false })
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stored != maxStates {
				t.Fatalf("the sweep stored %d states, want %d", res.Stored, maxStates)
			}
			bytes, prunes = min(bytes, after.TotalAlloc-before.TotalAlloc), res.Stored-res.Live
		}
		return bytes, prunes
	}
	smallBytes, smallPrunes := sweep(60_000)
	largeBytes, largePrunes := sweep(77_613)
	t.Logf("%d heap bytes at 60,000 states (%d prunes), %d at 77,613 (%d prunes)", smallBytes, smallPrunes, largeBytes, largePrunes)
	if largePrunes < smallPrunes+2_000 {
		t.Fatalf("the sweeps prune %d and %d zones, want thousands apart", smallPrunes, largePrunes)
	}
	if largeBytes > smallBytes+16<<10 {
		t.Errorf("the whole sweep allocated %d heap bytes, one of 60,000 states %d: want at most 16 KiB more",
			largeBytes, smallBytes)
	}
}

package sim

import (
	"math/big"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
)

func ratMS(num, den int64) *big.Rat { return new(big.Rat).SetFrac64(num, den) }

func TestDeterministicPipeline(t *testing.T) {
	// Uncontended periodic chain: every activation takes exactly 30ms.
	sys := arch.NewSystem("pipe")
	pa := sys.AddProcessor("A", 10, arch.SchedFP)
	pb := sys.AddProcessor("B", 20, arch.SchedFP)
	bus := sys.AddBus("BUS", 8, arch.SchedFP)
	sc := sys.AddScenario("job", 1, arch.Periodic(arch.MS(100, 1), arch.MS(0, 1)))
	sc.Compute("opA", pa, 100000).Transfer("msg", bus, 10).Compute("opB", pb, 200000)
	req := arch.EndToEnd("e2e", sc)

	res, err := Simulate(sys, []*arch.Requirement{req}, Options{Seed: 1, HorizonMS: 2000, Replications: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := res["e2e"]
	if r.Completed == 0 {
		t.Fatal("no activations completed")
	}
	if r.MaxMS.Cmp(ratMS(30, 1)) != 0 || r.MeanMS.Cmp(ratMS(30, 1)) != 0 {
		t.Errorf("deterministic latency: max=%s mean=%s, want 30",
			r.MaxMS.FloatString(3), r.MeanMS.FloatString(3))
	}
}

func TestSpanRequirementMeasured(t *testing.T) {
	sys := arch.NewSystem("pipe")
	pa := sys.AddProcessor("A", 10, arch.SchedFP)
	pb := sys.AddProcessor("B", 10, arch.SchedFP)
	sc := sys.AddScenario("job", 1, arch.Periodic(arch.MS(100, 1), arch.MS(0, 1)))
	sc.Compute("opA", pa, 100000).Compute("opB", pb, 50000)
	req := arch.Span("a2b", sc, 0, 1)
	res, err := Simulate(sys, []*arch.Requirement{req}, Options{Seed: 2, HorizonMS: 1000, Replications: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res["a2b"].MaxMS; got.Cmp(ratMS(5, 1)) != 0 {
		t.Errorf("span latency = %s, want 5", got.FloatString(3))
	}
}

// contended mirrors the arch test: hi (5ms / 20ms) and lo (10ms / 40ms) on
// one processor.
func contended(sched arch.SchedKind, kind arch.EventKind) (*arch.System, *arch.Requirement, *arch.Requirement) {
	sys := arch.NewSystem("cont")
	p := sys.AddProcessor("P", 10, sched)
	model := func(p *big.Rat) arch.EventModel {
		switch kind {
		case arch.KindPeriodicUnknownOffset:
			return arch.PeriodicUnknownOffset(p)
		case arch.KindSporadic:
			return arch.Sporadic(p)
		default:
			return arch.Periodic(p, arch.MS(0, 1))
		}
	}
	hi := sys.AddScenario("hi", 2, model(arch.MS(20, 1)))
	hi.Compute("hop", p, 50000)
	lo := sys.AddScenario("lo", 1, model(arch.MS(40, 1)))
	lo.Compute("lop", p, 100000)
	return sys, arch.EndToEnd("hi", hi), arch.EndToEnd("lo", lo)
}

func TestSimulationUnderestimatesModelChecker(t *testing.T) {
	// The paper's Table 2 lesson: for every requirement, the simulated
	// maximum is at most the exact WCRT from the model checker.
	for _, sched := range []arch.SchedKind{arch.SchedFP, arch.SchedFPPreempt} {
		sys, hiReq, loReq := contended(sched, arch.KindPeriodicUnknownOffset)
		cs, err := arch.CompileAll(sys, []*arch.Requirement{hiReq, loReq}, arch.Options{HorizonMS: 100})
		if err != nil {
			t.Fatal(err)
		}
		all, err := cs.Analyze(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		exactHi, exactLo := all.Results[0], all.Results[1]
		simRes, err := Simulate(sys, []*arch.Requirement{hiReq, loReq},
			Options{Seed: 7, HorizonMS: 4000, Replications: 10})
		if err != nil {
			t.Fatal(err)
		}
		if simRes["hi"].MaxMS.Cmp(exactHi.MS) > 0 {
			t.Errorf("sched %v: simulated hi max %s exceeds exact WCRT %s",
				sched, simRes["hi"].MaxMS.FloatString(3), exactHi.MS.FloatString(3))
		}
		if simRes["lo"].MaxMS.Cmp(exactLo.MS) > 0 {
			t.Errorf("sched %v: simulated lo max %s exceeds exact WCRT %s",
				sched, simRes["lo"].MaxMS.FloatString(3), exactLo.MS.FloatString(3))
		}
		if simRes["hi"].MaxMS.Sign() <= 0 {
			t.Error("simulation should observe positive latencies")
		}
	}
}

// TestStepPriorityOverride: a step's own priority, not its scenario's, is
// what it competes with. hi (scenario priority 1) raises its one 5 ms step to
// 5, above lo (priority 2, 10 ms), on one preemptive CPU, so hi is never
// blocked: the model checker's exact WCRT is 5 ms and the simulated maximum
// may not exceed it.
func TestStepPriorityOverride(t *testing.T) {
	sys := arch.NewSystem("override")
	p := sys.AddProcessor("P", 10, arch.SchedFPPreempt)
	hi := sys.AddScenario("hi", 1, arch.PeriodicUnknownOffset(arch.MS(40, 1)))
	hi.Compute("hop", p, 50000).WithPriority(5)
	lo := sys.AddScenario("lo", 2, arch.PeriodicUnknownOffset(arch.MS(40, 1)))
	lo.Compute("lop", p, 100000)
	req := arch.EndToEnd("hi", hi)
	cs, err := arch.CompileAll(sys, []*arch.Requirement{req}, arch.Options{HorizonMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := all.Results[0].MS
	if exact.Cmp(ratMS(5, 1)) != 0 {
		t.Fatalf("exact WCRT of hi = %s, want 5", exact.FloatString(3))
	}
	res, err := Simulate(sys, []*arch.Requirement{req}, Options{Seed: 3, HorizonMS: 4000, Replications: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := res["hi"].MaxMS; got.Cmp(exact) > 0 {
		t.Errorf("simulated hi max %s exceeds exact WCRT %s", got.FloatString(3), exact.FloatString(3))
	}
}

func TestPreemptiveSimBeatsNonPreemptiveForHi(t *testing.T) {
	sysN, hiN, _ := contended(arch.SchedFP, arch.KindPeriodicUnknownOffset)
	sysP, hiP, _ := contended(arch.SchedFPPreempt, arch.KindPeriodicUnknownOffset)
	rn, err := Simulate(sysN, []*arch.Requirement{hiN}, Options{Seed: 5, HorizonMS: 4000, Replications: 20})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Simulate(sysP, []*arch.Requirement{hiP}, Options{Seed: 5, HorizonMS: 4000, Replications: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Preemption can only help the high-priority task; with enough samples
	// the non-preemptive max should show blocking (> 5ms).
	if rp["hi"].MaxMS.Cmp(ratMS(5, 1)) != 0 {
		t.Errorf("preemptive hi max = %s, want exactly 5 (never blocked)",
			rp["hi"].MaxMS.FloatString(3))
	}
	if rn["hi"].MaxMS.Cmp(ratMS(5, 1)) <= 0 {
		t.Errorf("non-preemptive hi max = %s, expected observed blocking > 5",
			rn["hi"].MaxMS.FloatString(3))
	}
}

func TestJitterAndBurstySampling(t *testing.T) {
	sys := arch.NewSystem("jit")
	p := sys.AddProcessor("P", 10, arch.SchedFP)
	sc := sys.AddScenario("s", 1, arch.PeriodicJitter(arch.MS(20, 1), arch.MS(10, 1)))
	sc.Compute("op", p, 50000)
	req := arch.EndToEnd("e2e", sc)
	res, err := Simulate(sys, []*arch.Requirement{req}, Options{Seed: 3, HorizonMS: 2000, Replications: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res["e2e"].MaxMS.Cmp(ratMS(5, 1)) != 0 {
		t.Errorf("jitter within slack must not queue: max = %s", res["e2e"].MaxMS.FloatString(3))
	}

	sysB := arch.NewSystem("bur")
	pb := sysB.AddProcessor("P", 10, arch.SchedFP)
	scb := sysB.AddScenario("s", 1, arch.Bursty(arch.MS(20, 1), arch.MS(40, 1), arch.MS(0, 1)))
	scb.Compute("op", pb, 50000)
	reqb := arch.EndToEnd("e2e", scb)
	resB, err := Simulate(sysB, []*arch.Requirement{reqb}, Options{Seed: 3, HorizonMS: 2000, Replications: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Bursts may queue events: the observed max must stay within the exact
	// WCRT of 15ms and should exceed the uncontended 5ms.
	if resB["e2e"].MaxMS.Cmp(ratMS(15, 1)) > 0 {
		t.Errorf("bursty sim max %s exceeds exact WCRT 15", resB["e2e"].MaxMS.FloatString(3))
	}
	if resB["e2e"].MaxMS.Cmp(ratMS(5, 1)) <= 0 {
		t.Errorf("bursty sim should observe queueing, max = %s", resB["e2e"].MaxMS.FloatString(3))
	}
}

func TestNondetSchedulerRuns(t *testing.T) {
	sys, hiReq, _ := contended(arch.SchedNondet, arch.KindPeriodicUnknownOffset)
	res, err := Simulate(sys, []*arch.Requirement{hiReq}, Options{Seed: 11, HorizonMS: 2000, Replications: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res["hi"].Completed == 0 {
		t.Error("nondet scheduler must complete work")
	}
}

// TestNegativeCampaignRefused: a negative replication count is refused with
// an error naming the field, as a negative horizon is, instead of running an
// empty campaign whose maximum reads 0 ms.
func TestNegativeCampaignRefused(t *testing.T) {
	sys, hiReq, _ := contended(arch.SchedFP, arch.KindSporadic)
	for _, c := range []struct {
		opts Options
		want string
	}{
		{Options{Seed: 1, HorizonMS: 2000, Replications: -1}, "sim: simulation replications: negative count -1"},
		{Options{Seed: 1, HorizonMS: -5, Replications: 2}, "arch: simulation horizon_ms: negative duration -5 ms"},
	} {
		if res, err := Simulate(sys, []*arch.Requirement{hiReq}, c.opts); err == nil || err.Error() != c.want {
			t.Errorf("%+v: err = %v (results %v), want %q", c.opts, err, res, c.want)
		}
	}
}

func TestReproducibility(t *testing.T) {
	sys, hiReq, _ := contended(arch.SchedFP, arch.KindSporadic)
	a, err := Simulate(sys, []*arch.Requirement{hiReq}, Options{Seed: 9, HorizonMS: 2000, Replications: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(sys, []*arch.Requirement{hiReq}, Options{Seed: 9, HorizonMS: 2000, Replications: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a["hi"].MaxMS.Cmp(b["hi"].MaxMS) != 0 || a["hi"].Completed != b["hi"].Completed {
		t.Error("same seed must reproduce the same campaign")
	}
}

func TestPercentiles(t *testing.T) {
	sys, hiReq, _ := contended(arch.SchedFP, arch.KindPeriodicUnknownOffset)
	res, err := Simulate(sys, []*arch.Requirement{hiReq},
		Options{Seed: 4, HorizonMS: 4000, Replications: 10})
	if err != nil {
		t.Fatal(err)
	}
	r := res["hi"]
	// Percentiles are ordered and bounded by the max.
	if r.P50MS.Cmp(r.P95MS) > 0 || r.P95MS.Cmp(r.P99MS) > 0 || r.P99MS.Cmp(r.MaxMS) > 0 {
		t.Errorf("percentile ordering broken: p50=%s p95=%s p99=%s max=%s",
			r.P50MS.FloatString(3), r.P95MS.FloatString(3),
			r.P99MS.FloatString(3), r.MaxMS.FloatString(3))
	}
	// The uncontended latency (5ms) is the floor of every percentile.
	if r.P50MS.Cmp(ratMS(5, 1)) < 0 {
		t.Errorf("p50 %s below the execution time", r.P50MS.FloatString(3))
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    int
		want int64
	}{{50, 50}, {95, 100}, {99, 100}, {1, 10}, {100, 100}}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%d) = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty samples must give 0")
	}
}

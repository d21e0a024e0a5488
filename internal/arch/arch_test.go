package arch

import (
	"math/big"
	"testing"

	"repro/internal/core"
)

// pipeline builds: GEN -> opA on procA (10ms) -> msg on bus (10ms) -> opB on
// procB (10ms), so the uncontended end-to-end response is exactly 30ms.
func pipeline(arrival EventModel) (*System, *Requirement) {
	sys := NewSystem("pipe")
	pa := sys.AddProcessor("A", 10, SchedFP) // 1e5 instr -> 10ms
	pb := sys.AddProcessor("B", 20, SchedFP) // 2e5 instr -> 10ms
	bus := sys.AddBus("BUS", 8, SchedFP)     // 10 bytes = 80 bits -> 10ms
	sc := sys.AddScenario("job", 1, arrival)
	sc.Compute("opA", pa, 100000).Transfer("msg", bus, 10).Compute("opB", pb, 200000)
	return sys, EndToEnd("e2e", sc)
}

func mustWCRT(t *testing.T, sys *System, req *Requirement, copts Options, opts core.Options) WCRTResult {
	t.Helper()
	cs, err := CompileAll(sys, []*Requirement{req}, copts)
	if err != nil {
		t.Fatalf("CompileAll(%s): %v", req.Name, err)
	}
	all, err := cs.Analyze(opts)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", req.Name, err)
	}
	return all.Results[0]
}

func wantMS(t *testing.T, res WCRTResult, num, den int64) {
	t.Helper()
	want := new(big.Rat).SetFrac64(num, den)
	if res.MS.Cmp(want) != 0 {
		t.Errorf("%s: WCRT = %s ms, want %s ms", res.Req.Name, res.MS.RatString(), want.RatString())
	}
	if !res.Exact {
		t.Errorf("%s: result not exact: %+v", res.Req.Name, res)
	}
}

func TestPipelineUncontended(t *testing.T) {
	for _, arrival := range []EventModel{
		Periodic(MS(100, 1), MS(0, 1)),
		PeriodicUnknownOffset(MS(100, 1)),
		Sporadic(MS(100, 1)),
	} {
		sys, req := pipeline(arrival)
		res := mustWCRT(t, sys, req, Options{HorizonMS: 100}, core.Options{})
		wantMS(t, res, 30, 1)
		if !res.Attained {
			t.Errorf("%v: bound should be attained", arrival)
		}
	}
}

func TestPipelineSpanRequirement(t *testing.T) {
	// Measuring from completion of opA to completion of opB spans the bus
	// transfer and opB: exactly 20ms.
	sys, _ := pipeline(Sporadic(MS(100, 1)))
	sc := sys.ScenarioByName("job")
	res := mustWCRT(t, sys, Span("a2b", sc, 0, 2), Options{HorizonMS: 100}, core.Options{})
	wantMS(t, res, 20, 1)
}

func TestPipelineFractionalTimes(t *testing.T) {
	// 1e5 instructions at 22 MIPS = 50/11 ms; 4 bytes at 72 kbit/s = 4/9 ms:
	// the exact-rational time base must reproduce 50/11 + 4/9 = 494/99 ms.
	sys := NewSystem("frac")
	p := sys.AddProcessor("MMI", 22, SchedFP)
	bus := sys.AddBus("BUS", 72, SchedFP)
	sc := sys.AddScenario("s", 1, Sporadic(MS(100, 1)))
	sc.Compute("op", p, 100000).Transfer("msg", bus, 4)
	res := mustWCRT(t, sys, EndToEnd("e2e", sc), Options{HorizonMS: 50}, core.Options{})
	wantMS(t, res, 494, 99)
}

func TestOverloadSurfacesAsQueueError(t *testing.T) {
	// A 10ms job arriving every 8ms overloads the processor; the pending
	// counter must eventually exceed its bound and surface as an error.
	sys := NewSystem("overload")
	p := sys.AddProcessor("P", 10, SchedFP)
	sc := sys.AddScenario("s", 1, Periodic(MS(8, 1), MS(0, 1)))
	sc.Compute("op", p, 100000)
	cs, err := CompileAll(sys, []*Requirement{EndToEnd("e2e", sc)}, Options{QueueCap: 4, HorizonMS: 200})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Analyze(core.Options{}); err == nil {
		t.Fatal("overloaded system must be reported via queue-cap violation")
	}
}

// contended builds two scenarios sharing one processor: hi (5ms every 20ms)
// and lo (10ms every 40ms).
func contended(sched SchedKind) (*System, *Scenario, *Scenario) {
	sys := NewSystem("cont")
	p := sys.AddProcessor("P", 10, sched)
	hi := sys.AddScenario("hi", 2, PeriodicUnknownOffset(MS(20, 1)))
	hi.Compute("hop", p, 50000) // 5ms
	lo := sys.AddScenario("lo", 1, PeriodicUnknownOffset(MS(40, 1)))
	lo.Compute("lop", p, 100000) // 10ms
	return sys, hi, lo
}

func TestNonPreemptiveBlocking(t *testing.T) {
	// Non-preemptive FP: hi suffers up to the full lo execution as blocking:
	// WCRT(hi) = 10 + 5 = 15, attained when both arrive simultaneously and
	// lo is dispatched first.
	sys, hi, _ := contended(SchedFP)
	res := mustWCRT(t, sys, EndToEnd("hi", hi), Options{HorizonMS: 100}, core.Options{})
	wantMS(t, res, 15, 1)
}

func TestPreemptiveEliminatesBlocking(t *testing.T) {
	// Preemptive FP (Fig. 5): hi preempts lo immediately: WCRT(hi) = 5.
	sys, hi, _ := contended(SchedFPPreempt)
	res := mustWCRT(t, sys, EndToEnd("hi", hi), Options{HorizonMS: 100}, core.Options{})
	wantMS(t, res, 5, 1)
}

func TestPreemptedTaskAccumulatesDelay(t *testing.T) {
	// The lo task (10ms) is hit by at most one hi activation (5ms) within
	// its busy window: WCRT(lo) = 15 under both disciplines here.
	for _, sched := range []SchedKind{SchedFP, SchedFPPreempt} {
		sys, _, lo := contended(sched)
		res := mustWCRT(t, sys, EndToEnd("lo", lo), Options{HorizonMS: 100}, core.Options{})
		wantMS(t, res, 15, 1)
	}
}

func TestNondetSchedulerIsWorse(t *testing.T) {
	// The Fig. 4 nondeterministic scheduler may serve lo first even when hi
	// waits, so hi's bound cannot be better than under FP.
	sysN, hiN, _ := contended(SchedNondet)
	resN := mustWCRT(t, sysN, EndToEnd("hi", hiN), Options{HorizonMS: 100}, core.Options{})
	sysF, hiF, _ := contended(SchedFP)
	resF := mustWCRT(t, sysF, EndToEnd("hi", hiF), Options{HorizonMS: 100}, core.Options{})
	if resN.MS.Cmp(resF.MS) < 0 {
		t.Errorf("nondet WCRT %s < FP WCRT %s", resN.MS.RatString(), resF.MS.RatString())
	}
}

func TestJitterDoesNotQueueWithinSlack(t *testing.T) {
	// P=20, J=10, exec 5: consecutive releases are at least P-J = 10 > 5
	// apart, so no queueing: WCRT = 5.
	sys := NewSystem("jit")
	p := sys.AddProcessor("P", 10, SchedFP)
	sc := sys.AddScenario("s", 1, PeriodicJitter(MS(20, 1), MS(10, 1)))
	sc.Compute("op", p, 50000)
	res := mustWCRT(t, sys, EndToEnd("e2e", sc), Options{HorizonMS: 100}, core.Options{})
	wantMS(t, res, 5, 1)
}

func TestBurstyStacksEvents(t *testing.T) {
	// P=20, J=40, D=0: up to ceil(J/P)+1 = 3 events can be released
	// back-to-back, so the last of the burst waits for two predecessors:
	// WCRT = 15.
	sys := NewSystem("bur")
	p := sys.AddProcessor("P", 10, SchedFP)
	sc := sys.AddScenario("s", 1, Bursty(MS(20, 1), MS(40, 1), MS(0, 1)))
	sc.Compute("op", p, 50000)
	res := mustWCRT(t, sys, EndToEnd("e2e", sc), Options{HorizonMS: 100}, core.Options{})
	wantMS(t, res, 15, 1)
}

func TestEventModelOrdering(t *testing.T) {
	// On the shared-processor system, po(0) <= pno <= sp must hold for the
	// lo scenario (more freedom can only increase the worst case).
	var prev *big.Rat
	for _, arrival := range []EventModel{
		Periodic(MS(40, 1), MS(0, 1)),
		PeriodicUnknownOffset(MS(40, 1)),
		Sporadic(MS(40, 1)),
	} {
		sys := NewSystem("ord")
		p := sys.AddProcessor("P", 10, SchedFP)
		hi := sys.AddScenario("hi", 2, Sporadic(MS(20, 1)))
		hi.Compute("hop", p, 50000)
		lo := sys.AddScenario("lo", 1, arrival)
		lo.Compute("lop", p, 100000)
		res := mustWCRT(t, sys, EndToEnd("lo", lo), Options{HorizonMS: 200}, core.Options{})
		if prev != nil && res.MS.Cmp(prev) < 0 {
			t.Errorf("%v: WCRT %s smaller than a more constrained model's %s",
				arrival, res.MS.RatString(), prev.RatString())
		}
		prev = res.MS
	}
}

// TestVerifyDeadlineAgreesWithSup checks the measured supremum against the
// paper's Property 1, AG(seen → y < d), compiled and model-checked on its
// own: at d = WCRT it holds exactly when the bound is only approached, and
// one model time unit later it holds.
func TestVerifyDeadlineAgreesWithSup(t *testing.T) {
	sys, hi, _ := contended(SchedFP)
	req := EndToEnd("hi", hi)
	sup := mustWCRT(t, sys, req, Options{HorizonMS: 100}, core.Options{})
	scale, err := sys.TimeScale()
	if err != nil {
		t.Fatal(err)
	}
	unit := new(big.Rat).SetFrac(big.NewInt(1), scale)
	for _, tc := range []struct {
		d    *big.Rat
		want bool
	}{
		{sup.MS, !sup.Attained},
		{new(big.Rat).Add(sup.MS, unit), true},
	} {
		ok, _, err := VerifyDeadline(sys, req, tc.d, Options{HorizonMS: 100}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.want {
			t.Errorf("AG(seen → y < %s) = %v, want %v (sup %s, attained=%v)",
				tc.d.RatString(), ok, tc.want, sup.MS.RatString(), sup.Attained)
		}
	}
}

func TestTruncatedSearchIsLowerBound(t *testing.T) {
	sys, hi, _ := contended(SchedFP)
	req := EndToEnd("hi", hi)
	exact := mustWCRT(t, sys, req, Options{HorizonMS: 100}, core.Options{})
	res := mustWCRT(t, sys, req, Options{HorizonMS: 100},
		core.Options{Order: core.RDFS, Seed: 1, MaxStates: 200})
	if res.Exact && res.Stats.Truncated {
		t.Error("truncated search must not claim exactness")
	}
	if res.MS.Cmp(exact.MS) > 0 {
		t.Errorf("lower bound %s exceeds exact WCRT %s", res.MS.RatString(), exact.MS.RatString())
	}
}

func TestValidationErrors(t *testing.T) {
	sys := NewSystem("bad")
	if err := sys.Validate(); err == nil {
		t.Error("system without scenarios must fail validation")
	}
	p := sys.AddProcessor("P", 10, SchedFP)
	sc := sys.AddScenario("s", 1, Sporadic(MS(10, 1)))
	if err := sys.Validate(); err == nil {
		t.Error("scenario without steps must fail validation")
	}
	sc.Compute("op", p, 1000)
	if err := sys.Validate(); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
	if err := (&Requirement{Name: "r", Scenario: sc, FromStep: 0, ToStep: 0}).Validate(); err == nil {
		t.Error("empty span must fail validation")
	}
	if err := (EventModel{Kind: KindBursty, PeriodMS: MS(10, 1), JitterMS: MS(5, 1)}).Validate(); err == nil {
		t.Error("bursty with J <= P must fail validation")
	}
	if err := (EventModel{Kind: KindPeriodicJitter, PeriodMS: MS(10, 1), JitterMS: MS(15, 1)}).Validate(); err == nil {
		t.Error("jitter beyond period must fail validation")
	}
}

func TestPreemptiveThreeClassesRejected(t *testing.T) {
	sys := NewSystem("three")
	p := sys.AddProcessor("P", 10, SchedFPPreempt)
	for i, prio := range []int{1, 2, 3} {
		sc := sys.AddScenario(string(rune('a'+i)), prio, Sporadic(MS(100, 1)))
		sc.Compute("op", p, 1000)
	}
	req := EndToEnd("r", sys.Scenarios[0])
	if _, err := CompileAll(sys, []*Requirement{req}, Options{}); err == nil {
		t.Error("three priority classes on a preemptive resource must be rejected")
	}
}

func TestCompiledStructure(t *testing.T) {
	sys, req := pipeline(Sporadic(MS(100, 1)))
	c, err := CompileAll(sys, []*Requirement{req}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ENV + 2 processors + bus + observer.
	if got := len(c.Net.Procs); got != 5 {
		t.Errorf("process count = %d, want 5", got)
	}
	if c.Net.ProcByName("ENV_job") == nil || c.Net.ProcByName("BUS") == nil ||
		c.Net.ProcByName("OBS") == nil {
		t.Error("expected processes missing")
	}
	// Fig. 4 shape for processor A: idle + one run location, two edges.
	pa := c.Net.ProcByName("A")
	if len(pa.Locations) != 2 || len(pa.Edges) != 2 {
		t.Errorf("processor A has %d locations / %d edges, want 2/2",
			len(pa.Locations), len(pa.Edges))
	}
	if c.Scale.Int64() != 1 {
		t.Errorf("all-integer model should have scale 1, got %s", c.Scale)
	}
}

func TestTimeScaleLCM(t *testing.T) {
	sys := NewSystem("scale")
	p := sys.AddProcessor("MMI", 22, SchedFP)
	n := sys.AddProcessor("NAV", 113, SchedFP)
	bus := sys.AddBus("BUS", 72, SchedFP)
	sc := sys.AddScenario("s", 1, Periodic(MS(125, 4), MS(0, 1)))
	sc.Compute("a", p, 100000).Transfer("m", bus, 4).Compute("b", n, 5000000)
	scale, err := computeScale(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Denominators: 11 (22 MIPS), 113, 9 (72 kbit/s), 4 (31.25ms).
	if scale.Int64() != 44748 {
		t.Errorf("scale = %s, want 44748 = lcm(11,113,9,4)", scale)
	}
}

package symta

import (
	"math/big"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
)

func ratMS(num, den int64) *big.Rat { return new(big.Rat).SetFrac64(num, den) }

func TestEtaPlus(t *testing.T) {
	s := Stream{P: 10, J: 0}
	cases := []struct {
		delta, want int64
	}{
		{0, 0}, {1, 1}, {10, 1}, {11, 2}, {20, 2}, {21, 3},
	}
	for _, c := range cases {
		if got := s.EtaPlus(c.delta); got != c.want {
			t.Errorf("eta+(%d) = %d, want %d", c.delta, got, c.want)
		}
	}
	j := Stream{P: 10, J: 15}
	if got := j.EtaPlus(1); got != 2 {
		t.Errorf("jittered eta+(1) = %d, want 2", got)
	}
	d := Stream{P: 10, J: 100, D: 3}
	if got := d.EtaPlus(6); got != 2 {
		t.Errorf("min-separated eta+(6) = %d, want 2", got)
	}
}

func TestSingleTaskResponseIsWCET(t *testing.T) {
	sys := arch.NewSystem("one")
	p := sys.AddProcessor("P", 10, arch.SchedFPPreempt)
	sc := sys.AddScenario("s", 1, arch.PeriodicUnknownOffset(arch.MS(20, 1)))
	sc.Compute("op", p, 50000) // 5ms
	req := arch.EndToEnd("e2e", sc)
	res, err := Analyze(sys, []*arch.Requirement{req})
	if err != nil {
		t.Fatal(err)
	}
	if res["e2e"].MS.Cmp(ratMS(5, 1)) != 0 {
		t.Errorf("single task bound = %s, want 5", res["e2e"].MS.FloatString(3))
	}
}

// contended: hi (5ms / 20ms) and lo (10ms / 40ms) on one processor.
func contended(sched arch.SchedKind) (*arch.System, *arch.Requirement, *arch.Requirement) {
	sys := arch.NewSystem("cont")
	p := sys.AddProcessor("P", 10, sched)
	hi := sys.AddScenario("hi", 2, arch.PeriodicUnknownOffset(arch.MS(20, 1)))
	hi.Compute("hop", p, 50000)
	lo := sys.AddScenario("lo", 1, arch.PeriodicUnknownOffset(arch.MS(40, 1)))
	lo.Compute("lop", p, 100000)
	return sys, arch.EndToEnd("hi", hi), arch.EndToEnd("lo", lo)
}

func TestClassicBlockingNumbers(t *testing.T) {
	sys, hiReq, loReq := contended(arch.SchedFP)
	res, err := Analyze(sys, []*arch.Requirement{hiReq, loReq})
	if err != nil {
		t.Fatal(err)
	}
	// Non-preemptive FP textbook values: R(hi) = 10 + 5, R(lo) = 5 + 10.
	if res["hi"].MS.Cmp(ratMS(15, 1)) != 0 {
		t.Errorf("hi bound = %s, want 15", res["hi"].MS.FloatString(3))
	}
	if res["lo"].MS.Cmp(ratMS(15, 1)) != 0 {
		t.Errorf("lo bound = %s, want 15", res["lo"].MS.FloatString(3))
	}
}

func TestPreemptiveNumbers(t *testing.T) {
	sys, hiReq, loReq := contended(arch.SchedFPPreempt)
	res, err := Analyze(sys, []*arch.Requirement{hiReq, loReq})
	if err != nil {
		t.Fatal(err)
	}
	if res["hi"].MS.Cmp(ratMS(5, 1)) != 0 {
		t.Errorf("preemptive hi bound = %s, want 5", res["hi"].MS.FloatString(3))
	}
	if res["lo"].MS.Cmp(ratMS(15, 1)) != 0 {
		t.Errorf("preemptive lo bound = %s, want 15", res["lo"].MS.FloatString(3))
	}
}

func TestBurstyResponse(t *testing.T) {
	// P=20, J=40, D=0, C=5: three stacked activations, the last responds in
	// 15ms — busy-window analysis is exact here.
	sys := arch.NewSystem("bur")
	p := sys.AddProcessor("P", 10, arch.SchedFP)
	sc := sys.AddScenario("s", 1, arch.Bursty(arch.MS(20, 1), arch.MS(40, 1), arch.MS(0, 1)))
	sc.Compute("op", p, 50000)
	req := arch.EndToEnd("e2e", sc)
	res, err := Analyze(sys, []*arch.Requirement{req})
	if err != nil {
		t.Fatal(err)
	}
	if res["e2e"].MS.Cmp(ratMS(15, 1)) != 0 {
		t.Errorf("bursty bound = %s, want 15", res["e2e"].MS.FloatString(3))
	}
}

func TestBoundsDominateModelChecker(t *testing.T) {
	// The analytic bound must never be below the exact WCRT (Table 2's
	// SymTA/S ≥ UPPAAL relation), on both disciplines and both tasks.
	for _, sched := range []arch.SchedKind{arch.SchedFP, arch.SchedFPPreempt} {
		sys, hiReq, loReq := contended(sched)
		ana, err := Analyze(sys, []*arch.Requirement{hiReq, loReq})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := arch.CompileAll(sys, []*arch.Requirement{hiReq, loReq}, arch.Options{HorizonMS: 200})
		if err != nil {
			t.Fatal(err)
		}
		all, err := cs.Analyze(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, exact := range all.Results {
			req := exact.Req
			if ana[req.Name].MS.Cmp(exact.MS) < 0 {
				t.Errorf("sched %v %s: analytic bound %s below exact %s",
					sched, req.Name, ana[req.Name].MS.FloatString(3), exact.MS.FloatString(3))
			}
		}
	}
}

func TestChainJitterPropagation(t *testing.T) {
	// Two-step chain on distinct processors with a competing task on the
	// second: the second step's bound must account for upstream response
	// jitter. The end-to-end bound dominates the exact WCRT.
	sys := arch.NewSystem("chain")
	p1 := sys.AddProcessor("P1", 10, arch.SchedFPPreempt)
	p2 := sys.AddProcessor("P2", 10, arch.SchedFPPreempt)
	main := sys.AddScenario("main", 1, arch.PeriodicUnknownOffset(arch.MS(50, 1)))
	main.Compute("a", p1, 100000).Compute("b", p2, 100000)
	rival := sys.AddScenario("rival", 2, arch.PeriodicUnknownOffset(arch.MS(25, 1)))
	rival.Compute("r", p2, 50000)
	req := arch.EndToEnd("e2e", main)
	ana, err := Analyze(sys, []*arch.Requirement{req})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := arch.CompileAll(sys, []*arch.Requirement{req}, arch.Options{HorizonMS: 200})
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := all.Results[0]
	if ana["e2e"].MS.Cmp(exact.MS) < 0 {
		t.Errorf("chain bound %s below exact %s",
			ana["e2e"].MS.FloatString(3), exact.MS.FloatString(3))
	}
	if len(ana["e2e"].PerStepMS) != 2 {
		t.Errorf("expected 2 per-step bounds, got %d", len(ana["e2e"].PerStepMS))
	}
}

func TestSpanRequirement(t *testing.T) {
	sys := arch.NewSystem("span")
	p := sys.AddProcessor("P", 10, arch.SchedFPPreempt)
	p2 := sys.AddProcessor("P2", 10, arch.SchedFPPreempt)
	sc := sys.AddScenario("s", 1, arch.PeriodicUnknownOffset(arch.MS(100, 1)))
	sc.Compute("a", p, 100000).Compute("b", p2, 50000)
	res, err := Analyze(sys, []*arch.Requirement{arch.Span("ab", sc, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Only step b is inside the span: 5ms.
	if res["ab"].MS.Cmp(ratMS(5, 1)) != 0 {
		t.Errorf("span bound = %s, want 5", res["ab"].MS.FloatString(3))
	}
}

func TestOverloadDetected(t *testing.T) {
	sys := arch.NewSystem("over")
	p := sys.AddProcessor("P", 10, arch.SchedFPPreempt)
	sc := sys.AddScenario("s", 1, arch.PeriodicUnknownOffset(arch.MS(8, 1)))
	sc.Compute("op", p, 100000) // 10ms every 8ms
	if _, err := Analyze(sys, []*arch.Requirement{arch.EndToEnd("e", sc)}); err == nil {
		t.Error("overloaded resource must be reported")
	}
}

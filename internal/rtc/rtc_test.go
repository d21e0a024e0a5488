package rtc

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/compos"
	"repro/internal/core"
)

func ratMS(num, den int64) *big.Rat { return new(big.Rat).SetFrac64(num, den) }

func TestEventsAndCountBefore(t *testing.T) {
	a := compos.Stream{P: 10, J: 0}
	want := []int64{0, 10, 20}
	for i := range want {
		if ev := a.Event(int64(i + 1)); ev != want[i] {
			t.Errorf("event %d at %d, want %d", i, ev, want[i])
		}
	}
	cases := []struct{ t, want int64 }{{0, 0}, {1, 1}, {10, 1}, {11, 2}, {21, 3}}
	for _, c := range cases {
		if got := a.EtaPlus(c.t); got != c.want {
			t.Errorf("EtaPlus(%d) = %d, want %d", c.t, got, c.want)
		}
	}

	j := compos.Stream{P: 10, J: 25}
	// a_q = max(0, (q-1)*10 - 25): 0,0,0,5,15,...
	wantJ := []int64{0, 0, 0, 5, 15}
	for i := range wantJ {
		if ev := j.Event(int64(i + 1)); ev != wantJ[i] {
			t.Errorf("jittered event %d at %d, want %d", i, ev, wantJ[i])
		}
	}
	if got := j.EtaPlus(1); got != 3 {
		t.Errorf("jittered EtaPlus(1) = %d, want 3", got)
	}

	d := compos.Stream{P: 10, J: 25, D: 2}
	// Separation pushes the stacked events apart: 0, 2, 4, 6.
	wantD := []int64{0, 2, 4, 6}
	for i := range wantD {
		if ev := d.Event(int64(i + 1)); ev != wantD[i] {
			t.Errorf("separated event %d at %d, want %d", i, ev, wantD[i])
		}
	}
}

func TestQuickCountMatchesEvents(t *testing.T) {
	// The event count (the upper workload staircase over C) must agree
	// with the explicit event list.
	f := func(p8, j8, d8, t8 uint8) bool {
		a := compos.Stream{P: int64(p8%20) + 1, J: int64(j8 % 50), D: int64(d8 % 8)}
		tt := int64(t8)
		n := a.EtaPlus(tt)
		cnt := int64(0)
		for q := int64(1); q <= n+5; q++ {
			if a.Event(q) < tt {
				cnt++
			}
		}
		return cnt == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSingleTaskDelay(t *testing.T) {
	sys := arch.NewSystem("one")
	p := sys.AddProcessor("P", 10, arch.SchedFPPreempt)
	sc := sys.AddScenario("s", 1, arch.PeriodicUnknownOffset(arch.MS(20, 1)))
	sc.Compute("op", p, 50000) // 5ms
	res, err := Analyze(sys, []*arch.Requirement{arch.EndToEnd("e2e", sc)})
	if err != nil {
		t.Fatal(err)
	}
	if res["e2e"].MS.Cmp(ratMS(5, 1)) != 0 {
		t.Errorf("single-task delay = %s, want 5", res["e2e"].MS.FloatString(3))
	}
}

func contended(sched arch.SchedKind) (*arch.System, *arch.Requirement, *arch.Requirement) {
	sys := arch.NewSystem("cont")
	p := sys.AddProcessor("P", 10, sched)
	hi := sys.AddScenario("hi", 2, arch.PeriodicUnknownOffset(arch.MS(20, 1)))
	hi.Compute("hop", p, 50000)
	lo := sys.AddScenario("lo", 1, arch.PeriodicUnknownOffset(arch.MS(40, 1)))
	lo.Compute("lop", p, 100000)
	return sys, arch.EndToEnd("hi", hi), arch.EndToEnd("lo", lo)
}

func TestContendedBounds(t *testing.T) {
	sys, hiReq, loReq := contended(arch.SchedFPPreempt)
	res, err := Analyze(sys, []*arch.Requirement{hiReq, loReq})
	if err != nil {
		t.Fatal(err)
	}
	if res["hi"].MS.Cmp(ratMS(5, 1)) != 0 {
		t.Errorf("preemptive hi delay = %s, want 5", res["hi"].MS.FloatString(3))
	}
	if res["lo"].MS.Cmp(ratMS(15, 1)) != 0 {
		t.Errorf("preemptive lo delay = %s, want 15", res["lo"].MS.FloatString(3))
	}
}

func TestBoundsDominateModelChecker(t *testing.T) {
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
				t.Errorf("sched %v %s: MPA bound %s below exact %s",
					sched, req.Name, ana[req.Name].MS.FloatString(3), exact.MS.FloatString(3))
			}
		}
	}
}

func TestBurstyDelay(t *testing.T) {
	sys := arch.NewSystem("bur")
	p := sys.AddProcessor("P", 10, arch.SchedFP)
	sc := sys.AddScenario("s", 1, arch.Bursty(arch.MS(20, 1), arch.MS(40, 1), arch.MS(0, 1)))
	sc.Compute("op", p, 50000)
	res, err := Analyze(sys, []*arch.Requirement{arch.EndToEnd("e2e", sc)})
	if err != nil {
		t.Fatal(err)
	}
	// Exact WCRT is 15 (three stacked 5ms jobs); MPA is exact here.
	if res["e2e"].MS.Cmp(ratMS(15, 1)) != 0 {
		t.Errorf("bursty delay = %s, want 15", res["e2e"].MS.FloatString(3))
	}
}

func TestChainPropagationConservative(t *testing.T) {
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
}

func TestOverloadDetected(t *testing.T) {
	sys := arch.NewSystem("over")
	p := sys.AddProcessor("P", 10, arch.SchedFPPreempt)
	sc := sys.AddScenario("s", 1, arch.PeriodicUnknownOffset(arch.MS(8, 1)))
	sc.Compute("op", p, 100000)
	if _, err := Analyze(sys, []*arch.Requirement{arch.EndToEnd("e", sc)}); err == nil {
		t.Error("overload must be reported")
	}
}

func TestRemainingServiceMonotone(t *testing.T) {
	h := &compos.Task{Name: "h", C: 5, In: compos.Stream{P: 20, J: 0}}
	r := remaining{hp: []*compos.Task{h}, blocking: 3}
	prev := int64(-1)
	for d := int64(0); d <= 100; d += 7 {
		v := r.at(d)
		if v < prev {
			t.Fatalf("remaining service decreased at %d: %d < %d", d, v, prev)
		}
		prev = v
	}
	// Inverse is a true inverse on the curve.
	for _, w := range []int64{1, 5, 12, 30} {
		d, err := r.inverse(w)
		if err != nil {
			t.Fatal(err)
		}
		if r.at(d) < w {
			t.Errorf("inverse(%d) = %d but at(%d) = %d", w, d, d, r.at(d))
		}
		if d > 0 && r.at(d-1) >= w {
			t.Errorf("inverse(%d) = %d not minimal", w, d)
		}
	}
}

// TestHorizontalDevMatchesDelayBound pins delayBound on a single stream on
// unit service to the horizontal deviation between the stream's staircase
// demand curve and the service curve, as the min-plus curve algebra computed
// it before it was removed (PR 28).
func TestHorizontalDevMatchesDelayBound(t *testing.T) {
	for _, c := range []struct {
		in      compos.Stream
		c, want int64
	}{
		{compos.Stream{P: 20, J: 0}, 5, 5},
		{compos.Stream{P: 20, J: 20}, 5, 10},
		{compos.Stream{P: 20, J: 40}, 5, 15},
		{compos.Stream{P: 15, J: 7}, 4, 4},
	} {
		db, err := delayBound(&compos.Task{Name: "t", C: c.c, ChainC: c.c, In: c.in}, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if db != c.want {
			t.Errorf("%+v, C=%d: delay bound %d, want horizontal deviation %d", c.in, c.c, db, c.want)
		}
	}
}

// TestOverloadRefusedEarlyAgreesWithBusyPeriod draws random task sets — a
// task with a short jittered, possibly separated stream and up to two
// interferers with long ones, long-run demands around and above 1 — and
// requires, on every set whose demand is above 1, that delayBound refuses it
// at once and that the busy-period search alone refuses it too: the early
// check only skips the search, it never turns a bound into an error. The
// interferers' periods are long so that the search, which on an overloaded
// set runs all its 4,096 activations, evaluates few workload jumps each.
// Demand exactly 1 is not refused.
func TestOverloadRefusedEarlyAgreesWithBusyPeriod(t *testing.T) {
	if db, err := delayBound(&compos.Task{Name: "t", C: 10, ChainC: 10, In: compos.Stream{P: 10}}, nil, 0); err != nil || db != 10 {
		t.Errorf("demand exactly 1: delay bound %d, %v; want 10", db, err)
	}
	overloads := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		hp := make([]*compos.Task, r.Intn(3))
		for i := range hp {
			p := 20000 + r.Int63n(80000)
			in := compos.Stream{P: p, J: r.Int63n(p), D: r.Int63n(6)}
			hp[i] = &compos.Task{Name: fmt.Sprintf("h%d", i), C: 1 + r.Int63n(p*3/5), In: in}
		}
		in := compos.Stream{P: 2 + r.Int63n(9), J: r.Int63n(30), D: r.Int63n(4)}
		c := 1 + r.Int63n(2*in.P)
		task := &compos.Task{Name: "t", C: c, ChainC: c + r.Int63n(3), In: in}
		blocking := r.Int63n(8)
		if !overloaded(task, hp) {
			return true
		}
		overloads++
		if _, err := delayBound(task, hp, blocking); err != errBusyPeriod {
			t.Errorf("seed %d: delay bound refuses with %v, want %v", seed, err, errBusyPeriod)
		}
		bound, err := busyPeriod(task, hp, blocking)
		if err == nil {
			t.Errorf("seed %d: demand above 1 (%+v, %d interferers) but the busy period closes with bound %d", seed, task.In, len(hp), bound)
		}
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if overloads < 50 {
		t.Errorf("only %d of 200 drawn sets are overloaded; the property is barely exercised", overloads)
	}
}

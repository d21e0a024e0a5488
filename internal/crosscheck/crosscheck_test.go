// Package crosscheck holds end-to-end integration tests that pit the four
// analysis engines against each other on randomized architectures: the
// discrete-event simulator must never observe more than the exact WCRT from
// the zone-based model checker, and the two analytic techniques must never
// report less. This is the tool ordering of the paper's Table 2, asserted
// mechanically across many random systems.
package crosscheck

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/symta"
)

// randomSystem generates a small well-formed two-application system with
// light load (no overload), random durations, schedulers, and event models.
func randomSystem(r *rand.Rand) (*arch.System, []*arch.Requirement) {
	sys := arch.NewSystem("random")
	scheds := []arch.SchedKind{arch.SchedNondet, arch.SchedFP, arch.SchedFPPreempt}
	p1 := sys.AddProcessor("P1", 10, scheds[r.Intn(3)])
	p2 := sys.AddProcessor("P2", 10, scheds[r.Intn(3)])
	bus := sys.AddBus("BUS", 8, scheds[r.Intn(2)]) // nondet or fp

	mkScenario := func(name string, prio int, period int64) *arch.Scenario {
		var model arch.EventModel
		switch r.Intn(4) {
		case 0:
			model = arch.Periodic(arch.MS(period, 1), arch.MS(r.Int63n(period), 1))
		case 1:
			model = arch.PeriodicUnknownOffset(arch.MS(period, 1))
		case 2:
			model = arch.Sporadic(arch.MS(period, 1))
		default:
			model = arch.PeriodicJitter(arch.MS(period, 1), arch.MS(r.Int63n(period)+1, 1))
		}
		sc := sys.AddScenario(name, prio, model)
		steps := 1 + r.Intn(3)
		for i := 0; i < steps; i++ {
			ms := 1 + r.Int63n(4)
			// Durations in whole milliseconds: instructions = ms·10⁴ at
			// 10 MIPS, bytes = ms at 8 kbit/s.
			switch r.Intn(3) {
			case 0:
				sc.Compute("c1_"+name+string(rune('a'+i)), p1, ms*10000)
			case 1:
				sc.Compute("c2_"+name+string(rune('a'+i)), p2, ms*10000)
			default:
				sc.Transfer("m_"+name+string(rune('a'+i)), bus, ms)
			}
		}
		return sc
	}
	// Periods far above total work keep every resource well under
	// saturation for any alignment.
	a := mkScenario("a", 2, 60)
	b := mkScenario("b", 1, 90)
	return sys, []*arch.Requirement{arch.EndToEnd("a", a), arch.EndToEnd("b", b)}
}

func TestCrossEngineAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-engine sweep is slow")
	}
	r := rand.New(rand.NewSource(2006))
	for trial := 0; trial < 12; trial++ {
		sys, reqs := randomSystem(r)
		for _, req := range reqs {
			cs, err := arch.CompileAll(sys, []*arch.Requirement{req}, arch.Options{HorizonMS: 400})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, req.Name, err)
			}
			all, err := cs.Analyze(core.Options{MaxStates: 400_000})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, req.Name, err)
			}
			exact := all.Results[0]
			if !exact.Exact {
				continue // beyond budget: cannot compare against a bound
			}
			simRes, err := sim.Simulate(sys, []*arch.Requirement{req},
				sim.Options{Seed: int64(trial) + 1, HorizonMS: 4000, Replications: 6})
			if err != nil {
				t.Fatalf("trial %d %s sim: %v", trial, req.Name, err)
			}
			if simRes[req.Name].MaxMS.Cmp(exact.MS) > 0 {
				t.Errorf("trial %d %s: simulated %s exceeds exact %s",
					trial, req.Name, simRes[req.Name].MaxMS.FloatString(3), exact.MS.FloatString(3))
			}
			symtaRes, err := symta.Analyze(sys, []*arch.Requirement{req})
			if err != nil {
				t.Fatalf("trial %d %s symta: %v", trial, req.Name, err)
			}
			if symtaRes[req.Name].MS.Cmp(exact.MS) < 0 {
				t.Errorf("trial %d %s: busy-window bound %s below exact %s",
					trial, req.Name, symtaRes[req.Name].MS.FloatString(3), exact.MS.FloatString(3))
			}
			rtcRes, err := rtc.Analyze(sys, []*arch.Requirement{req})
			if err != nil {
				t.Fatalf("trial %d %s rtc: %v", trial, req.Name, err)
			}
			if rtcRes[req.Name].MS.Cmp(exact.MS) < 0 {
				t.Errorf("trial %d %s: rtc bound %s below exact %s",
					trial, req.Name, rtcRes[req.Name].MS.FloatString(3), exact.MS.FloatString(3))
			}
		}
	}
}

// TestVerifyDeadlineVsSupOnRandomSystems cross-validates the two ways of
// answering the paper's Property 1 on random systems: the measured supremum
// and AG(seen → y < d) compiled and model-checked on its own. At d = WCRT
// the property holds exactly when the bound is only approached; one model
// time unit later it holds. VerifyDeadline raises the requirement's
// effective horizon to cover d, whether HorizonMS or HorizonMSFor set it.
func TestVerifyDeadlineVsSupOnRandomSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation sweep is slow")
	}
	horizons := map[string]arch.Options{
		"HorizonMS":    {HorizonMS: 400},
		"HorizonMSFor": {HorizonMSFor: func(*arch.Requirement) int64 { return 1 }},
	}
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		sys, reqs := randomSystem(r)
		req := reqs[trial%2]
		cs, err := arch.CompileAll(sys, []*arch.Requirement{req}, arch.Options{HorizonMS: 400})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		all, err := cs.Analyze(core.Options{MaxStates: 300_000})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		supRes := all.Results[0]
		if !supRes.Exact {
			continue
		}
		scale, err := sys.TimeScale()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		unit := new(big.Rat).SetFrac(big.NewInt(1), scale)
		for _, tc := range []struct {
			d    *big.Rat
			want bool
		}{
			{supRes.MS, !supRes.Attained},
			{new(big.Rat).Add(supRes.MS, unit), true},
		} {
			for form, copts := range horizons {
				ok, _, err := arch.VerifyDeadline(sys, req, tc.d, copts, core.Options{})
				if err != nil {
					t.Fatalf("trial %d verify: %v", trial, err)
				}
				if ok != tc.want {
					t.Errorf("trial %d %s, horizon by %s: AG(seen → y < %s) = %v, want %v (sup %s, attained=%v)",
						trial, req.Name, form, tc.d.FloatString(4), ok, tc.want, supRes.MS.FloatString(4), supRes.Attained)
				}
			}
		}
	}
}

// TestTDMACrossEngines validates the TDMA extension across all four engines:
// the analytic formulas match the exact zone-graph value, and the simulator
// stays below it.
func TestTDMACrossEngines(t *testing.T) {
	sys := arch.NewSystem("tdma")
	bus := sys.AddBus("BUS", 8, arch.SchedTDMA)
	a := sys.AddScenario("a", 2, arch.Sporadic(arch.MS(60, 1)))
	a.Transfer("am", bus, 3)
	b := sys.AddScenario("b", 1, arch.Sporadic(arch.MS(60, 1)))
	b.Transfer("bm", bus, 4)
	bus.TDMA = &arch.TDMAConfig{
		CycleMS: arch.MS(20, 1),
		Slots: []arch.TDMASlot{
			{Scenario: a, StartMS: arch.MS(0, 1), EndMS: arch.MS(5, 1)},
			{Scenario: b, StartMS: arch.MS(10, 1), EndMS: arch.MS(15, 1)},
		},
	}
	reqs := []*arch.Requirement{arch.EndToEnd("a", a), arch.EndToEnd("b", b)}
	symtaRes, err := symta.Analyze(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	rtcRes, err := rtc.Analyze(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Simulate(sys, reqs, sim.Options{Seed: 5, HorizonMS: 5000, Replications: 8})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := arch.CompileAll(sys, reqs, arch.Options{HorizonMS: 300})
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, exact := range all.Results {
		req := exact.Req
		if symtaRes[req.Name].MS.Cmp(exact.MS) != 0 {
			t.Errorf("%s: symta %s != exact %s (the TDMA formula is exact here)",
				req.Name, symtaRes[req.Name].MS.FloatString(3), exact.MS.FloatString(3))
		}
		if rtcRes[req.Name].MS.Cmp(exact.MS) != 0 {
			t.Errorf("%s: rtc %s != exact %s", req.Name,
				rtcRes[req.Name].MS.FloatString(3), exact.MS.FloatString(3))
		}
		if simRes[req.Name].MaxMS.Cmp(exact.MS) > 0 {
			t.Errorf("%s: sim %s exceeds exact %s", req.Name,
				simRes[req.Name].MaxMS.FloatString(3), exact.MS.FloatString(3))
		}
	}
}

// TestEtaPlusMatchesEventList cross-validates the two independent
// implementations of the PJD upper event-count curve: symta's closed-form
// EtaPlus and rtc's explicit critical-alignment event list.
func TestEtaPlusMatchesEventList(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		p := int64(r.Intn(20) + 1)
		j := int64(r.Intn(60))
		s := symta.Stream{P: p, J: j}
		a := rtc.Arrival{P: p, J: j, C: 1}
		for _, delta := range []int64{0, 1, p - 1, p, p + 1, j, j + p, 50} {
			if delta < 0 {
				continue
			}
			// EtaPlus counts events in a window of length delta; the event
			// list realizes the same bound as arrivals strictly before
			// delta under the critical alignment.
			want := a.CountBefore(delta)
			got := s.EtaPlus(delta)
			if got != want {
				t.Fatalf("P=%d J=%d delta=%d: symta eta+ = %d, rtc count = %d",
					p, j, delta, got, want)
			}
		}
	}
}

// TestTDMABurstyBacklog pins the TDMA busy-period regression: a bursty
// stream stacks three messages, and the third waits three full cycles. The
// analytic formulas must track the exact zone-engine value (66 ms here),
// not stop at the first activation's bound.
func TestTDMABurstyBacklog(t *testing.T) {
	sys := arch.NewSystem("tdma-bursty")
	bus := sys.AddBus("BUS", 8, arch.SchedTDMA)
	bulk := sys.AddScenario("bulk", 1, arch.Bursty(arch.MS(30, 1), arch.MS(60, 1), arch.MS(0, 1)))
	bulk.Transfer("chunk", bus, 6)
	bus.TDMA = &arch.TDMAConfig{
		CycleMS: arch.MS(20, 1),
		Slots:   []arch.TDMASlot{{Scenario: bulk, StartMS: arch.MS(3, 1), EndMS: arch.MS(10, 1)}},
	}
	req := arch.EndToEnd("bulk", bulk)

	cs, err := arch.CompileAll(sys, []*arch.Requirement{req}, arch.Options{HorizonMS: 300})
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := all.Results[0]
	// The release deadlines of the bursty stream couple with the grant
	// phase: the burst of three can only form right at an event deadline,
	// which the exact analysis exploits (59 ms) and the phase-oblivious
	// analytic formula cannot (66 ms, still a safe bound).
	if exact.MS.RatString() != "59" {
		t.Fatalf("exact bursty TDMA WCRT = %s, want 59", exact.MS.FloatString(3))
	}
	symtaRes, err := symta.Analyze(sys, []*arch.Requirement{req})
	if err != nil {
		t.Fatal(err)
	}
	rtcRes, err := rtc.Analyze(sys, []*arch.Requirement{req})
	if err != nil {
		t.Fatal(err)
	}
	if symtaRes["bulk"].MS.Cmp(exact.MS) < 0 {
		t.Errorf("symta TDMA bound %s below exact %s",
			symtaRes["bulk"].MS.FloatString(3), exact.MS.FloatString(3))
	}
	if symtaRes["bulk"].MS.RatString() != "66" {
		t.Errorf("symta TDMA bound = %s, want the 3-cycle backlog bound 66",
			symtaRes["bulk"].MS.FloatString(3))
	}
	if rtcRes["bulk"].MS.Cmp(exact.MS) < 0 {
		t.Errorf("rtc TDMA bound %s below exact %s",
			rtcRes["bulk"].MS.FloatString(3), exact.MS.FloatString(3))
	}
	simRes, err := sim.Simulate(sys, []*arch.Requirement{req},
		sim.Options{Seed: 2, HorizonMS: 5000, Replications: 8})
	if err != nil {
		t.Fatal(err)
	}
	if simRes["bulk"].MaxMS.Cmp(exact.MS) > 0 {
		t.Errorf("sim %s exceeds exact %s",
			simRes["bulk"].MaxMS.FloatString(3), exact.MS.FloatString(3))
	}
}

package arch

import (
	"testing"

	"repro/internal/core"
)

// tdmaSystem: one 3ms message on an 8 kbit/s TDMA bus, cycle 20ms with the
// scenario's slot at [0, 5). Worst case: the message arrives just after its
// grant and waits a full cycle: WCRT = 20 + 3 = 23 ms.
func tdmaSystem(t *testing.T) (*System, *Requirement) {
	t.Helper()
	sys := NewSystem("tdma")
	bus := sys.AddBus("BUS", 8, SchedTDMA)
	sc := sys.AddScenario("s", 1, Sporadic(MS(50, 1)))
	sc.Transfer("msg", bus, 3)
	bus.TDMA = &TDMAConfig{
		CycleMS: MS(20, 1),
		Slots:   []TDMASlot{{Scenario: sc, StartMS: MS(0, 1), EndMS: MS(5, 1)}},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys, EndToEnd("e2e", sc)
}

func TestTDMAWorstCaseWaitsFullCycle(t *testing.T) {
	sys, req := tdmaSystem(t)
	res := mustWCRT(t, sys, req, Options{HorizonMS: 200}, core.Options{})
	if res.MS.RatString() != "23" {
		t.Errorf("TDMA WCRT = %s ms, want 23 (full cycle + transfer)", res.MS.FloatString(3))
	}
	if !res.Exact {
		t.Error("TDMA analysis should be exact")
	}
}

func TestTDMATwoSlotsIsolateScenarios(t *testing.T) {
	// Two scenarios with dedicated slots never interfere: each sees only
	// its own cycle wait, regardless of the other's traffic.
	sys := NewSystem("tdma2")
	bus := sys.AddBus("BUS", 8, SchedTDMA)
	a := sys.AddScenario("a", 2, Sporadic(MS(60, 1)))
	a.Transfer("am", bus, 3)
	b := sys.AddScenario("b", 1, Sporadic(MS(60, 1)))
	b.Transfer("bm", bus, 4)
	bus.TDMA = &TDMAConfig{
		CycleMS: MS(20, 1),
		Slots: []TDMASlot{
			{Scenario: a, StartMS: MS(0, 1), EndMS: MS(5, 1)},
			{Scenario: b, StartMS: MS(10, 1), EndMS: MS(15, 1)},
		},
	}
	cs, err := CompileAll(sys, []*Requirement{EndToEnd("a", a), EndToEnd("b", b)}, Options{HorizonMS: 200})
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resA, resB := all.Results[0], all.Results[1]
	if resA.MS.RatString() != "23" {
		t.Errorf("scenario a WCRT = %s, want 23", resA.MS.FloatString(3))
	}
	if resB.MS.RatString() != "24" {
		t.Errorf("scenario b WCRT = %s, want 24 (cycle + 4ms transfer)", resB.MS.FloatString(3))
	}
}

func TestTDMAValidation(t *testing.T) {
	sys := NewSystem("bad")
	bus := sys.AddBus("BUS", 8, SchedTDMA)
	sc := sys.AddScenario("s", 1, Sporadic(MS(50, 1)))
	sc.Transfer("msg", bus, 3)
	if err := sys.Validate(); err == nil {
		t.Error("TDMA bus without a slot table must be rejected")
	}
	bus.TDMA = &TDMAConfig{CycleMS: MS(20, 1), Slots: []TDMASlot{
		{Scenario: sc, StartMS: MS(10, 1), EndMS: MS(25, 1)},
	}}
	if err := sys.Validate(); err == nil {
		t.Error("slot beyond the cycle must be rejected")
	}
	bus.TDMA = &TDMAConfig{CycleMS: MS(20, 1), Slots: []TDMASlot{
		{Scenario: sc, StartMS: MS(0, 1), EndMS: MS(10, 1)},
		{Scenario: sc, StartMS: MS(5, 1), EndMS: MS(15, 1)},
	}}
	if err := sys.Validate(); err == nil {
		t.Error("overlapping slots must be rejected")
	}
	bus.TDMA = &TDMAConfig{CycleMS: MS(20, 1), Slots: []TDMASlot{
		{Scenario: sc, StartMS: MS(0, 1), EndMS: MS(2, 1)},
	}}
	if _, err := CompileAll(sys, []*Requirement{EndToEnd("e", sc)}, Options{}); err == nil {
		t.Error("message longer than its slot must be rejected at compile time")
	}
	// A processor cannot be TDMA.
	sys2 := NewSystem("badproc")
	p := sys2.AddProcessor("P", 10, SchedTDMA)
	sc2 := sys2.AddScenario("s", 1, Sporadic(MS(50, 1)))
	sc2.Compute("op", p, 1000)
	if err := sys2.Validate(); err == nil {
		t.Error("TDMA processor must be rejected")
	}
	// A scenario with traffic but no slot.
	sys3 := NewSystem("noslot")
	bus3 := sys3.AddBus("BUS", 8, SchedTDMA)
	sc3 := sys3.AddScenario("s", 1, Sporadic(MS(50, 1)))
	sc3.Transfer("msg", bus3, 3)
	other := sys3.AddScenario("other", 1, Sporadic(MS(50, 1)))
	bus3.TDMA = &TDMAConfig{CycleMS: MS(20, 1), Slots: []TDMASlot{
		{Scenario: other, StartMS: MS(0, 1), EndMS: MS(5, 1)},
	}}
	_ = other
	if _, err := CompileAll(sys3, []*Requirement{EndToEnd("e", sc3)}, Options{}); err == nil {
		t.Error("traffic without a slot must be rejected at compile time")
	}
}

package arch_test

import (
	"os"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/icrns"
)

// TestListsSizedOnce compiles a system for every template and arrival model
// — nondet, fp, single- and two-class fp-preemptive processors, FP and TDMA
// buses, periodic with known and unknown offsets, sporadic, jittered and
// bursty with a minimal separation — and requires every process's location
// and edge lists to have been allocated once, at their final length: a
// builder that miscounts either leaves spare capacity or grows the list.
func TestListsSizedOnce(t *testing.T) {
	type system struct {
		name string
		sys  *arch.System
		reqs []*arch.Requirement
	}
	src, err := os.ReadFile("../../testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	sys, reqs, err := arch.ParseSystem(src)
	if err != nil {
		t.Fatal(err)
	}
	systems := []system{{"tiny", sys, reqs}}
	// examples/preemption: one CPU under each scheduler, two priorities.
	for _, sched := range []arch.SchedKind{arch.SchedNondet, arch.SchedFP, arch.SchedFPPreempt} {
		sys := arch.NewSystem("preemption")
		cpu := sys.AddProcessor("CPU", 10, sched)
		urgent := sys.AddScenario("urgent", 2, arch.PeriodicUnknownOffset(arch.MS(20, 1)))
		urgent.Compute("isr", cpu, 50000)
		bulk := sys.AddScenario("bulk", 1, arch.PeriodicUnknownOffset(arch.MS(50, 1)))
		bulk.Compute("batch", cpu, 200000)
		systems = append(systems, system{"preemption/" + sched.String(), sys,
			[]*arch.Requirement{arch.EndToEnd("urgent", urgent), arch.EndToEnd("bulk", bulk)}})
	}
	// examples/tdma: an FP or TDMA bus under three control arrival models.
	for _, sched := range []arch.SchedKind{arch.SchedFP, arch.SchedTDMA} {
		for _, arrival := range []arch.EventModel{
			arch.Sporadic(arch.MS(12, 1)),
			arch.PeriodicJitter(arch.MS(12, 1), arch.MS(12, 1)),
			arch.Bursty(arch.MS(12, 1), arch.MS(36, 1), arch.MS(2, 1)),
		} {
			sys := arch.NewSystem("tdma-demo")
			bus := sys.AddBus("BUS", 8, sched)
			ctrl := sys.AddScenario("control", 2, arrival)
			ctrl.Transfer("cmd", bus, 2)
			bulk := sys.AddScenario("bulk", 1, arch.Sporadic(arch.MS(30, 1)))
			bulk.Transfer("chunk", bus, 6)
			if sched == arch.SchedTDMA {
				bus.TDMA = &arch.TDMAConfig{CycleMS: arch.MS(10, 1), Slots: []arch.TDMASlot{
					{Scenario: ctrl, StartMS: arch.MS(0, 1), EndMS: arch.MS(3, 1)},
					{Scenario: bulk, StartMS: arch.MS(3, 1), EndMS: arch.MS(10, 1)},
				}}
			}
			systems = append(systems, system{"tdma/" + sched.String() + "/" + arrival.Kind.String(), sys,
				[]*arch.Requirement{arch.EndToEnd("control", ctrl), arch.EndToEnd("bulk", bulk)}})
		}
	}
	// The case study: both combinations in every Table 1 column.
	for _, combo := range []icrns.Combo{icrns.ComboCV, icrns.ComboAL} {
		for _, col := range icrns.Columns {
			sys, byName := icrns.Build(combo, col, icrns.DefaultConfig())
			var reqs []*arch.Requirement
			for _, r := range byName {
				reqs = append(reqs, r)
			}
			sort.Slice(reqs, func(i, j int) bool { return reqs[i].Name < reqs[j].Name })
			systems = append(systems, system{"icrns/" + combo.String() + "/" + col.String(), sys, reqs})
		}
	}

	for _, s := range systems {
		cs, err := arch.CompileAll(s.sys, s.reqs, arch.Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, p := range cs.Net.Procs {
			if cap(p.Locations) != len(p.Locations) || cap(p.Edges) != len(p.Edges) {
				t.Errorf("%s: process %s: %d locations in capacity %d, %d edges in capacity %d",
					s.name, p.Name, len(p.Locations), cap(p.Locations), len(p.Edges), cap(p.Edges))
			}
		}
	}
}

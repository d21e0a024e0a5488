package crosscheck

import (
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/icrns"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/symta"
)

// goldenCase is one system whose SymTA/S, MPA and simulation results the
// golden file pins.
type goldenCase struct {
	name string
	sys  *arch.System
	reqs []*arch.Requirement
}

// goldenCases are the five Table 2 rows (the pno column of the case study,
// as icrns.Table2Cell builds them), the case study on a nondeterministic bus
// and with bursty and jittered radio events, a TDMA bus under a bursty
// stream, and one processor under each scheduler.
func goldenCases() []goldenCase {
	var out []goldenCase
	for _, row := range icrns.Table1Rows {
		sys, reqs := icrns.Build(row.Combo, icrns.ColPNO, icrns.DefaultConfig())
		out = append(out, goldenCase{"table2/" + row.Combo.String() + "/" + row.Req, sys,
			[]*arch.Requirement{reqs[row.Req]}})
	}
	caseStudy := func(name string, col icrns.Column, cfg icrns.Config) goldenCase {
		sys, reqs := icrns.Build(icrns.ComboAL, col, cfg)
		return goldenCase{name, sys, []*arch.Requirement{
			reqs[icrns.ReqHandleTMC], reqs[icrns.ReqAddressLookup]}}
	}
	nondetBus := icrns.DefaultConfig()
	nondetBus.Bus = arch.SchedNondet
	out = append(out,
		caseStudy("icrns/nondet-bus", icrns.ColPNO, nondetBus),
		caseStudy("icrns/bur", icrns.ColBUR, icrns.DefaultConfig()),
		caseStudy("icrns/pj", icrns.ColPJ, icrns.RealisticBusConfig()))

	// The TDMA example's system under its bursty control stream.
	sys := arch.NewSystem("tdma-demo")
	bus := sys.AddBus("BUS", 8, arch.SchedTDMA)
	ctrl := sys.AddScenario("control", 2, arch.Bursty(arch.MS(12, 1), arch.MS(36, 1), arch.MS(0, 1)))
	ctrl.Transfer("cmd", bus, 2)
	bulk := sys.AddScenario("bulk", 1, arch.Sporadic(arch.MS(30, 1)))
	bulk.Transfer("chunk", bus, 6)
	bus.TDMA = &arch.TDMAConfig{
		CycleMS: arch.MS(10, 1),
		Slots: []arch.TDMASlot{
			{Scenario: ctrl, StartMS: arch.MS(0, 1), EndMS: arch.MS(3, 1)},
			{Scenario: bulk, StartMS: arch.MS(3, 1), EndMS: arch.MS(10, 1)},
		},
	}
	out = append(out, goldenCase{"tdma/bursty", sys,
		[]*arch.Requirement{arch.EndToEnd("control", ctrl), arch.EndToEnd("bulk", bulk)}})

	// The preemption example's two scenarios under each scheduler, the bulk
	// one jittered and given a second step on another processor, so that
	// jitter propagates between resources.
	for _, sched := range []arch.SchedKind{arch.SchedNondet, arch.SchedFP, arch.SchedFPPreempt} {
		sys := arch.NewSystem("preemption")
		cpu := sys.AddProcessor("CPU", 10, sched)
		out2 := sys.AddProcessor("OUT", 7, sched)
		urgent := sys.AddScenario("urgent", 2, arch.PeriodicUnknownOffset(arch.MS(20, 1)))
		urgent.Compute("isr", cpu, 50000)
		bulk := sys.AddScenario("bulk", 1, arch.PeriodicJitter(arch.MS(50, 1), arch.MS(15, 1)))
		bulk.Compute("batch", cpu, 200000).Compute("emit", out2, 30000)
		out = append(out, goldenCase{"sched/" + sched.String(), sys, []*arch.Requirement{
			arch.EndToEnd("urgent", urgent), arch.EndToEnd("bulk", bulk), arch.Span("emit", bulk, 0, 1)}})
	}
	return out
}

// goldenSim is the simulation campaign of the golden file: short, but long
// enough that every requirement completes activations.
var goldenSim = sim.Options{Seed: 3, HorizonMS: 12000, Replications: 2}

// TestCompositionalGolden pins, digit for digit, what SymTA/S (symta), MPA
// (rtc) and the simulator report on the golden cases: each requirement's
// bound and its per-step parts, symta's fixed-point rounds, and the
// simulator's maximum, mean and percentiles at a fixed seed. The file
// testdata/compositional.golden was written by the analyses as they stood
// before the two compositional methods shared one skeleton and before the
// engines read one timing view of the architecture; a refactor of either
// must leave every line as it is.
func TestCompositionalGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range goldenCases() {
		st, err := symta.Analyze(c.sys, c.reqs)
		if err != nil {
			t.Fatalf("%s: symta: %v", c.name, err)
		}
		mpa, err := rtc.Analyze(c.sys, c.reqs)
		if err != nil {
			t.Fatalf("%s: rtc: %v", c.name, err)
		}
		obs, err := sim.Simulate(c.sys, c.reqs, goldenSim)
		if err != nil {
			t.Fatalf("%s: sim: %v", c.name, err)
		}
		for _, req := range c.reqs {
			s, m, o := st[req.Name], mpa[req.Name], obs[req.Name]
			fmt.Fprintf(&sb, "%s %s symta %s %s rounds=%d\n", c.name, req.Name,
				s.MS.RatString(), ratList(s.PerStepMS), s.Iterations)
			fmt.Fprintf(&sb, "%s %s rtc %s %s\n", c.name, req.Name, m.MS.RatString(), ratList(m.PerStepMS))
			fmt.Fprintf(&sb, "%s %s sim max=%s mean=%s p50=%s p95=%s p99=%s n=%d\n", c.name, req.Name,
				o.MaxMS.RatString(), o.MeanMS.RatString(), o.P50MS.RatString(),
				o.P95MS.RatString(), o.P99MS.RatString(), o.Completed)
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "compositional.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v\ngot:\n%s", err, got)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		var diff []string
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				diff = append(diff, fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, g, w))
			}
		}
		t.Fatalf("results moved from %s:\n%s", path, strings.Join(diff, "\n"))
	}
}

func ratList(rs []*big.Rat) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.RatString()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

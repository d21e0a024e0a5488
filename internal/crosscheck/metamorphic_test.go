package crosscheck

import (
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/symta"
)

// metaCase is a system the time-scaling relation is checked on, built anew
// for each scaling since scaling edits it in place.
type metaCase struct {
	name    string
	horizon int64 // the TA's observation horizon in ms
	build   func(t *testing.T) (*arch.System, []*arch.Requirement)
}

// metaCases are testdata/tiny.json and the systems of examples/preemption
// (one CPU under each scheduler) and examples/tdma (FP and TDMA bus, the
// control stream sporadic and periodic with jitter).
func metaCases() []metaCase {
	cases := []metaCase{{"tiny", 100, func(t *testing.T) (*arch.System, []*arch.Requirement) {
		src, err := os.ReadFile("../../testdata/tiny.json")
		if err != nil {
			t.Fatal(err)
		}
		sys, reqs, err := arch.ParseSystem(src)
		if err != nil {
			t.Fatal(err)
		}
		return sys, reqs
	}}}
	for _, sched := range []arch.SchedKind{arch.SchedNondet, arch.SchedFP, arch.SchedFPPreempt} {
		cases = append(cases, metaCase{"preemption/" + sched.String(), 500, func(*testing.T) (*arch.System, []*arch.Requirement) {
			sys := arch.NewSystem("preemption")
			cpu := sys.AddProcessor("CPU", 10, sched)
			urgent := sys.AddScenario("urgent", 2, arch.PeriodicUnknownOffset(arch.MS(20, 1)))
			urgent.Compute("isr", cpu, 50000)
			bulk := sys.AddScenario("bulk", 1, arch.PeriodicUnknownOffset(arch.MS(50, 1)))
			bulk.Compute("batch", cpu, 200000)
			return sys, []*arch.Requirement{arch.EndToEnd("urgent", urgent), arch.EndToEnd("bulk", bulk)}
		}})
	}
	for _, tdma := range []bool{false, true} {
		for _, jitter := range []bool{false, true} {
			name := fmt.Sprintf("tdma/tdma=%v/jitter=%v", tdma, jitter)
			cases = append(cases, metaCase{name, 300, func(*testing.T) (*arch.System, []*arch.Requirement) {
				sys := arch.NewSystem("tdma-demo")
				bus := sys.AddBus("BUS", 8, arch.SchedFP)
				arrival := arch.Sporadic(arch.MS(12, 1))
				if jitter {
					arrival = arch.PeriodicJitter(arch.MS(12, 1), arch.MS(12, 1))
				}
				ctrl := sys.AddScenario("control", 2, arrival)
				ctrl.Transfer("cmd", bus, 2)
				bulk := sys.AddScenario("bulk", 1, arch.Sporadic(arch.MS(30, 1)))
				bulk.Transfer("chunk", bus, 6)
				if tdma {
					bus.Sched = arch.SchedTDMA
					bus.TDMA = &arch.TDMAConfig{CycleMS: arch.MS(10, 1), Slots: []arch.TDMASlot{
						{Scenario: ctrl, StartMS: arch.MS(0, 1), EndMS: arch.MS(3, 1)},
						{Scenario: bulk, StartMS: arch.MS(3, 1), EndMS: arch.MS(10, 1)},
					}}
				}
				return sys, []*arch.Requirement{arch.EndToEnd("control", ctrl), arch.EndToEnd("bulk", bulk)}
			}})
		}
	}
	return cases
}

// scaleTimes multiplies every time of sys (periods, offsets, jitters,
// minimal separations, TDMA cycles and slots) by k. With work set it
// multiplies instructions and bytes by k too, so that every duration scales
// with them; otherwise it divides MIPS and kbit/s by k, which must make them
// integers.
func scaleTimes(t *testing.T, sys *arch.System, k *big.Rat, work bool) {
	mul := func(r *big.Rat) *big.Rat {
		if r == nil {
			return nil
		}
		return new(big.Rat).Mul(r, k)
	}
	integer := func(v int64, by *big.Rat) int64 {
		r := new(big.Rat).Mul(new(big.Rat).SetInt64(v), by)
		if !r.IsInt() {
			t.Fatalf("%d × %s is not an integer", v, by.RatString())
		}
		return r.Num().Int64()
	}
	inv := new(big.Rat).Inv(k)
	for _, sc := range sys.Scenarios {
		a := &sc.Arrival
		a.PeriodMS, a.OffsetMS, a.JitterMS, a.MinSepMS = mul(a.PeriodMS), mul(a.OffsetMS), mul(a.JitterMS), mul(a.MinSepMS)
		for i := range sc.Steps {
			if work {
				sc.Steps[i].Instructions = integer(sc.Steps[i].Instructions, k)
				sc.Steps[i].Bytes = integer(sc.Steps[i].Bytes, k)
			}
		}
	}
	for _, p := range sys.Processors {
		if !work {
			p.MIPS = integer(p.MIPS, inv)
		}
	}
	for _, b := range sys.Buses {
		if !work {
			b.KBitPerSec = integer(b.KBitPerSec, inv)
		}
		if b.TDMA != nil {
			b.TDMA.CycleMS = mul(b.TDMA.CycleMS)
			for i := range b.TDMA.Slots {
				s := &b.TDMA.Slots[i]
				s.StartMS, s.EndMS = mul(s.StartMS), mul(s.EndMS)
			}
		}
	}
}

// metaRun is every figure the relation speaks about, keyed "engine
// requirement", in milliseconds divided by the scaling, so that a scaled run
// reads as its base run.
type metaRun struct {
	figures map[string]string
	stats   core.Stats
	unit    *big.Rat // one model time unit in ms
}

func runEngines(t *testing.T, c metaCase, k *big.Rat, work bool) metaRun {
	sys, reqs := c.build(t)
	scaleTimes(t, sys, k, work)
	back := func(ms ...*big.Rat) string {
		var s []string
		for _, m := range ms {
			s = append(s, new(big.Rat).Quo(m, k).RatString())
		}
		return strings.Join(s, " ")
	}
	horizon := new(big.Rat).Mul(new(big.Rat).SetInt64(c.horizon), k)
	cs, err := arch.CompileAll(sys, reqs, arch.Options{HorizonMS: horizon.Num().Int64()})
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := metaRun{map[string]string{}, all.Stats, new(big.Rat).SetFrac(big.NewInt(1), cs.Scale)}
	for _, r := range all.Results {
		run.figures["TA "+r.Req.Name] = fmt.Sprintf("%s attained=%v exact=%v beyond=%v", back(r.MS), r.Attained, r.Exact, r.BeyondHorizon)
	}
	st, err := symta.Analyze(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	mpa, err := rtc.Analyze(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	simHorizon := new(big.Rat).Mul(big.NewRat(3000, 1), k)
	obs, err := sim.Simulate(sys, reqs, sim.Options{Seed: 5, HorizonMS: simHorizon.Num().Int64(), Replications: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		s, m, o := st[r.Name], mpa[r.Name], obs[r.Name]
		run.figures["symta "+r.Name] = fmt.Sprintf("%s [%s] rounds=%d", back(s.MS), back(s.PerStepMS...), s.Iterations)
		run.figures["rtc "+r.Name] = fmt.Sprintf("%s [%s]", back(m.MS), back(m.PerStepMS...))
		run.figures["sim "+r.Name] = fmt.Sprintf("max, mean, p50, p95, p99 = %s n=%d", back(o.MaxMS, o.MeanMS, o.P50MS, o.P95MS, o.P99MS), o.Completed)
	}
	return run
}

// TestTimeScaling is metamorphic relation R1 on every engine: a system whose
// times are all multiplied by one factor has its bounds multiplied by it.
//
// (a) Times and work (instructions, bytes) ×k: every duration is ×k, and so
// is every model constant, so the TA explores the same zone graph with its
// constants ×k — the same stored, popped and transition counts — and the TA,
// SymTA/S and MPA bounds are exactly ×k.
//
// (b) Times ÷m, MIPS and kbit/s ×m: every duration is ÷m, and the TA, SymTA/S
// and MPA again report every figure ÷m with the same counts.
//
// The simulator draws offsets and jitters in model time units, so at one
// seed it repeats its campaign only where the model-unit integers are
// unchanged: under (b) when the time unit shrinks by m with the times, as it
// does once some duration stops being a whole number of milliseconds. Under
// (a) with integer times the unit stays 1 ms, its draws differ per k, and the
// relation holds only in distribution.
func TestTimeScaling(t *testing.T) {
	simCompared := 0
	for _, c := range metaCases() {
		t.Run(c.name, func(t *testing.T) {
			base := runEngines(t, c, big.NewRat(1, 1), true)
			if base.stats.Stored > 30000 || base.stats.Truncated {
				t.Fatalf("base sweep too large for tier-1: %s", base.stats)
			}
			for _, s := range []struct {
				k    *big.Rat
				work bool
			}{{big.NewRat(2, 1), true}, {big.NewRat(3, 1), true}, {big.NewRat(1, 2), false}, {big.NewRat(1, 5), false}} {
				got := runEngines(t, c, s.k, s.work)
				unitsKept := new(big.Rat).Mul(base.unit, s.k).Cmp(got.unit) == 0
				if unitsKept {
					simCompared++
				}
				t.Logf("×%s: %s; simulator compared: %v", s.k.RatString(), got.stats, unitsKept)
				for key, want := range base.figures {
					if got.figures[key] != want && (unitsKept || !strings.HasPrefix(key, "sim ")) {
						t.Errorf("×%s: %s = %s, want %s", s.k.RatString(), key, got.figures[key], want)
					}
				}
				g, w := got.stats, base.stats
				if g.Stored != w.Stored || g.Popped != w.Popped || g.Transitions != w.Transitions {
					t.Errorf("×%s: TA %s, want %s", s.k.RatString(), g, w)
				}
			}
		})
	}
	if simCompared == 0 {
		t.Error("no scaling kept the model-unit integers: the simulator was compared nowhere")
	}
}

// TestIndependentScenario is metamorphic relation R3 on the TA, SymTA/S and
// MPA engines: a scenario on a processor of its own, with its own
// requirement, leaves every other requirement's TA WCRT, SymTA/S bound and
// MPA bound unchanged. The simulator is left out, because the added
// scenario's draws shift everyone else's, and so are SymTA/S's round
// counts, because the global iteration runs until the slowest scenario
// settles. The TA's counts are reported, not asserted: the added automata
// multiply the zone graph. Systems whose base sweep stores more than 5,000
// states are skipped, to keep the product small.
func TestIndependentScenario(t *testing.T) {
	for _, c := range metaCases() {
		t.Run(c.name, func(t *testing.T) {
			base := runEngines(t, c, big.NewRat(1, 1), true)
			if base.stats.Stored > 5000 {
				t.Skipf("base sweep stores %d states", base.stats.Stored)
			}
			withIndep := c
			withIndep.build = func(t *testing.T) (*arch.System, []*arch.Requirement) {
				sys, reqs := c.build(t)
				cpu := sys.AddProcessor("INDEP_CPU", 10, arch.SchedFP)
				sc := sys.AddScenario("indep", 1, arch.Periodic(arch.MS(20, 1), arch.MS(1, 1)))
				sc.Compute("indep_op", cpu, 20000)
				return sys, append(reqs, arch.EndToEnd("indep", sc))
			}
			got := runEngines(t, withIndep, big.NewRat(1, 1), true)
			t.Logf("base %s; with the independent scenario %s", base.stats, got.stats)
			if _, ok := got.figures["TA indep"]; !ok {
				t.Fatal("the independent scenario's requirement has no TA figure")
			}
			for key, want := range base.figures {
				if strings.HasPrefix(key, "sim ") {
					continue
				}
				g := got.figures[key]
				if strings.HasPrefix(key, "symta ") {
					g, _, _ = strings.Cut(g, " rounds=")
					want, _, _ = strings.Cut(want, " rounds=")
				}
				if g != want {
					t.Errorf("%s = %s, want %s", key, g, want)
				}
			}
		})
	}
}

// TestObserverIndependence is relation R6 on every metaCase: for each
// requirement, the batched sweep (one observer per requirement in one
// network) and a sweep of the requirement compiled alone agree on the WCRT
// and on the attained, exact and beyond-horizon flags. Observers are pure
// listeners, and this is what makes a witness taken from the batch network's
// sweep a witness of each requirement's WCRT: every batch result's witness
// must end in its observer's seen location with the observer clock's upper
// bound at the WCRT, strictness included. State counts are logged, not
// asserted: every observer adds a clock to the product.
func TestObserverIndependence(t *testing.T) {
	for _, c := range metaCases() {
		t.Run(c.name, func(t *testing.T) {
			sys, reqs := c.build(t)
			copts := arch.Options{HorizonMS: c.horizon}
			cs, err := arch.CompileAll(sys, reqs, copts)
			if err != nil {
				t.Fatal(err)
			}
			all, err := cs.AnalyzeTraced(core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("batch: %s", all.Stats)
			for i, req := range reqs {
				one, err := arch.CompileAll(sys, []*arch.Requirement{req}, copts)
				if err != nil {
					t.Fatal(err)
				}
				alone, err := one.Analyze(core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s alone: %s", req.Name, alone.Stats)
				got, want := all.Results[i], alone.Results[0]
				if got.MS.Cmp(want.MS) != 0 || got.Attained != want.Attained ||
					got.Exact != want.Exact || got.BeyondHorizon != want.BeyondHorizon {
					t.Errorf("%s: batch %s (att=%v exact=%v beyond=%v), alone %s (att=%v exact=%v beyond=%v)",
						req.Name, got.MS.RatString(), got.Attained, got.Exact, got.BeyondHorizon,
						want.MS.RatString(), want.Attained, want.Exact, want.BeyondHorizon)
				}
				if len(got.Witness) == 0 {
					t.Fatalf("%s: the traced batch sweep gave no witness", req.Name)
				}
				bound := dbm.Infinity
				if !got.BeyondHorizon {
					units := new(big.Rat).Mul(got.MS, new(big.Rat).SetInt(cs.Scale))
					if !units.IsInt() {
						t.Fatalf("%s: %s ms is not whole model time units", req.Name, got.MS.RatString())
					}
					if bound = dbm.LT(units.Num().Int64()); got.Attained {
						bound = dbm.LE(units.Num().Int64())
					}
				}
				last := got.Witness[len(got.Witness)-1].State
				if y := last.Zone.Sup(int(cs.Obs[i].Y.ID)); !cs.AtSeen(i)(last) || y != bound {
					t.Errorf("%s: witness ends seen=%v with the observer clock at %v, want seen at %v",
						req.Name, cs.AtSeen(i)(last), y, bound)
				}
			}
		})
	}
}

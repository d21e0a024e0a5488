package icrns

import (
	"math/big"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/symta"
)

// chainSum returns the exact sum of the scenario's step durations — the
// uncontended end-to-end latency.
func chainSum(sc *arch.Scenario) *big.Rat {
	total := new(big.Rat)
	for i := range sc.Steps {
		total.Add(total, sc.Steps[i].DurationMS())
	}
	return total
}

func TestReconstructedHardwareMatchesPaper(t *testing.T) {
	// The calibration argument of the package comment: with the reconstructed
	// Figure 1 parameters, the unloaded chains equal the paper's Table 1
	// values exactly.
	sys, _ := Build(ComboAL, ColPO, DefaultConfig())
	tmc := sys.ScenarioByName("TMC")
	al := sys.ScenarioByName("AL")
	// 1000/11 + 64/9 + 5000/113 + 64/9 + 250/11 ms = 172.106...
	wantTMC, _ := new(big.Rat).SetString("1925354/11187")
	if got := chainSum(tmc); got.Cmp(wantTMC) != 0 {
		t.Errorf("TMC chain = %s (%s ms), want %s", got.RatString(), got.FloatString(3), wantTMC.RatString())
	}
	if s := chainSum(tmc).FloatString(3); s != "172.106" {
		t.Errorf("TMC chain = %s ms, want 172.106 (paper)", s)
	}
	if s := chainSum(al).FloatString(3); s != "79.076" {
		t.Errorf("AL chain = %s ms, want 79.076 (paper's 79.075 truncated)", s)
	}
}

func TestTMCPlusALSynchronousCell(t *testing.T) {
	// Table 1, row "HandleTMC (+ AddressLookup)", column po: with all
	// offsets zero the applications never collide and the WCRT equals the
	// unloaded chain exactly.
	cells, err := Cells(ComboAL, ColPO, []string{ReqHandleTMC}, CellOptions{Cfg: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	res := cells[ReqHandleTMC]
	sys, _ := Build(ComboAL, ColPO, DefaultConfig())
	want := chainSum(sys.ScenarioByName("TMC"))
	if res.MS.Cmp(want) != 0 {
		t.Errorf("TMC+AL po = %s ms, want %s (unloaded chain)",
			res.MS.FloatString(3), want.FloatString(3))
	}
	if !res.Exact || !res.Attained {
		t.Errorf("po cell should be exact and attained: %+v", res)
	}
}

func TestALConstantAcrossColumnsPO_PNO(t *testing.T) {
	// The paper's observation: AddressLookup keeps its unloaded WCRT in
	// every column because priority traffic is never blocked and never
	// queues behind itself.
	want := "79.076"
	for _, col := range []Column{ColPO, ColPNO} {
		cells, err := Cells(ComboAL, col, []string{ReqAddressLookup}, CellOptions{Cfg: DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		res := cells[ReqAddressLookup]
		if got := res.MS.FloatString(3); got != want {
			t.Errorf("AddressLookup %v = %s, want %s", col, got, want)
		}
	}
}

func TestTMCPlusALAsynchronousCell(t *testing.T) {
	// Table 1, row "HandleTMC (+ AddressLookup)", column pno: one
	// DatabaseLookup (44.248) plus one UpdateScreen (22.727) of
	// interference on top of the chain; exact value 239.081 (the paper
	// prints the truncation 239.080).
	cells, err := Cells(ComboAL, ColPNO, []string{ReqHandleTMC}, CellOptions{Cfg: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	res := cells[ReqHandleTMC]
	if got := res.MS.FloatString(3); got != "239.081" {
		t.Errorf("TMC+AL pno = %s ms, want 239.081", got)
	}
}

func TestRealisticBusRaisesAL(t *testing.T) {
	// Ablation: with a realistic non-preemptive bus, a bulk TMC transfer
	// (7.111 ms) can block the AddressLookup request, so its WCRT exceeds
	// the unloaded chain.
	cells, err := Cells(ComboAL, ColPNO, []string{ReqAddressLookup}, CellOptions{Cfg: RealisticBusConfig()})
	if err != nil {
		t.Fatal(err)
	}
	res := cells[ReqAddressLookup]
	floor, _ := new(big.Rat).SetString("79.076")
	if res.MS.Cmp(floor) <= 0 {
		t.Errorf("realistic bus should add blocking: AL pno = %s", res.MS.FloatString(3))
	}
}

func TestColumnsMonotoneForTMC(t *testing.T) {
	// po <= pno and pno <= pj <= bur for the TMC row (+AL): richer event
	// models only add behaviors.
	opts := CellOptions{Cfg: DefaultConfig()}
	var prev *big.Rat
	for _, col := range []Column{ColPO, ColPNO} {
		cells, err := Cells(ComboAL, col, []string{ReqHandleTMC}, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := cells[ReqHandleTMC]
		if prev != nil && res.MS.Cmp(prev) < 0 {
			t.Errorf("column %v decreased the TMC WCRT", col)
		}
		prev = res.MS
	}
}

func TestTable2ToolOrderingAL(t *testing.T) {
	// The theoretical picture of Table 2 on the AddressLookup row:
	// simulation <= exact model checking <= busy-window <= (roughly) RTC;
	// we assert sim <= uppaal <= symta and sim <= uppaal <= mpa.
	cfg := DefaultConfig()
	sys, reqs := Build(ComboAL, ColPNO, cfg)
	req := reqs[ReqAddressLookup]

	cs, err := arch.CompileAll(sys, []*arch.Requirement{req}, arch.Options{HorizonMS: 500})
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := all.Results[0]
	simRes, err := sim.Simulate(sys, []*arch.Requirement{req},
		sim.Options{Seed: 3, HorizonMS: 20000, Replications: 5})
	if err != nil {
		t.Fatal(err)
	}
	symtaRes, err := symta.Analyze(sys, []*arch.Requirement{req})
	if err != nil {
		t.Fatal(err)
	}
	rtcRes, err := rtc.Analyze(sys, []*arch.Requirement{req})
	if err != nil {
		t.Fatal(err)
	}
	if simRes[ReqAddressLookup].MaxMS.Cmp(exact.MS) > 0 {
		t.Errorf("sim %s > exact %s", simRes[ReqAddressLookup].MaxMS.FloatString(3), exact.MS.FloatString(3))
	}
	if symtaRes[ReqAddressLookup].MS.Cmp(exact.MS) < 0 {
		t.Errorf("symta %s < exact %s", symtaRes[ReqAddressLookup].MS.FloatString(3), exact.MS.FloatString(3))
	}
	if rtcRes[ReqAddressLookup].MS.Cmp(exact.MS) < 0 {
		t.Errorf("rtc %s < exact %s", rtcRes[ReqAddressLookup].MS.FloatString(3), exact.MS.FloatString(3))
	}
}

func TestCellFallbackProducesLowerBound(t *testing.T) {
	// A deliberately tiny budget forces the structured-testing fallback;
	// the result must be a non-exact lower bound below the true value. A
	// profile-enabled monitor must see both sweeps, the truncated one and the
	// fallback.
	mon := &core.Monitor{}
	mon.EnableProfile(core.ProfileConfig{})
	cells, err := Cells(ComboAL, ColPNO, []string{ReqHandleTMC}, CellOptions{
		Cfg: DefaultConfig(), MaxStates: 300, FallbackStates: 2000, Seed: 7, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	res := cells[ReqHandleTMC]
	if res.Exact {
		t.Error("budgeted cell must not be exact")
	}
	if explorations := exploreSpans(mon); explorations != 2 {
		t.Errorf("truncated cell recorded %d explore spans, want 2 (exhaustive sweep, rdf fallback)", explorations)
	}
	// Exact truth: the unloaded chain plus one DatabaseLookup and one
	// UpdateScreen of interference.
	sys, _ := Build(ComboAL, ColPNO, DefaultConfig())
	truth := chainSum(sys.ScenarioByName("TMC"))
	truth.Add(truth, new(big.Rat).SetFrac64(5000, 113))
	truth.Add(truth, new(big.Rat).SetFrac64(250, 11))
	if res.MS.Cmp(truth) > 0 {
		t.Errorf("lower bound %s exceeds the true WCRT %s",
			res.MS.FloatString(4), truth.FloatString(4))
	}
	if res.MS.Sign() <= 0 {
		t.Error("fallback should observe at least one completion")
	}
}

func TestBuildShape(t *testing.T) {
	sys, reqs := Build(ComboCV, ColPO, DefaultConfig())
	if sys.ScenarioByName("CV") == nil || sys.ScenarioByName("TMC") == nil {
		t.Fatal("CV combo must contain CV and TMC")
	}
	if len(reqs) != 3 {
		t.Errorf("CV combo has %d requirements, want 3 (TMC, K2A, A2V)", len(reqs))
	}
	if reqs[ReqK2A].ToStep != 2 || reqs[ReqA2V].FromStep != 2 || reqs[ReqA2V].ToStep != 4 {
		t.Errorf("K2A/A2V spans wrong: %+v %+v", reqs[ReqK2A], reqs[ReqA2V])
	}
	sys2, reqs2 := Build(ComboAL, ColBUR, DefaultConfig())
	if sys2.ScenarioByName("AL") == nil {
		t.Fatal("AL combo must contain AL")
	}
	if reqs2[ReqAddressLookup] == nil {
		t.Fatal("AL combo must expose the AddressLookup requirement")
	}
	if got := sys2.ScenarioByName("TMC").Arrival.Kind; got != arch.KindBursty {
		t.Errorf("bur column TMC arrival = %v, want bursty", got)
	}
	if got := sys2.ScenarioByName("AL").Arrival.Kind; got != arch.KindSporadic {
		t.Errorf("bur column AL arrival = %v, want sporadic", got)
	}
}

func TestFormatters(t *testing.T) {
	cells, err := Cells(ComboAL, ColPO, []string{ReqAddressLookup}, CellOptions{Cfg: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	res := cells[ReqAddressLookup]
	grid := map[Row]map[Column]arch.WCRTResult{}
	for _, row := range Table1Rows {
		grid[row] = map[Column]arch.WCRTResult{}
		for _, col := range Columns {
			grid[row][col] = res
		}
	}
	if s := FormatTable1(grid); len(s) == 0 {
		t.Error("FormatTable1 empty")
	}
	grid2 := map[Row]map[Table2Tool]string{}
	for _, row := range Table1Rows {
		grid2[row] = map[Table2Tool]string{}
		for _, tool := range Table2Tools {
			grid2[row][tool] = "1.000"
		}
	}
	if s := FormatTable2(grid2); len(s) == 0 {
		t.Error("FormatTable2 empty")
	}
	for _, c := range Columns {
		if c.String() == "?col" {
			t.Error("column stringer incomplete")
		}
	}
	for _, tl := range Table2Tools {
		if tl.String() == "?tool" {
			t.Error("tool stringer incomplete")
		}
	}
	if ComboCV.String() == ComboAL.String() {
		t.Error("combo strings must differ")
	}
}

func TestVerifyDeadlines(t *testing.T) {
	// Under the synchronous environment every requirement meets its
	// Figure 2/3 deadline except A2V, whose 50 ms budget is missed by both
	// the paper's value (41.796 — met) — ours is 35.919, also met.
	verdicts, err := Verify(ComboAL, ColPO, CellOptions{Cfg: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if !verdicts[ReqHandleTMC] {
		t.Error("HandleTMC must meet its 1s deadline under po")
	}
	if !verdicts[ReqAddressLookup] {
		t.Error("AddressLookup must meet its 200ms budget under po")
	}
}

func TestVerifyDeadlineViolationHasTrace(t *testing.T) {
	sys, reqs := Build(ComboAL, ColPO, DefaultConfig())
	// An impossible 10ms deadline for AddressLookup must be refuted with a
	// trace.
	ok, trace, err := arch.VerifyDeadline(sys, reqs[ReqAddressLookup],
		arch.MS(10, 1), arch.Options{HorizonMS: 500}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("10ms AddressLookup deadline cannot hold")
	}
	if trace == "" {
		t.Error("violation must carry a counterexample trace")
	}
}

// TestWitnessTraceForCheapCell drives what `icrns -cell ... -witness` runs:
// the cell and a trace realizing its result, both from the cell's one
// exploration.
func TestWitnessTraceForCheapCell(t *testing.T) {
	mon := &core.Monitor{}
	mon.EnableProfile(core.ProfileConfig{})
	opts := CellOptions{Cfg: DefaultConfig(), Monitor: mon}
	res, trace, err := Witness(Table1Rows[4], ColPO, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MS.FloatString(3) != "79.076" || !res.Exact {
		t.Errorf("cell WCRT = %s, want 79.076", res)
	}
	for _, step := range []string{"HandleKeyPress", "DatabaseLookup", "UpdateScreen", "OBS.watch->seen"} {
		if !strings.Contains(trace, step) {
			t.Errorf("critical-instant trace missing %q", step)
		}
	}
	if explorations := exploreSpans(mon); explorations != 1 {
		t.Errorf("cell with its witness ran %d explorations, want 1", explorations)
	}
}

// TestWitnessTraceForTruncatedCell: a "> bound" cell gets a trace too, from
// the run its lower bound came from. CV·pno's HandleTMC at 20,000 states is
// truncated under breadth-first search and under its randomized depth-first
// fallback, and Witness reports the cell Cells reports.
func TestWitnessTraceForTruncatedCell(t *testing.T) {
	opts := CellOptions{Cfg: DefaultConfig(), MaxStates: 20000, FallbackStates: 20000, Seed: 1}
	res, trace, err := Witness(Table1Rows[0], ColPNO, opts)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := Cells(ComboCV, ColPNO, []string{ReqHandleTMC}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := cells[ReqHandleTMC]
	got, wantStats := res.Stats, want.Stats
	got.Duration, wantStats.Duration = 0, 0
	if res.String() != want.String() || got != wantStats {
		t.Errorf("Witness reports %s (%s), Cells %s (%s)", res, res.Stats, want, want.Stats)
	}
	if !strings.HasPrefix(res.String(), "> ") {
		t.Fatalf("cell = %s, want a lower bound", res)
	}
	lines := strings.Split(strings.TrimSpace(trace), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, "OBS.seen") {
		t.Errorf("trace of %d steps does not end at the observer's seen location: %s", len(lines), last)
	}
}

// TestTable2POOSLCellWithoutActivations pins the simulation column of a row
// whose horizon ends before any activation completes: it reports none, not
// an observed maximum of 0.000 ms.
func TestTable2POOSLCellWithoutActivations(t *testing.T) {
	opts := Table2Options{
		Cell: CellOptions{Cfg: DefaultConfig()},
		Sim:  sim.Options{Seed: 1, HorizonMS: 5, Replications: 1},
	}
	cell, err := Table2Cell(Table1Rows[0], ToolPOOSL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := "none done (n=0)"; cell != want {
		t.Errorf("a 5 ms horizon reads %q in the POOSL column, want %q", cell, want)
	}
}

func TestTable2CellVariants(t *testing.T) {
	opts := Table2Options{
		Cell: CellOptions{Cfg: DefaultConfig()},
		Sim:  sim.Options{Seed: 1, HorizonMS: 5000, Replications: 2},
	}
	for _, tool := range Table2Tools {
		cell, err := Table2Cell(Table1Rows[4], tool, opts)
		if err != nil {
			t.Fatalf("tool %v: %v", tool, err)
		}
		if cell == "" {
			t.Errorf("tool %v produced an empty cell", tool)
		}
	}
}

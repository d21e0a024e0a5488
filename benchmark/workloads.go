package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/benchmark/expected"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/icrns"
	"repro/internal/ta"
	"repro/internal/wire"
)

// sizing fixes how much work each workload's unit does. The benchmark runs
// at fullSize; the tier-1 smoke test runs every path at smokeSize.
type sizing struct {
	table1States int // MaxStates = FallbackStates of every Table 1 cell
	table1Exact  int // exact cells the budget must yield (0 = unchecked)
	chainN       int // scenarios of the archchain system
	chainStored  int // pinned sequential state count (0 = unchecked)
	fischerN     int // Fischer processes
	fischerStore int // pinned state count (0 = unchecked)
	variants     int // distinct variant models
	variantBlock int // analyses per variants unit
	servePool    int // distinct submissions the hit class redraws from
	hitJobs      int // traced pass: hit-class jobs per serve run
	sweepJobs    int // traced pass: sweep-class jobs per serve run
	fleetJobs    int // traced pass: jobs replayed through the 3-node fleet
}

var (
	fullSize = sizing{table1States: 10000, table1Exact: expected.Table1Exact,
		chainN: 10, chainStored: expected.ArchChainStored,
		fischerN: 5, fischerStore: expected.Fischer5Stored,
		variants: 20000, variantBlock: 100, servePool: 64, hitJobs: 2000, sweepJobs: 30, fleetJobs: 200}
	smokeSize = sizing{table1States: 100, chainN: 6, fischerN: 3,
		variants: 200, variantBlock: 20, servePool: 8, hitJobs: 20, sweepJobs: 3, fleetJobs: 12}
)

// unitResult is what one unit of work reports.
type unitResult struct {
	// dur is the wall time from model text (or parameters) in to verdict
	// bytes out. Checking the verdict happens after and is not timed.
	dur time.Duration
	// verdicts is the number of analyses the unit answered.
	verdicts int
	// stats sums the exploration effort the verdict bytes report.
	stats wire.Stats
	// bytes is the size of the encoded verdicts.
	bytes int
}

// instance is one opened workload: inputs generated, program booted.
type instance interface {
	// unit runs the i-th unit and checks its verdicts. An error is a failed
	// unit: an analysis error, a refusal, or a wrong verdict.
	unit(i int, tr *tracer) (unitResult, error)
	// layers adds the workload's own per-layer metrics after a traced pass:
	// counts, ratios and kernels read through the program's public
	// read-outs, and figures that need more than span self times.
	layers(m map[string]float64, tp *tracedPass) error
	close() error
}

// workload is one named set of inputs. open generates them from the seed and
// boots whatever the program needs; the expected answers were computed
// before, outside every timing.
type workload interface {
	open() (instance, error)
}

// workloadDef registers a workload under its final name.
type workloadDef struct {
	name string
	why  string
	new  func(seed int64, sz sizing) (workload, error)
}

var workloadDefs = []workloadDef{
	{"table1", "the paper's headline grid: exhaustive, truncated and randomized sweeps over all five event models at 12 clocks; every layer does a little, core most",
		newTable1},
	{"archchain", "10 known-offset scenarios on one nondeterministic CPU: 22-clock zones, low branching, so dbm closure, extrapolation and packing dominate and the store leaves cache",
		newArchChain},
	{"fischer", "Fischer mutual exclusion, 5 processes, as .ta text: 6-clock zones, high branching, so successors, hashing, interning and store admission dominate and dbm does little",
		newFischer},
	{"variants", "20,000 distinct seeded small models (arch JSON and .ta): exploration is a few dozen states, so parsing, compilation, index and checker construction and encoding are the work",
		newVariants},
	{"serve_cold", "closed loop, one client over loopback HTTP submitting never-seen models: every cache is bypassed, so parse, compile, sweep and encode all run behind the job protocol",
		newServe},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// --- table1 ---

type table1Load struct {
	opts icrns.CellOptions
	want *expected.Table1
}

func newTable1(seed int64, sz sizing) (workload, error) {
	want, err := expected.NewTable1(sz.table1Exact)
	if err != nil {
		return nil, err
	}
	return &table1Load{want: want, opts: icrns.CellOptions{Cfg: icrns.DefaultConfig(),
		MaxStates: sz.table1States, FallbackStates: sz.table1States, Seed: seed, Workers: 1}}, nil
}

func (w *table1Load) open() (instance, error) { return &table1Inst{table1Load: w}, nil }

type table1Inst struct {
	*table1Load
	lastExact int
}

// table1Groups lists the ten (combination, column) sweeps of the grid in
// icrns.Table1's own order, with the rows each one answers.
type table1Group struct {
	combo icrns.Combo
	col   icrns.Column
	rows  []icrns.Row
}

func table1Groups() []table1Group {
	var groups []table1Group
	for _, col := range icrns.Columns {
		for _, combo := range []icrns.Combo{icrns.ComboCV, icrns.ComboAL} {
			g := table1Group{combo: combo, col: col}
			for _, row := range icrns.Table1Rows {
				if row.Combo == combo {
					g.rows = append(g.rows, row)
				}
			}
			groups = append(groups, g)
		}
	}
	return groups
}

var (
	comboKeys = map[icrns.Combo]string{icrns.ComboCV: "cv", icrns.ComboAL: "al"}
	colKeys   = map[icrns.Column]string{icrns.ColPO: "po", icrns.ColPNO: "pno",
		icrns.ColSP: "sp", icrns.ColPJ: "pj", icrns.ColBUR: "bur"}
)

func (g table1Group) key() string { return comboKeys[g.combo] + "_" + colKeys[g.col] }

// wireCell is one encoded Table 1 cell.
type wireCell struct {
	Row   string     `json:"row"`
	Col   string     `json:"col"`
	WCRT  wire.WCRT  `json:"wcrt"`
	Stats wire.Stats `json:"stats"`
}

func (in *table1Inst) unit(_ int, tr *tracer) (unitResult, error) {
	t0 := time.Now()
	endUnit := tr.begin(rootSpan)
	var grid map[icrns.Row]map[icrns.Column]arch.WCRTResult
	var err error
	if tr == nil {
		grid, err = icrns.Table1(in.opts)
	} else {
		grid, err = tracedTable1(in.opts, tr)
	}
	if err != nil {
		endUnit()
		return unitResult{}, err
	}
	endEnc := tr.begin("wire.encode")
	cells := make([]wireCell, 0, 25)
	for _, row := range icrns.Table1Rows {
		for _, col := range icrns.Columns {
			r := grid[row][col]
			cells = append(cells, wireCell{Row: row.Label, Col: colKeys[col],
				WCRT: wire.FromWCRT(r), Stats: wire.FromStats(r.Stats)})
		}
	}
	out, err := json.Marshal(cells)
	endEnc()
	endUnit()
	res := unitResult{dur: time.Since(t0), verdicts: 1, bytes: len(out)}
	if err != nil {
		return res, err
	}

	var decoded []wireCell
	if err := json.Unmarshal(out, &decoded); err != nil {
		return res, err
	}
	if len(decoded) != len(cells) {
		return res, fmt.Errorf("decoded %d cells, encoded %d", len(decoded), len(cells))
	}
	got := map[icrns.Row]map[icrns.Column]wire.WCRT{}
	in.lastExact = 0
	// The cells of one (combination, column) group share the Stats of their
	// one sweep unless a fallback run replaced them: count each sweep once
	// (two sweeps never report the same duration to the nanosecond).
	var counted []wire.Stats
	i := 0
	for _, row := range icrns.Table1Rows {
		got[row] = map[icrns.Column]wire.WCRT{}
		for _, col := range icrns.Columns {
			c := decoded[i]
			i++
			got[row][col] = c.WCRT
			if c.WCRT.Exact {
				in.lastExact++
			}
			if !containsStats(counted, c.Stats) {
				counted = append(counted, c.Stats)
				addStats(&res.stats, c.Stats)
			}
		}
	}
	return res, in.want.Check(got)
}

// tracedTable1 spells icrns.Table1 out as its ten Cells calls, so that each
// sweep group is a span.
func tracedTable1(opts icrns.CellOptions, tr *tracer) (map[icrns.Row]map[icrns.Column]arch.WCRTResult, error) {
	grid := map[icrns.Row]map[icrns.Column]arch.WCRTResult{}
	for _, row := range icrns.Table1Rows {
		grid[row] = map[icrns.Column]arch.WCRTResult{}
	}
	for _, g := range table1Groups() {
		names := make([]string, len(g.rows))
		for i, r := range g.rows {
			names[i] = r.Req
		}
		end := tr.begin("icrns.Cells." + g.key())
		cells, err := icrns.Cells(g.combo, g.col, names, opts)
		end()
		if err != nil {
			return nil, err
		}
		for _, r := range g.rows {
			grid[r][g.col] = cells[r.Req]
		}
	}
	return grid, nil
}

func containsStats(seen []wire.Stats, s wire.Stats) bool {
	for _, o := range seen {
		if o == s {
			return true
		}
	}
	return false
}

func addStats(sum *wire.Stats, s wire.Stats) {
	sum.Stored += s.Stored
	sum.Popped += s.Popped
	sum.Transitions += s.Transitions
	sum.Deadlocks += s.Deadlocks
	sum.DurationNS += s.DurationNS
}

func (in *table1Inst) close() error { return nil }

// --- archchain ---

type archChainLoad struct {
	model  []byte
	names  []string
	want   []expected.Sandwich
	stored int // pinned sequential count, 0 = unchecked
}

func newArchChain(_ int64, sz sizing) (workload, error) {
	w := &archChainLoad{model: archChainJSON(sz.chainN), stored: sz.chainStored}
	// The brackets come from the builder API, not from the JSON text under
	// test, so a parser fault cannot also corrupt the expected answer. They
	// are computed once the system is complete: a bound over a partial
	// system would miss the later scenarios' interference.
	sys := arch.NewSystem("archchain")
	cpu := sys.AddProcessor("CPU", 10, arch.SchedNondet)
	for i := 0; i < sz.chainN; i++ {
		sc := sys.AddScenario(fmt.Sprintf("s%d", i), i+1,
			arch.Periodic(arch.MS(int64(40+40*(i%2)), 1), arch.MS(int64(3*i), 1)))
		sc.Compute(fmt.Sprintf("op%d", i), cpu, 45000)
	}
	for i, sc := range sys.Scenarios {
		req := arch.EndToEnd(fmt.Sprintf("r%d", i), sc)
		sw, err := expected.NewSandwich(sys, req, true)
		if err != nil {
			return nil, err
		}
		w.names = append(w.names, req.Name)
		w.want = append(w.want, sw)
	}
	return w, nil
}

func (w *archChainLoad) open() (instance, error) { return &archChainInst{archChainLoad: w}, nil }

type archChainInst struct {
	*archChainLoad
}

func (in *archChainInst) unit(_ int, tr *tracer) (unitResult, error) {
	out, res, err := archAnalysis(in.model, arch.Options{HorizonMS: archChainHorizonMS},
		core.Options{Workers: 1}, tr)
	if err != nil {
		return res, err
	}
	var resp wire.ArchResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return res, err
	}
	res.stats = resp.Stats
	if err := expected.CheckArch(resp, in.names, in.want); err != nil {
		return res, err
	}
	if in.stored != 0 && resp.Stats.Stored != in.stored {
		return res, fmt.Errorf("archchain stored %d states, pinned %d", resp.Stats.Stored, in.stored)
	}
	return res, nil
}

func (in *archChainInst) close() error { return nil }

// archAnalysis is one architecture analysis as archcheck -json and the
// service run it: JSON text → ParseSystem → CompileAll → Analyze → wire →
// JSON bytes. With a tracer, Analyze is spelled out through the compiled
// set's exported fields so checker construction and the sweep are separate
// spans.
func archAnalysis(model []byte, copts arch.Options, opts core.Options, tr *tracer) ([]byte, unitResult, error) {
	t0 := time.Now()
	endUnit := tr.begin(rootSpan)
	defer endUnit()
	fail := func(err error) ([]byte, unitResult, error) {
		return nil, unitResult{dur: time.Since(t0), verdicts: 1}, err
	}

	end := tr.begin("arch.ParseSystem")
	sys, reqs, err := arch.ParseSystem(model)
	end()
	if err != nil {
		return fail(err)
	}
	end = tr.begin("arch.CompileAll")
	cs, err := arch.CompileAll(sys, reqs, copts)
	end()
	if err != nil {
		return fail(err)
	}
	var all *arch.AllResult
	if tr == nil {
		all, err = cs.Analyze(opts)
	} else {
		all, err = tracedAnalyze(cs, opts, tr)
	}
	if err != nil {
		return fail(err)
	}
	end = tr.begin("wire.encode")
	out, err := json.Marshal(wire.FromAllResult(all))
	end()
	if err != nil {
		return fail(err)
	}
	return out, unitResult{dur: time.Since(t0), verdicts: 1, bytes: len(out)}, nil
}

// tracedAnalyze re-spells arch.CompiledSet.Analyze with a span around
// core.NewChecker and one around Checker.RunQueries.
func tracedAnalyze(cs *arch.CompiledSet, opts core.Options, tr *tracer) (*arch.AllResult, error) {
	end := tr.begin("core.NewChecker")
	checker, err := core.NewChecker(cs.Net)
	end()
	if err != nil {
		return nil, err
	}
	sups := make([]*core.SupClockQuery, len(cs.Reqs))
	queries := make([]core.Query, len(cs.Reqs))
	for i := range cs.Reqs {
		sups[i] = core.NewSupClockQuery(cs.Obs[i].Y.ID, cs.AtSeen(i))
		queries[i] = sups[i]
	}
	end = tr.begin("core.RunQueries")
	stats, err := checker.RunQueries(opts, queries...)
	end()
	if err != nil {
		return nil, err
	}
	out := &arch.AllResult{Results: make([]arch.WCRTResult, len(cs.Reqs)), Stats: stats}
	for i, req := range cs.Reqs {
		sup := sups[i].Result
		if !sup.Seen && !sup.Truncated {
			return nil, fmt.Errorf("requirement %s: no measured response is reachable", req.Name)
		}
		res := arch.WCRTResult{Req: req, Stats: stats}
		if sup.Unbounded {
			res.MS = cs.UnitsToMS(cs.Horizons[i])
			res.BeyondHorizon = true
		} else {
			res.MS = cs.UnitsToMS(sup.Max.Value())
			res.Attained = sup.Max.Weak()
			res.Exact = !sup.Truncated
		}
		out.Results[i] = res
	}
	return out, nil
}

// --- fischer ---

type fischerLoad struct {
	src                   string
	writeBound, waitConst int64
	stored                int
}

func newFischer(_ int64, sz sizing) (workload, error) {
	return &fischerLoad{src: fischerTA("fischer", sz.fischerN, 2, 2), writeBound: 2, waitConst: 2,
		stored: sz.fischerStore}, nil
}

func (w *fischerLoad) open() (instance, error) { return &fischerInst{fischerLoad: w}, nil }

type fischerInst struct{ *fischerLoad }

func (in *fischerInst) unit(_ int, tr *tracer) (unitResult, error) {
	out, res, err := taAnalysis(in.src, fischerQueries(), core.Options{Workers: 1}, tr)
	if err != nil {
		return res, err
	}
	var resp wire.TAResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return res, err
	}
	res.stats = resp.Stats
	if err := expected.CheckFischer(resp, in.writeBound, in.waitConst); err != nil {
		return res, err
	}
	if in.stored != 0 && resp.Stats.Stored != in.stored {
		return res, fmt.Errorf("fischer stored %d states, pinned %d", resp.Stats.Stored, in.stored)
	}
	return res, nil
}

func (in *fischerInst) close() error { return nil }

// taAnalysis is one textual timed-automata analysis as tacheck -json and the
// service run it: .ta text → ParseTAModel → NewTARun → NewChecker →
// RunQueries → Response → JSON bytes. With a tracer the parse goes through
// ta.ParseWithHook, whose hook fires between parsing and Finalize, so the
// two are separate spans (the query set has no sup clock, so the hook has
// nothing else to do and the parse is the same).
func taAnalysis(src string, specs []wire.TAQuery, opts core.Options, tr *tracer) ([]byte, unitResult, error) {
	t0 := time.Now()
	endUnit := tr.begin(rootSpan)
	defer endUnit()
	fail := func(err error) ([]byte, unitResult, error) {
		return nil, unitResult{dur: time.Since(t0), verdicts: 1}, err
	}

	var net *ta.Network
	var err error
	if tr == nil {
		net, err = wire.ParseTAModel(src, specs, 0)
	} else {
		start := time.Now()
		var parsed time.Time
		net, err = ta.ParseWithHook(src, func(*ta.Network) error { parsed = time.Now(); return nil })
		if err == nil {
			tr.record("ta.parse", start, parsed)
			tr.record("ta.finalize_index", parsed, time.Now())
		}
	}
	if err != nil {
		return fail(err)
	}
	end := tr.begin("wire.NewTARun")
	run, err := wire.NewTARun(net, specs)
	end()
	if err != nil {
		return fail(err)
	}
	end = tr.begin("core.NewChecker")
	checker, err := core.NewChecker(net)
	end()
	if err != nil {
		return fail(err)
	}
	end = tr.begin("core.RunQueries")
	stats, err := checker.RunQueries(opts, run.Queries()...)
	end()
	if err != nil {
		return fail(err)
	}
	end = tr.begin("wire.encode")
	out, err := json.Marshal(run.Response(stats))
	end()
	if err != nil {
		return fail(err)
	}
	return out, unitResult{dur: time.Since(t0), verdicts: 1, bytes: len(out)}, nil
}

// --- variants ---

type variantsLoad struct {
	seed  int64
	n     int
	block int
}

func newVariants(seed int64, sz sizing) (workload, error) {
	return &variantsLoad{seed: seed, n: sz.variants, block: sz.variantBlock}, nil
}

func (w *variantsLoad) open() (instance, error) {
	return &variantsInst{variantsLoad: w, models: genVariants(w.seed, w.n)}, nil
}

type variantsInst struct {
	*variantsLoad
	models []variant
}

// unit analyses one block of consecutive models. The block, not the single
// ~0.1 ms analysis, is the timed unit: arch and .ta models cost different
// amounts, and a median over single analyses would sit in the gap between
// the two modes and jump with the noise.
func (in *variantsInst) unit(i int, tr *tracer) (unitResult, error) {
	var res unitResult
	outs := make([][]byte, in.block)
	first := i * in.block
	for k := range outs {
		v := in.models[(first+k)%len(in.models)]
		var one unitResult
		var err error
		if v.kind == "arch" {
			outs[k], one, err = archAnalysis([]byte(v.model), arch.Options{HorizonMS: 100}, core.Options{Workers: 1}, tr)
		} else {
			outs[k], one, err = taAnalysis(v.model, fischerQueries(), core.Options{Workers: 1}, tr)
		}
		res.dur += one.dur
		res.verdicts++
		res.bytes += one.bytes
		if err != nil {
			return res, err
		}
	}
	for k, out := range outs {
		v := in.models[(first+k)%len(in.models)]
		var st wire.Stats
		if v.kind == "arch" {
			var resp wire.ArchResponse
			if err := json.Unmarshal(out, &resp); err != nil {
				return res, err
			}
			if err := expected.CheckExactMS(resp, v.wantMS); err != nil {
				return res, err
			}
			st = resp.Stats
		} else {
			var resp wire.TAResponse
			if err := json.Unmarshal(out, &resp); err != nil {
				return res, err
			}
			if err := expected.CheckFischer(resp, v.writeBound, v.waitConst); err != nil {
				return res, err
			}
			st = resp.Stats
		}
		if st.Stored > expected.VariantMaxStored {
			return res, fmt.Errorf("variant %d stored %d states, above the bound %d", first+k, st.Stored, expected.VariantMaxStored)
		}
		addStats(&res.stats, st)
	}
	return res, nil
}

func (in *variantsInst) close() error { return nil }

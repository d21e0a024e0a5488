package icrns

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/symta"
)

// Row identifies one Table 1 / Table 2 row: a requirement analyzed in a
// specific application combination.
type Row struct {
	Req   string
	Combo Combo
	Label string
}

// Table1Rows lists the five rows of the paper's Table 1, in order.
var Table1Rows = []Row{
	{ReqHandleTMC, ComboCV, "HandleTMC (+ ChangeVolume)"},
	{ReqHandleTMC, ComboAL, "HandleTMC (+ AddressLookup)"},
	{ReqK2A, ComboCV, "K2A (ChangeVolume + HandleTMC)"},
	{ReqA2V, ComboCV, "A2V (ChangeVolume + HandleTMC)"},
	{ReqAddressLookup, ComboAL, "AddressLookup (+ HandleTMC)"},
}

// HorizonMS returns a sufficient observation horizon per requirement.
func HorizonMS(req string) int64 {
	switch req {
	case ReqHandleTMC:
		return 1500
	case ReqAddressLookup:
		return 500
	default: // K2A, A2V
		return 250
	}
}

// CellOptions tunes one WCRT computation.
type CellOptions struct {
	Cfg Config
	// MaxStates caps the exhaustive exploration; 0 = unlimited.
	MaxStates int
	// FallbackStates, when an exhaustive sweep is truncated, bounds ONE
	// randomized depth-first "structured testing" run of the network that
	// sweep explored — the paper's df/rdf mode. The budget is per truncated
	// sweep, shared by every requirement the sweep measures, not per cell. A
	// run that stays under it has explored the whole space and yields exact
	// values; one that reaches it yields lower bounds. 0 disables the
	// fallback.
	FallbackStates int
	// Seed feeds the randomized fallback search.
	Seed int64
	// Workers selects nothing: every cell, truncated "> bound" ones
	// included, is the same at any value (core.Options.Workers). The field
	// stays for callers that still set it.
	Workers int
	// MaxBytes bounds each exploration's zone memory; exceeding it fails the
	// cell with core.ErrMemoryBudget instead of exhausting the host. Unlike
	// MaxStates there is no degraded answer past this bound — memory is a
	// hard resource. 0 = unbounded.
	MaxBytes int64
	// Monitor, when set, observes every exploration these options feed — the
	// -profile-out hookup. A profile-enabled monitor records one explore span
	// per (combination, column) sweep and a second one when that sweep is
	// truncated and falls back, however many requirements it carries.
	Monitor *core.Monitor
}

// coreOpts maps the shared exploration knobs onto engine options.
func (o CellOptions) coreOpts() core.Options {
	return core.Options{MaxStates: o.MaxStates, MaxBytes: o.MaxBytes, Monitor: o.Monitor}
}

// fallbackOpts are the engine options of the structured-testing fallback a
// truncated sweep gets: the shared knobs (memory bound, monitor) with the
// randomized depth-first order, its seed and its own state cap on top.
func (o CellOptions) fallbackOpts() core.Options {
	fb := o.coreOpts()
	fb.Order, fb.Seed, fb.MaxStates = core.RDFS, o.Seed, o.FallbackStates
	return fb
}

// batchHorizons is the per-requirement horizon rule shared by every batch
// compilation of the case study.
var batchHorizons = func(r *arch.Requirement) int64 { return HorizonMS(r.Name) }

// Cells computes the Table 1 cells of several requirements under one
// (combination, column) pair from a SINGLE compilation and a SINGLE
// exploration: one measuring observer per requirement in one network
// (arch.CompileAll), one supremum query per observer on one sweep
// (CompiledSet.Analyze). When that sweep is truncated and
// opts.FallbackStates > 0, ONE randomized depth-first run of the same
// compiled network follows — every observer is a pure listener, so one path
// measures all the requirements at once. A fallback that finishes has explored
// the whole space and its exact results replace the sweep's; one that is
// truncated too leaves each requirement the larger of its two lower bounds,
// with the Stats of the run the bound came from.
func Cells(combo Combo, col Column, reqNames []string, opts CellOptions) (map[string]arch.WCRTResult, error) {
	_, out, err := cells(combo, col, reqNames, opts, false)
	return out, err
}

// cells is Cells with the compiled set kept; traced runs the sweep and its
// fallback with AnalyzeTraced, so each result carries the trace of the run
// it came from.
func cells(combo Combo, col Column, reqNames []string, opts CellOptions, traced bool) (*arch.CompiledSet, map[string]arch.WCRTResult, error) {
	sys, reqs := Build(combo, col, opts.Cfg)
	ordered := make([]*arch.Requirement, len(reqNames))
	for i, name := range reqNames {
		if ordered[i] = reqs[name]; ordered[i] == nil {
			return nil, nil, fmt.Errorf("icrns: requirement %s not in combo %v", name, combo)
		}
	}
	cs, err := arch.CompileAll(sys, ordered, arch.Options{HorizonMSFor: batchHorizons})
	if err != nil {
		return nil, nil, err
	}
	analyze := cs.Analyze
	if traced {
		analyze = cs.AnalyzeTraced
	}
	all, err := analyze(opts.coreOpts())
	if err != nil {
		return nil, nil, err
	}
	results := all.Results
	if all.Stats.Truncated && opts.FallbackStates > 0 {
		fb, err := analyze(opts.fallbackOpts())
		if err != nil {
			return nil, nil, err
		}
		if !fb.Stats.Truncated {
			results = fb.Results
		} else {
			for i, res := range fb.Results {
				if res.MS.Cmp(results[i].MS) > 0 {
					results[i] = res
				}
			}
		}
	}
	out := make(map[string]arch.WCRTResult, len(ordered))
	for i, req := range ordered {
		out[req.Name] = results[i]
	}
	return cs, out, nil
}

// sweepColumn answers every Table 1 row under col with one Cells call per
// application combination — one compilation and one exploration for all the
// rows of a (combination, column) group — and hands each row's result to put.
// Combinations run in the order of their first row, so a row with a new
// combination is computed rather than silently dropped.
func sweepColumn(col Column, opts CellOptions, put func(Row, arch.WCRTResult)) error {
	var combos []Combo
	names := map[Combo][]string{}
	for _, row := range Table1Rows {
		if names[row.Combo] == nil {
			combos = append(combos, row.Combo)
		}
		names[row.Combo] = append(names[row.Combo], row.Req)
	}
	for _, combo := range combos {
		cells, err := Cells(combo, col, names[combo], opts)
		if err != nil {
			return fmt.Errorf("combo %v col %v: %w", combo, col, err)
		}
		for _, row := range Table1Rows {
			if row.Combo == combo {
				put(row, cells[row.Req])
			}
		}
	}
	return nil
}

// Table1 computes the full Table 1 grid. The five rows split into two
// application combinations and each (combination, column) group is one Cells
// call, so the whole grid costs 2 × 5 sweeps plus at most one fallback run
// per truncated group. Cells whose group exceeds both budgets are reported as
// "> bound" rows.
func Table1(opts CellOptions) (map[Row]map[Column]arch.WCRTResult, error) {
	out := map[Row]map[Column]arch.WCRTResult{}
	for _, row := range Table1Rows {
		out[row] = map[Column]arch.WCRTResult{}
	}
	for _, col := range Columns {
		if err := sweepColumn(col, opts, func(r Row, res arch.WCRTResult) { out[r][col] = res }); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FormatTable1 renders Table 1 in the paper's layout.
func FormatTable1(t map[Row]map[Column]arch.WCRTResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s", "Requirement \\ Event model")
	for _, col := range Columns {
		fmt.Fprintf(&sb, " %-18s", col)
	}
	sb.WriteString("\n")
	for _, row := range Table1Rows {
		fmt.Fprintf(&sb, "%-34s", row.Label)
		for _, col := range Columns {
			fmt.Fprintf(&sb, " %-18s", t[row][col].String())
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Table2Tool identifies one comparison column of Table 2.
type Table2Tool int

const (
	ToolUppaalPO Table2Tool = iota
	ToolUppaalPNO
	ToolPOOSL
	ToolSymTA
	ToolMPA
)

// Table2Tools lists the Table 2 columns in paper order.
var Table2Tools = []Table2Tool{ToolUppaalPO, ToolUppaalPNO, ToolPOOSL, ToolSymTA, ToolMPA}

func (t Table2Tool) String() string {
	switch t {
	case ToolUppaalPO:
		return "Uppaal (po)"
	case ToolUppaalPNO:
		return "Uppaal (pno)"
	case ToolPOOSL:
		return "POOSL (pno)"
	case ToolSymTA:
		return "SymTA/S (pno)"
	case ToolMPA:
		return "MPA (pno)"
	}
	return "?tool"
}

// checkerColumns maps the model-checker tools of Table 2 to the Table 1
// column each one analyzes.
var checkerColumns = map[Table2Tool]Column{ToolUppaalPO: ColPO, ToolUppaalPNO: ColPNO}

// Table2Options tunes the tool-comparison run.
type Table2Options struct {
	Cell CellOptions
	// Sim configures the POOSL-style simulation campaign.
	Sim sim.Options
}

// noneCompleted is the POOSL cell of a row none of whose activations
// completed within the simulation horizon: there is no observed maximum, not
// a maximum of zero (archcheck -engine sim says the same at length).
const noneCompleted = "none done (n=0)"

// Table2Cell computes one comparison cell.
func Table2Cell(row Row, tool Table2Tool, opts Table2Options) (string, error) {
	switch tool {
	case ToolUppaalPO, ToolUppaalPNO:
		cells, err := Cells(row.Combo, checkerColumns[tool], []string{row.Req}, opts.Cell)
		if err != nil {
			return "", err
		}
		return cells[row.Req].String(), nil
	case ToolPOOSL:
		sys, reqs := Build(row.Combo, ColPNO, opts.Cell.Cfg)
		req := reqs[row.Req]
		results, err := sim.Simulate(sys, []*arch.Requirement{req}, opts.Sim)
		if err != nil {
			return "", err
		}
		if r := results[row.Req]; r.Completed > 0 {
			return r.MaxMS.FloatString(3), nil
		}
		return noneCompleted, nil
	case ToolSymTA:
		sys, reqs := Build(row.Combo, ColPNO, opts.Cell.Cfg)
		req := reqs[row.Req]
		results, err := symta.Analyze(sys, []*arch.Requirement{req})
		if err != nil {
			return "", err
		}
		return results[row.Req].MS.FloatString(3), nil
	case ToolMPA:
		sys, reqs := Build(row.Combo, ColPNO, opts.Cell.Cfg)
		req := reqs[row.Req]
		results, err := rtc.Analyze(sys, []*arch.Requirement{req})
		if err != nil {
			return "", err
		}
		return results[row.Req].MS.FloatString(3), nil
	}
	return "", fmt.Errorf("icrns: unknown tool %v", tool)
}

// Table2 computes the full tool-comparison grid. The two checker columns are
// swept like Table 1 columns — four Cells calls for their ten cells, each
// equal to Table2Cell's wherever the sweep is exhaustive; the other tools go
// through Table2Cell.
func Table2(opts Table2Options) (map[Row]map[Table2Tool]string, error) {
	out := map[Row]map[Table2Tool]string{}
	for _, row := range Table1Rows {
		out[row] = map[Table2Tool]string{}
	}
	for _, tool := range Table2Tools {
		if col, ok := checkerColumns[tool]; ok {
			err := sweepColumn(col, opts.Cell, func(r Row, res arch.WCRTResult) { out[r][tool] = res.String() })
			if err != nil {
				return nil, fmt.Errorf("tool %v: %w", tool, err)
			}
			continue
		}
		for _, row := range Table1Rows {
			cell, err := Table2Cell(row, tool, opts)
			if err != nil {
				return nil, fmt.Errorf("row %q tool %v: %w", row.Label, tool, err)
			}
			out[row][tool] = cell
		}
	}
	return out, nil
}

// FormatTable2 renders Table 2 in the paper's layout.
func FormatTable2(t map[Row]map[Table2Tool]string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s", "Requirement \\ Tool")
	for _, tool := range Table2Tools {
		fmt.Fprintf(&sb, " %-16s", tool)
	}
	sb.WriteString("\n")
	for _, row := range Table1Rows {
		fmt.Fprintf(&sb, "%-34s", row.Label)
		for _, tool := range Table2Tools {
			fmt.Fprintf(&sb, " %-16s", t[row][tool])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Witness computes one Table 1 cell as Cells does — the same sweep, and the
// same fallback run when the sweep is truncated — and returns it with its
// critical-instant trace, replayed from the run the cell's value came from:
// a symbolic schedule realizing the worst-case response time, or on a
// "> bound" cell the lower bound. This is the capability the paper
// highlights — "some results found by simulation could be falsified by
// showing the counter example from the model checker".
func Witness(row Row, col Column, opts CellOptions) (arch.WCRTResult, string, error) {
	cs, cells, err := cells(row.Combo, col, []string{row.Req}, opts, true)
	if err != nil {
		return arch.WCRTResult{}, "", err
	}
	res := cells[row.Req]
	if res.Witness == nil {
		return res, "", fmt.Errorf("icrns: %s under %v: no response was measured, so there is no trace", row.Req, col)
	}
	return res, core.FormatTrace(cs.Net, res.Witness), nil
}

// Deadlines lists the timeliness requirements annotated in the paper's
// sequence diagrams (Figures 2-3) and case description: keypress-to-audible
// and audible-to-visual for ChangeVolume, one second for urgent TMC
// messages, and the address lookup budget.
func Deadlines() map[string]*big.Rat {
	return map[string]*big.Rat{
		ReqK2A:           arch.MS(50, 1),   // part of "A2V delay < 50 ms" family; K2A budget
		ReqA2V:           arch.MS(50, 1),   // Figure 2: A2V delay < 50 msec
		ReqHandleTMC:     arch.MS(1000, 1), // Figure 3: TMC delay < 1 sec
		ReqAddressLookup: arch.MS(200, 1),  // case description budget
	}
}

// Verify checks every requirement of the given combination and column
// against its deadline, returning per-requirement verdicts. All deadlines
// are decided from ONE exploration: the batch compilation carries one
// observer per requirement, and each verdict is the measured supremum tested
// against the deadline — the same AG(seen → y < deadline) property
// VerifyDeadline model-checks one requirement at a time. Like
// VerifyDeadline, any per-requirement horizon below its deadline is raised
// to cover it, so a BeyondHorizon result soundly counts as a violation.
func Verify(combo Combo, col Column, opts CellOptions) (map[string]bool, error) {
	sys, reqs := Build(combo, col, opts.Cfg)
	deadlines := Deadlines()
	names := make([]string, 0, len(reqs))
	for name := range reqs {
		if deadlines[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	ordered := make([]*arch.Requirement, len(names))
	for i, name := range names {
		ordered[i] = reqs[name]
	}
	horizons := func(r *arch.Requirement) int64 {
		return arch.HorizonCovering(HorizonMS(r.Name), deadlines[r.Name])
	}
	cs, err := arch.CompileAll(sys, ordered, arch.Options{HorizonMSFor: horizons})
	if err != nil {
		return nil, fmt.Errorf("verify %v: %w", combo, err)
	}
	all, err := cs.Analyze(opts.coreOpts())
	if err != nil {
		return nil, fmt.Errorf("verify %v: %w", combo, err)
	}
	verdicts := map[string]bool{}
	for i, name := range names {
		verdicts[name] = !all.Results[i].ViolatesDeadline(deadlines[name])
	}
	return verdicts, nil
}

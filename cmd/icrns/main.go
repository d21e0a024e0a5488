// Command icrns regenerates the paper's evaluation tables on the in-car
// radio navigation case study.
//
// Usage:
//
//	icrns -table 1 [-budget n] [-fallback n] [-config default|realistic-bus]
//	icrns -table 2 [-budget n] [-sim-reps n] [-sim-horizon ms]
//	icrns -cell "<requirement>,<column>"   (single Table 1 cell, e.g. "K2A,po")
//
// Table 1 is the worst-case response time of five requirements under five
// event models; Table 2 compares the model checker against the simulation,
// busy-window, and real-time-calculus engines. Table 1 rows are grouped by
// application combination and answered through the batch engine
// (icrns.Cells): each (combination, column) group is ONE compiled network
// (arch.CompileAll) with one measuring observer per requirement and ONE
// exploration (CompiledSet.Analyze), as is each -verify column; a -cell is
// the group of its one requirement. A group whose exhaustive exploration
// exceeds -budget states gets ONE randomized depth-first run of -fallback
// states on the same network, shared by its requirements: if that run
// finishes the cells are exact after all, otherwise they are reported as
// "> bound" lower bounds, exactly like the paper's df/rdf rows.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/icrns"
	"repro/internal/profflag"
	"repro/internal/sim"
	"repro/internal/wire"
)

func main() {
	prof := profflag.Register()
	var (
		table      = flag.Int("table", 1, "table to regenerate: 1 or 2")
		budget     = flag.Int("budget", 2_000_000, "state budget per exhaustive exploration")
		fallback   = flag.Int("fallback", 3_000_000, "state budget of the rdf fallback, per truncated sweep, shared by the group's requirements")
		maxBytes   = flag.Int64("max-bytes", 0, "zone-memory budget in bytes per exploration: exceeding it fails the cell (0 = unbounded)")
		config     = flag.String("config", "default", "scheduling config: default, realistic-bus")
		cellSpec   = flag.String("cell", "", "single cell \"<req>,<col>\" (e.g. \"K2A,po\")")
		witness    = flag.Bool("witness", false, "with -cell: print a critical-instant trace realizing the WCRT")
		verify     = flag.String("verify", "", "verify the Figure 2/3 deadlines under a column (po, pno, sp, pj, bur)")
		seed       = flag.Int64("seed", 1, "seed for randomized search and simulation")
		simReps    = flag.Int("sim-reps", 20, "simulation replications (table 2)")
		simHorizon = flag.Int64("sim-horizon", 60000, "simulated ms per replication (table 2)")
		workers    = flag.Int("workers", runtime.NumCPU(),
			"parallel exploration workers per cell; exhaustive cells are schedule-independent, but budget-truncated \"> N\" lower bounds vary run-to-run unless -workers 1")
	)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	var cfg icrns.Config
	switch *config {
	case "default":
		cfg = icrns.DefaultConfig()
	case "realistic-bus":
		cfg = icrns.RealisticBusConfig()
	default:
		fatal(fmt.Errorf("unknown config %q", *config))
	}
	cellOpts := icrns.CellOptions{
		Cfg: cfg, MaxStates: *budget, FallbackStates: *fallback, Seed: *seed,
		Workers: *workers, MaxBytes: *maxBytes, Monitor: prof.Monitor(),
	}

	if *verify != "" {
		_, col, err := lookup("K2A", *verify)
		if err != nil {
			fatal(err)
		}
		for _, combo := range []icrns.Combo{icrns.ComboCV, icrns.ComboAL} {
			verdicts, err := icrns.Verify(combo, col, cellOpts)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%v under %v:\n", combo, col)
			names := make([]string, 0, len(verdicts))
			for name := range verdicts {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				deadline := icrns.Deadlines()[name]
				status := "MET"
				if !verdicts[name] {
					status = "VIOLATED"
				}
				fmt.Printf("  %-16s < %6s ms : %s\n", name, deadline.FloatString(0), status)
			}
		}
		return
	}

	if *cellSpec != "" {
		parts := strings.SplitN(*cellSpec, ",", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("cell spec must be \"<req>,<col>\""))
		}
		row, col, err := lookup(parts[0], parts[1])
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		cells, err := icrns.Cells(row.Combo, col, []string{row.Req}, cellOpts)
		if err != nil {
			fatal(err)
		}
		res := cells[row.Req]
		fmt.Printf("%s under %v: %s ms (%s) in %v\n",
			row.Label, col, res, res.Stats, time.Since(start).Round(time.Millisecond))
		if *witness && res.Exact {
			trace, err := icrns.Witness(row, col, res, cellOpts)
			if err != nil {
				fatal(err)
			}
			fmt.Println("\ncritical-instant trace:")
			fmt.Print(trace)
		}
		return
	}

	switch *table {
	case 1:
		start := time.Now()
		t, err := icrns.Table1(cellOpts)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Table 1. Worst-case response time analysis results (in milliseconds)")
		fmt.Print(icrns.FormatTable1(t))
		fmt.Printf("(config %s, budget %d states, %v total)\n", *config, *budget, time.Since(start).Round(time.Millisecond))
	case 2:
		start := time.Now()
		t, err := icrns.Table2(icrns.Table2Options{
			Cell: cellOpts,
			Sim:  sim.Options{Seed: *seed, HorizonMS: *simHorizon, Replications: *simReps},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println("Table 2. Worst-case response time results - comparison with other tools")
		fmt.Print(icrns.FormatTable2(t))
		fmt.Printf("(config %s, %v total)\n", *config, time.Since(start).Round(time.Millisecond))
	default:
		fatal(fmt.Errorf("unknown table %d", *table))
	}
}

func lookup(reqName, colName string) (icrns.Row, icrns.Column, error) {
	var row icrns.Row
	found := false
	for _, r := range icrns.Table1Rows {
		if strings.EqualFold(r.Req, reqName) {
			row = r
			found = true
			break
		}
	}
	if !found {
		return row, 0, fmt.Errorf("unknown requirement %q (one of HandleTMC, K2A, A2V, AddressLookup)", reqName)
	}
	switch strings.ToLower(colName) {
	case "po":
		return row, icrns.ColPO, nil
	case "pno":
		return row, icrns.ColPNO, nil
	case "sp":
		return row, icrns.ColSP, nil
	case "pj":
		return row, icrns.ColPJ, nil
	case "bur":
		return row, icrns.ColBUR, nil
	}
	return row, 0, fmt.Errorf("unknown column %q (one of po, pno, sp, pj, bur)", colName)
}

func fatal(err error) {
	// Budget and abort failures carry the same named code here as in
	// taserved's wire responses, so scripts can match one taxonomy.
	if code := wire.CodeForError(err); code != "" {
		fmt.Fprintf(os.Stderr, "icrns: %s: %v\n", code, err)
	} else {
		fmt.Fprintln(os.Stderr, "icrns:", err)
	}
	os.Exit(1)
}

// Command tacheck is a standalone zone-based model checker for networks of
// timed automata in this repository's textual format (see internal/ta.Parse).
//
// Usage:
//
//	tacheck -model m.ta -reach "PROC.loc && v==2"     reachability + witness
//	tacheck -model m.ta -safety "v<=4"                AG check + counterexample
//	tacheck -model m.ta -sup "y @ OBS.seen"           clock supremum (WCRT)
//	tacheck -model m.ta -deadlock                     deadlock freedom
//	tacheck -model m.ta -dot                          Graphviz export
//
// A predicate is written in the grammar of a .ta edge guard, plus PROC.loc
// atoms; clocks are refused. The README's tacheck section states it in full.
//
// The query flags combine: any subset of -reach, -safety, -sup, -deadlock
// given together attaches all of them to ONE exploration of the zone graph
// (core.RunQueries) — each query completes independently and the sweep stops
// once every answer is known, so k questions cost one sweep instead of k.
//
// -json emits the machine-readable result instead of the text report: the
// exact wire format (internal/wire.TAResponse) the taserved analysis service
// returns for the same model and queries, so scripted callers can switch
// between the CLI and the service without re-parsing anything.
//
// Options: -order bfs|df|rdf, -seed, -max-states, -max-const (extrapolation
// horizon for the sup clock). -cpuprofile/-memprofile write runtime/pprof
// profiles of the run for hot-path inspection; -profile-out captures the
// engine's sweep profile (parse/compile/explore phase spans + sampled series)
// as JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/profflag"
	"repro/internal/ta"
	"repro/internal/wire"
)

func main() {
	prof := profflag.Register()
	var (
		modelPath   = flag.String("model", "", "path to the .ta model")
		reach       = flag.String("reach", "", "reachability predicate")
		safety      = flag.String("safety", "", "invariant predicate (AG)")
		sup         = flag.String("sup", "", "clock supremum query: \"clock @ predicate\"")
		deadlock    = flag.Bool("deadlock", false, "check deadlock freedom")
		dot         = flag.Bool("dot", false, "print the network as Graphviz DOT")
		uppaal      = flag.Bool("uppaal", false, "print the network as UPPAAL 4.x XML")
		jsonOut     = flag.Bool("json", false, "emit the result as JSON (the taserved wire format)")
		order       = flag.String("order", "bfs", "search order: bfs, df, rdf")
		seed        = flag.Int64("seed", 1, "seed for rdf search")
		maxStates   = flag.Int("max-states", 0, "soft state cap: exploration truncates past it, 0 = exhaustive")
		stateBudget = flag.Int("state-budget", 0, "hard state budget: exceeding it fails the run (0 = unbounded)")
		maxBytes    = flag.Int64("max-bytes", 0, "zone-memory budget in bytes: exceeding it fails the run (0 = unbounded)")
		maxConst    = flag.Int64("max-const", 0, "extrapolation horizon for the sup clock")
	)
	flag.Parse()
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "tacheck: -model is required")
		flag.Usage()
		os.Exit(2)
	}
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()
	data, err := os.ReadFile(*modelPath)
	if err != nil {
		fatal(err)
	}

	var opts core.Options
	if opts.Order, err = core.ParseOrder(*order); err != nil {
		fatal(err)
	}
	opts.Seed = *seed
	opts.MaxStates = *maxStates
	opts.StateBudget = *stateBudget
	opts.MaxBytes = *maxBytes

	if *dot || *uppaal {
		net, err := ta.Parse(string(data))
		if err != nil {
			fatal(err)
		}
		if *dot {
			fmt.Print(net.DOT())
		} else {
			fmt.Print(net.UPPAALXML())
		}
		return
	}

	// Collect every requested query as a wire spec — the identical path the
	// taserved service takes, so CLI answers and service answers are built
	// and encoded by the same code (internal/wire.TARun).
	var specs []wire.TAQuery
	if *reach != "" {
		specs = append(specs, wire.TAQuery{Kind: "reach", Pred: *reach})
	}
	if *safety != "" {
		specs = append(specs, wire.TAQuery{Kind: "safety", Pred: *safety})
	}
	if *sup != "" {
		clock, pred, ok := strings.Cut(*sup, "@")
		if !ok {
			fatal(fmt.Errorf("sup query must be \"clock @ predicate\""))
		}
		specs = append(specs, wire.TAQuery{
			Kind:  "sup",
			Clock: strings.TrimSpace(clock),
			Pred:  strings.TrimSpace(pred),
		})
	}
	if *deadlock {
		specs = append(specs, wire.TAQuery{Kind: "deadlock"})
	}
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "tacheck: one of -reach, -safety, -sup, -deadlock, -dot is required")
		flag.Usage()
		os.Exit(2)
	}

	mon := prof.Monitor()
	opts.Monitor = mon

	// ParseTAModel registers the -max-const horizon on the sup clocks before
	// the network finalizes; every query then runs against the same network
	// in ONE exploration.
	parseStart := time.Now()
	net, err := wire.ParseTAModel(string(data), specs, *maxConst)
	if err != nil {
		fatal(err)
	}
	if mon != nil {
		mon.RecordPhase("parse", parseStart, time.Now())
	}
	compileStart := time.Now()
	run, err := wire.NewTARun(net, specs)
	if err != nil {
		fatal(err)
	}
	checker, err := core.NewChecker(net)
	if err != nil {
		fatal(err)
	}
	if mon != nil {
		mon.RecordPhase("compile", compileStart, time.Now())
	}
	stats, err := checker.RunQueries(opts, run.Queries()...)
	if err != nil {
		fatal(err)
	}
	resp := run.Response(stats)

	if *jsonOut {
		out, err := wire.Encode(resp)
		if err == nil {
			_, err = os.Stdout.Write(out)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	for _, q := range resp.Queries {
		switch q.Kind {
		case "reach":
			fmt.Printf("reachable(%s) = %v   [%s]\n", q.Pred, q.Verdict, stats)
			fmt.Print(q.Trace)
		case "safety":
			fmt.Printf("AG(%s) = %v   [%s]\n", q.Pred, q.Verdict, stats)
			fmt.Print(q.Trace)
		case "sup":
			switch {
			case !q.Verdict:
				fmt.Printf("sup %s @ %s: predicate unreachable   [%s]\n", q.Clock, q.Pred, stats)
			case q.SupUnbounded:
				fmt.Printf("sup %s @ %s: beyond extrapolation horizon (raise -max-const)   [%s]\n", q.Clock, q.Pred, stats)
			default:
				fmt.Printf("sup %s @ %s = %s   [%s]\n", q.Clock, q.Pred, q.Sup, stats)
			}
		case "deadlock":
			fmt.Printf("deadlock-free = %v   [%s]\n", q.Verdict, stats)
			fmt.Print(q.Trace)
		}
	}
}

func fatal(err error) {
	// Budget and abort failures carry the same named code here as in
	// taserved's wire responses, so scripts can match one taxonomy.
	if code := wire.CodeForError(err); code != "" {
		fmt.Fprintf(os.Stderr, "tacheck: %s: %v\n", code, err)
	} else {
		fmt.Fprintln(os.Stderr, "tacheck:", err)
	}
	os.Exit(1)
}

// Command archcheck analyzes a JSON architecture description with any of the
// four engines of this repository: the exact zone-based model checker
// (default), the discrete-event simulator, busy-window analysis, and
// real-time calculus.
//
// Usage:
//
//	archcheck -model system.json [-req name] [-engine uppaal|sim|symta|rtc]
//	          [-horizon ms] [-order bfs|df|rdf] [-max-states n] [-seed n]
//	          [-sim-reps n] [-sim-horizon ms] [-deadlock]
//
// With no -req, every requirement in the file is analyzed. The uppaal engine
// compiles the analyzed requirements into ONE network — one measuring
// observer each (arch.CompileAll) — and answers every WCRT from a single
// exploration (CompiledSet.Analyze). -deadlock checks the system compiled
// with the first requirement's observer for reachable deadlocked
// configurations instead of computing WCRTs (CompiledSet.DeadlockFree).
//
// -json emits the machine-readable result instead of the text report: the
// exact wire format (internal/wire.ArchResponse) the taserved analysis
// service returns for the same model, so scripted callers can switch between
// the CLI and the service without re-parsing anything. It applies to the
// uppaal WCRT analysis (the batch path, any number of requirements).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/profflag"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/symta"
	"repro/internal/wire"
)

func main() {
	prof := profflag.Register()
	var (
		modelPath   = flag.String("model", "", "path to the JSON system description")
		reqName     = flag.String("req", "", "requirement to analyze (default: all)")
		engine      = flag.String("engine", "uppaal", "analysis engine: uppaal, sim, symta, rtc")
		horizon     = flag.Int64("horizon", 2000, "observation horizon in ms (uppaal engine)")
		order       = flag.String("order", "bfs", "search order: bfs, df, rdf (uppaal engine)")
		maxStates   = flag.Int("max-states", 0, "soft state cap: exploration truncates past it, 0 = exhaustive (uppaal engine)")
		stateBudget = flag.Int("state-budget", 0, "hard state budget: exceeding it fails the run, 0 = unbounded (uppaal engine)")
		maxBytes    = flag.Int64("max-bytes", 0, "zone-memory budget in bytes: exceeding it fails the run, 0 = unbounded (uppaal engine)")
		seed        = flag.Int64("seed", 1, "random seed (rdf order, sim engine)")
		simReps     = flag.Int("sim-reps", 20, "simulation replications (sim engine)")
		simHorizon  = flag.Int64("sim-horizon", 60000, "simulated ms per replication (sim engine)")
		dot         = flag.Bool("dot", false, "print the compiled timed-automata network as Graphviz DOT and exit")
		uppaal      = flag.Bool("uppaal", false, "print the compiled network as UPPAAL 4.x XML and exit")
		deploy      = flag.Bool("deploy", false, "print the deployment diagram (Figure 1 style) as Graphviz DOT and exit")
		deadlock    = flag.Bool("deadlock", false, "check the compiled system for deadlocks instead of computing WCRTs")
		jsonOut     = flag.Bool("json", false, "emit the result as JSON (the taserved wire format; uppaal WCRT analysis only)")
	)
	flag.Parse()
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "archcheck: -model is required")
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
	mon := prof.Monitor()
	parseStart := time.Now()
	sys, reqs, err := arch.ParseSystem(data)
	if err != nil {
		fatal(err)
	}
	if mon != nil {
		mon.RecordPhase("parse", parseStart, time.Now())
	}
	if *reqName != "" {
		var filtered []*arch.Requirement
		for _, r := range reqs {
			if r.Name == *reqName {
				filtered = append(filtered, r)
			}
		}
		if len(filtered) == 0 {
			fatal(fmt.Errorf("requirement %q not found in %s", *reqName, *modelPath))
		}
		reqs = filtered
	}
	if len(reqs) == 0 {
		fatal(fmt.Errorf("no requirements in %s", *modelPath))
	}

	if *deploy {
		fmt.Print(sys.DOT())
		return
	}
	aopts := arch.Options{HorizonMS: *horizon}
	if *dot || *uppaal {
		compiled, err := arch.CompileAll(sys, reqs[:1], aopts)
		if err != nil {
			fatal(err)
		}
		if *dot {
			fmt.Print(compiled.Net.DOT())
		} else {
			fmt.Print(compiled.Net.UPPAALXML())
		}
		return
	}

	ord, err := core.ParseOrder(*order)
	if err != nil {
		fatal(err)
	}
	// The sweep profile (when -profile-out is given) rides the uppaal
	// engine's core options; compile time shows up inside the engine calls,
	// the exploration itself records the explore/trace-replay phases.
	copts := core.Options{Order: ord, Seed: *seed, MaxStates: *maxStates,
		StateBudget: *stateBudget, MaxBytes: *maxBytes, Monitor: mon}

	if *jsonOut && (*engine != "uppaal" || *deadlock) {
		fatal(fmt.Errorf("-json supports the uppaal WCRT analysis only"))
	}

	if *deadlock {
		// Deadlock freedom is a property of the whole compiled system; the
		// first requirement only selects the observer compiled alongside it.
		cs, err := arch.CompileAll(sys, reqs[:1], aopts)
		if err != nil {
			fatal(err)
		}
		res, err := cs.DeadlockFree(copts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("deadlock-free = %v   [%s]\n", res.Free, res.Stats)
		if !res.Free {
			fmt.Print(core.FormatTrace(cs.Net, res.Witness))
			os.Exit(1)
		}
		return
	}

	switch *engine {
	case "uppaal":
		cs, err := arch.CompileAll(sys, reqs, aopts)
		if err != nil {
			fatal(err)
		}
		res, err := cs.Analyze(copts)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			// The batch path answers any number of requirements (one
			// included) from one exploration and is exactly what taserved
			// runs, so the emitted bytes match a service result for the
			// same submission.
			out, err := wire.Encode(wire.FromAllResult(res))
			if err == nil {
				_, err = os.Stdout.Write(out)
			}
			if err != nil {
				fatal(err)
			}
			return
		}
		for i, req := range reqs {
			r := res.Results[i]
			kind := "exact WCRT"
			if !r.Exact {
				kind = "lower bound"
			}
			if len(reqs) == 1 {
				fmt.Printf("%-20s %s = %s ms   [%s]\n", req.Name, kind, r.MS.FloatString(3), res.Stats)
			} else {
				fmt.Printf("%-20s %s = %s ms\n", req.Name, kind, r.MS.FloatString(3))
			}
		}
		if len(reqs) > 1 {
			fmt.Printf("(%d requirements from one exploration: %s)\n", len(reqs), res.Stats)
		}
	case "sim":
		results, err := sim.Simulate(sys, reqs, sim.Options{
			Seed: *seed, HorizonMS: *simHorizon, Replications: *simReps})
		if err != nil {
			fatal(err)
		}
		for _, req := range reqs {
			r := results[req.Name]
			if r.Completed == 0 {
				fmt.Printf("%-20s no activation completed within the horizon (n=0)\n", req.Name)
				continue
			}
			fmt.Printf("%-20s observed max = %s ms, mean = %s ms (n=%d)\n",
				req.Name, r.MaxMS.FloatString(3), r.MeanMS.FloatString(3), r.Completed)
		}
	case "symta":
		results, err := symta.Analyze(sys, reqs)
		if err != nil {
			fatal(err)
		}
		for _, req := range reqs {
			fmt.Printf("%-20s busy-window bound = %s ms\n",
				req.Name, results[req.Name].MS.FloatString(3))
		}
	case "rtc":
		results, err := rtc.Analyze(sys, reqs)
		if err != nil {
			fatal(err)
		}
		for _, req := range reqs {
			fmt.Printf("%-20s real-time-calculus bound = %s ms\n",
				req.Name, results[req.Name].MS.FloatString(3))
		}
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
}

func fatal(err error) {
	// Budget and abort failures carry the same named code here as in
	// taserved's wire responses, so scripts can match one taxonomy.
	if code := wire.CodeForError(err); code != "" {
		fmt.Fprintf(os.Stderr, "archcheck: %s: %v\n", code, err)
	} else {
		fmt.Fprintln(os.Stderr, "archcheck:", err)
	}
	os.Exit(1)
}

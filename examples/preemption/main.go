// Preemption contrasts the paper's two scheduler templates (the
// non-preemptive Fig. 4 automaton and the preemptive Fig. 5 automaton with
// its dynamic deadline D) on a two-application system, and mechanically
// verifies the side condition the paper highlights: the preemption
// accumulator D stays bounded, so model checking remains possible.
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/ta"
)

func build(sched arch.SchedKind) (*arch.System, *arch.Requirement, *arch.Requirement) {
	sys := arch.NewSystem("preemption")
	cpu := sys.AddProcessor("CPU", 10, sched)
	urgent := sys.AddScenario("urgent", 2, arch.PeriodicUnknownOffset(arch.MS(20, 1)))
	urgent.Compute("isr", cpu, 50000) // 5 ms
	bulk := sys.AddScenario("bulk", 1, arch.PeriodicUnknownOffset(arch.MS(50, 1)))
	bulk.Compute("batch", cpu, 200000) // 20 ms
	return sys, arch.EndToEnd("urgent", urgent), arch.EndToEnd("bulk", bulk)
}

func main() {
	for _, sched := range []arch.SchedKind{arch.SchedNondet, arch.SchedFP, arch.SchedFPPreempt} {
		sys, urgentReq, bulkReq := build(sched)
		fmt.Printf("scheduler: %v\n", sched)
		cs, err := arch.CompileAll(sys, []*arch.Requirement{urgentReq, bulkReq}, arch.Options{HorizonMS: 500})
		if err != nil {
			log.Fatal(err)
		}
		all, err := cs.Analyze(core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		for _, res := range all.Results {
			fmt.Printf("  %-8s WCRT = %s ms\n", res.Req.Name, res)
		}
	}

	// The paper warns that D must provably stay finite. Compile the
	// preemptive model and check AG(D <= isr-budget) mechanically.
	sys, urgentReq, _ := build(arch.SchedFPPreempt)
	compiled, err := arch.CompileAll(sys, []*arch.Requirement{urgentReq}, arch.Options{HorizonMS: 500})
	if err != nil {
		log.Fatal(err)
	}
	dIdx := -1
	for i, v := range compiled.Net.Vars {
		if v.Name == "CPU.D" {
			dIdx = i
			break
		}
	}
	if dIdx < 0 {
		log.Fatal("compiled model has no preemption accumulator")
	}
	checker, err := core.NewChecker(compiled.Net)
	if err != nil {
		log.Fatal(err)
	}
	// One 20ms batch can be hit by at most two 5ms preemptions before it
	// completes: D never exceeds 20 + 2*5 = 30 ms.
	scale := compiled.Scale.Int64()
	bound := 30 * scale
	// AG(D <= 30ms) holds exactly when no state with D > 30ms is reachable.
	over := core.NewReachQuery(func(s *core.State) bool { return s.Vars[dIdx] > bound })
	if _, err := checker.RunQueries(core.Options{}, over); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAG(D <= 30ms): %v  (%s)\n", !over.Found, over.Stats)
	if over.Found {
		fmt.Println(core.FormatTrace(compiled.Net, over.Trace))
	}
	_ = ta.NoSync // keep the low-level package visible to readers
}

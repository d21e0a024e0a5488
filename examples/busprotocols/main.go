// Busprotocols explores the paper's Section 3.2 observation: because the
// hardware automata interface to the bus only through shared counters, the
// bus arbitration can be swapped without touching anything else. We compare
// three bus disciplines on the case study — the nondeterministic Fig. 6 bus,
// a fixed-priority non-preemptive bus (RS-485 style), and the idealized
// preemptive priority bus — and report the exact WCRT of both applications.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/icrns"
)

func main() {
	buses := []struct {
		name  string
		sched arch.SchedKind
	}{
		{"nondeterministic (Fig. 6)", arch.SchedNondet},
		{"fixed-priority, non-preemptive", arch.SchedFP},
		{"fixed-priority, preemptive (idealized)", arch.SchedFPPreempt},
	}
	for _, b := range buses {
		cfg := icrns.DefaultConfig()
		cfg.Bus = b.sched
		fmt.Printf("bus: %s\n", b.name)
		for _, req := range []string{icrns.ReqHandleTMC, icrns.ReqAddressLookup} {
			sys, reqs := icrns.Build(icrns.ComboAL, icrns.ColPNO, cfg)
			start := time.Now()
			cs, err := arch.CompileAll(sys, []*arch.Requirement{reqs[req]},
				arch.Options{HorizonMS: icrns.HorizonMS(req)})
			if err != nil {
				log.Fatal(err)
			}
			all, err := cs.Analyze(core.Options{MaxStates: 2_000_000})
			if err != nil {
				log.Fatal(err)
			}
			res := all.Results[0]
			fmt.Printf("  %-16s WCRT = %s ms  (%d states, %v)\n",
				req, res, res.Stats.Stored, time.Since(start).Round(time.Millisecond))
		}
	}
	fmt.Println("\nThe AddressLookup bound grows by one bulk transfer (7.111 ms) as")
	fmt.Println("soon as TMC messages can block priority messages; with TMC traffic")
	fmt.Println("this sparse, nondeterministic arbitration happens to coincide with")
	fmt.Println("fixed priority — the exact analysis tells these protocols apart")
	fmt.Println("for free, the paper's argument for swapping bus automata.")
}

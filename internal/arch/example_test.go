package arch_test

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
)

// Example describes a two-stage pipeline and computes its exact worst-case
// response time with the high-level API.
func Example() {
	sys := arch.NewSystem("pipeline")
	cpu := sys.AddProcessor("CPU", 10, arch.SchedFPPreempt) // 10 MIPS
	bus := sys.AddBus("BUS", 8, arch.SchedFP)               // 8 kbit/s

	job := sys.AddScenario("job", 1, arch.PeriodicUnknownOffset(arch.MS(100, 1)))
	job.Compute("work", cpu, 100_000). // 10 ms
						Transfer("result", bus, 10) // 10 ms

	cs, err := arch.CompileAll(sys, []*arch.Requirement{arch.EndToEnd("e2e", job)},
		arch.Options{HorizonMS: 100})
	if err != nil {
		log.Fatal(err)
	}
	all, err := cs.Analyze(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res := all.Results[0]
	fmt.Printf("WCRT = %s ms (exact: %v)\n", res.MS.FloatString(3), res.Exact)
	// Output: WCRT = 20.000 ms (exact: true)
}

// ExampleVerifyDeadline model checks a timeliness requirement directly
// (the paper's Property 1 with the deadline as the constant).
func ExampleVerifyDeadline() {
	sys := arch.NewSystem("deadline")
	cpu := sys.AddProcessor("CPU", 10, arch.SchedFP)
	job := sys.AddScenario("job", 1, arch.Sporadic(arch.MS(50, 1)))
	job.Compute("work", cpu, 150_000) // 15 ms

	req := arch.EndToEnd("job", job)
	ok, _, err := arch.VerifyDeadline(sys, req, arch.MS(20, 1),
		arch.Options{HorizonMS: 100}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("job < 20 ms:", ok)
	ok, _, err = arch.VerifyDeadline(sys, req, arch.MS(10, 1),
		arch.Options{HorizonMS: 100}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("job < 10 ms:", ok)
	// Output:
	// job < 20 ms: true
	// job < 10 ms: false
}

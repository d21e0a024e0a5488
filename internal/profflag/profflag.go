// Package profflag wires runtime/pprof CPU and heap profiling into the
// analysis CLIs as -cpuprofile / -memprofile flags, so hot-path work on the
// successor engine can be measured on the real workloads (a Table 1 sweep,
// a batch analysis) instead of synthetic benchmarks only. The -profile-out
// flag additionally captures the engine's own sweep profile (phase spans +
// the sweep's sampled series, core.SweepProfile) as JSON.
package profflag

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
)

// Profiles holds the profile destinations parsed from the command line.
type Profiles struct {
	cpu string
	mem string
	out string
	mon *core.Monitor
}

// Register declares -cpuprofile, -memprofile, and -profile-out on the default
// flag set. Call before flag.Parse.
func Register() *Profiles {
	p := &Profiles{}
	flag.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&p.mem, "memprofile", "", "write a heap profile to this file at exit")
	flag.StringVar(&p.out, "profile-out", "", "write the sweep profile (phase spans + sampled series) as JSON to this file")
	return p
}

// Monitor returns the profile-enabled monitor to thread into the run's
// core.Options, or nil when -profile-out was not given — so a run without
// the flag provably pays no sampling cost. Call after flag.Parse.
func (p *Profiles) Monitor() *core.Monitor {
	if p.out == "" {
		return nil
	}
	if p.mon == nil {
		p.mon = &core.Monitor{}
		p.mon.EnableProfile(core.ProfileConfig{})
	}
	return p.mon
}

// Start begins CPU profiling when -cpuprofile was given. The returned stop
// function flushes the CPU profile and writes the heap profile; defer it on
// the normal return path (profiles are not written when the command exits
// through a fatal error — a failed run is not the workload being measured).
// Call after flag.Parse.
func (p *Profiles) Start() (stop func(), err error) {
	var cpuFile *os.File
	if p.cpu != "" {
		cpuFile, err = os.Create(p.cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if p.mem != "" {
			f, err := os.Create(p.mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live-heap picture before dumping
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
		p.writeSweepProfile()
	}, nil
}

// writeSweepProfile dumps the recorded core.SweepProfile as indented JSON.
// Nothing is written when -profile-out is unset or no run used the monitor.
func (p *Profiles) writeSweepProfile() {
	if p.out == "" || p.mon == nil {
		return
	}
	prof := p.mon.Profile()
	if prof == nil {
		fmt.Fprintln(os.Stderr, "profile-out: no profile recorded (did the run use the monitor?)")
		return
	}
	data, err := json.MarshalIndent(prof, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "profile-out:", err)
		return
	}
	if err := os.WriteFile(p.out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "profile-out:", err)
	}
}

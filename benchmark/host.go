package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/icrns"
	"repro/internal/rtc"
	"repro/internal/symta"
)

// hostProbe is the control every run takes before it measures anything:
// code this benchmark never exercises otherwise, so its time moves with the
// host and not with a change to the engine.
type hostProbe struct {
	nproc int
	// canaryMS is the median time of one pass of rtc.Analyze + symta.Analyze
	// over the five Table 2 rows.
	canaryMS float64
	// sleepOvershootP90MS is how late a 1 ms sleep returns, 90th percentile
	// of 200: the figure a later open-loop workload needs before it can
	// trust its own schedule.
	sleepOvershootP90MS float64
}

func probeHost() (hostProbe, error) {
	h := hostProbe{nproc: runtime.NumCPU()}
	type rowSys struct {
		sys  *arch.System
		reqs []*arch.Requirement
	}
	var rows []rowSys
	for _, row := range icrns.Table1Rows {
		sys, reqs := icrns.Build(row.Combo, icrns.ColPNO, icrns.DefaultConfig())
		rows = append(rows, rowSys{sys, []*arch.Requirement{reqs[row.Req]}})
	}
	var passes []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		for _, r := range rows {
			if _, err := rtc.Analyze(r.sys, r.reqs); err != nil {
				return h, fmt.Errorf("canary rtc: %w", err)
			}
			if _, err := symta.Analyze(r.sys, r.reqs); err != nil {
				return h, fmt.Errorf("canary symta: %w", err)
			}
		}
		passes = append(passes, ms(time.Since(t0)))
	}
	h.canaryMS = median(passes)

	var late []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		time.Sleep(time.Millisecond)
		late = append(late, ms(time.Since(t0)-time.Millisecond))
	}
	h.sleepOvershootP90MS = percentile(late, 0.9)
	return h, nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// stolenMS reads how long the hypervisor has run something else while this
// guest had work for a CPU: the steal column of /proc/stat, summed over CPUs,
// in milliseconds (the column counts 10 ms ticks). ok is false where the
// kernel does not report it; nothing is then taken out of any timing.
func stolenMS() (ms float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	var ticks float64
	if _, err := fmt.Sscanf(fields[8], "%f", &ticks); err != nil {
		return 0, false
	}
	return ticks * 10, true
}

// hostClock is a reading of the three clocks a stretch of a run is judged
// by: wall time, the CPU time this process has used, and the steal counter.
type hostClock struct {
	at       time.Time
	cpuMS    float64
	stolenMS float64
}

func readHostClock() hostClock {
	c := hostClock{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpuMS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
	}
	c.stolenMS, _ = stolenMS()
	return c
}

// since reports the stretch from c to now: its wall time, the steal over it,
// and the share of its CPU demand the process got — CPU time used ÷ (CPU
// time used + stolen), 1 when nothing was stolen. This process is the only
// load in the guest, so what was stolen was stolen from it.
func (c hostClock) since() (wallMS, stolen, got float64) {
	now := readHostClock()
	wallMS = ms(now.at.Sub(c.at))
	stolen = now.stolenMS - c.stolenMS
	cpu := now.cpuMS - c.cpuMS
	if stolen <= 0 || cpu <= 0 {
		return wallMS, 0, 1
	}
	return wallMS, stolen, cpu / (cpu + stolen)
}

// sample is one timed value with the share of its CPU demand the process
// got over the stretch of the run the value was taken in.
type sample struct {
	value float64
	// weight is what the value is per: verdicts for a unit time.
	weight float64
	got    float64
}

// guestTime is the sample's value scaled by the share of CPU demand the
// process got: the time it took while the guest was actually running. On
// this shared host the hypervisor withholds CPUs the guest wants for up to a
// third of a run, in bursts that last minutes; raw wall time then doubles
// between identical runs, and a benchmark that reported it could resolve
// nothing (README, "Guest time").
func (s sample) guestTime() float64 { return s.value * s.got }

func guestTimes(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.guestTime()
	}
	return out
}

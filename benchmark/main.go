// Command benchmark is the repository's benchmark: five workloads from
// model text to checked verdict, four end-to-end metrics each, and — with
// -trace 1 — a per-layer cost ledger taken from spans around the calls into
// each module's public functions. See README.md in this directory.
//
//	go run ./benchmark -workload fischer -seed 1 -seconds 10 -trace 0
//	go run ./benchmark            # every workload, -runs times each
//	go run ./benchmark -aa        # two sets back to back, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/wire"
)

// A plain run sets the workload up at least setupRepeats times, and keeps
// going while that has taken less than setupShare of the measuring time (at
// most maxSetups times), so a set-up of milliseconds is sampled often enough
// for its median to mean something.
const (
	setupRepeats = 3
	setupShare   = 0.15
	maxSetups    = 25
)

// minUnits is the fewest timed units a run measures, however short.
const minUnits = 3

// chunkMin is the shortest stretch of a run whose clocks are read on their
// own: long enough for the 10 ms steal tick to resolve a few percent.
const chunkMin = 250 * time.Millisecond

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, in the driver's format.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is everything one measured run of one workload produced.
type run struct {
	workload string
	seed     int64
	result   result
	host     hostProbe
	firstErr error
	spanFile string
	// stealRatio is the steal share of the timed part.
	stealRatio float64
}

// phase times units of an opened instance for about the given duration and
// accumulates what they report.
type phase struct {
	// samples holds one wall time per verdict (ms) per successful unit,
	// weighted by its verdicts, with the CPU share its chunk got.
	samples    []sample
	busy       time.Duration
	units      int
	verdicts   int
	failed     int
	firstErr   error
	stats      wire.Stats
	bytes      int
	wallMS     float64 // of all chunks
	stolen     float64 // ms, over all chunks
	mem0, mem1 runtime.MemStats
}

func (p *phase) measure(inst instance, first int, d time.Duration, tr *tracer) {
	runtime.ReadMemStats(&p.mem0)
	start := time.Now()
	chunk, chunkFirst := readHostClock(), 0
	closeChunk := func() {
		wallMS, stolen, got := chunk.since()
		for i := chunkFirst; i < len(p.samples); i++ {
			p.samples[i].got = got
		}
		p.stolen += stolen
		p.wallMS += wallMS
		chunk, chunkFirst = readHostClock(), len(p.samples)
	}
	for i := first; time.Since(start) < d || p.units < minUnits; i++ {
		tr.nextUnit()
		res, err := inst.unit(i, tr)
		p.units++
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("unit %d: %w", i, err)
			}
		} else {
			p.busy += res.dur
			p.verdicts += res.verdicts
			p.samples = append(p.samples, sample{value: ms(res.dur) / float64(res.verdicts), weight: float64(res.verdicts)})
			addStats(&p.stats, res.stats)
			p.bytes += res.bytes
		}
		if time.Since(chunk.at) >= chunkMin {
			closeChunk()
		}
	}
	closeChunk()
	runtime.ReadMemStats(&p.mem1)
}

// p50MS is the median guest time per verdict over the units.
func (p *phase) p50MS() float64 { return median(guestTimes(p.samples)) }

// perSecond is verdicts ÷ summed guest time of the units.
func (p *phase) perSecond() float64 {
	var verdicts, busyMS float64
	for _, s := range p.samples {
		verdicts += s.weight
		busyMS += s.guestTime() * s.weight
	}
	return ratio(verdicts, busyMS/1e3)
}

const mib = 1 << 20

// measureWorkload is one run: compute the expected answers, set the workload
// up, measure for the given time, report. host is the probe taken before.
func measureWorkload(def workloadDef, host hostProbe, seed int64, seconds float64, trace bool, sz sizing, outDir string) (*run, error) {
	r := &run{workload: def.name, seed: seed, host: host}
	w, err := def.new(seed, sz)
	if err != nil {
		return nil, fmt.Errorf("expected answers of %s: %w", def.name, err)
	}

	// Set-up: input generation, program boot, one warm-up unit whose verdict
	// must already be right.
	total := time.Duration(seconds * float64(time.Second))
	var inst instance
	var setups []sample
	setupStart := time.Now()
	setupBudget := time.Duration(setupShare * float64(total))
	for k := 0; k < setupRepeats || (time.Since(setupStart) < setupBudget && k < maxSetups); k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			// The last set-up's garbage must not count towards this one's
			// peak RSS.
			runtime.GC()
		}
		clock := readHostClock()
		if inst, err = w.open(); err != nil {
			return nil, fmt.Errorf("setting %s up: %w", def.name, err)
		}
		if _, err := inst.unit(0, nil); err != nil {
			_ = inst.close()
			return nil, fmt.Errorf("warm-up unit of %s: %w", def.name, err)
		}
		wallMS, _, got := clock.since()
		setups = append(setups, sample{value: wallMS / 1e3, got: got})
		if trace {
			break // the traced run reports no set-up time
		}
	}
	defer inst.close()

	r.result.Metrics = map[string]metricValue{}
	if !trace {
		var p phase
		p.measure(inst, 1, total, nil)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		values := map[string]float64{
			"setup_s":              median(guestTimes(setups)),
			"verdict_ms_p50":       p.p50MS(),
			"peak_rss_mb":          rss,
			"alloc_mb_per_verdict": ratio(float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc)/mib, float64(p.verdicts)),
		}
		for _, d := range endToEnd {
			r.result.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
		r.finish(&p)
		return r, nil
	}

	// Traced run: a third of the time plain, for the overhead ratio, then
	// the traced units the per-layer metrics come from.
	var plain, traced phase
	plain.measure(inst, 1, total/3, nil)
	tr := newTracer()
	traced.measure(inst, 1+plain.units, total-total/3, tr)
	tp := &tracedPass{spans: tr.spans, units: traced.units - traced.failed, verdicts: traced.verdicts,
		stats: traced.stats, bytes: traced.bytes, busy: traced.busy,
		p50MS: traced.p50MS(), plainMS: plain.p50MS()}
	m := map[string]float64{}
	commonLayers(m, tp)
	v := float64(traced.verdicts)
	m["go.allocs_per_verdict"] = ratio(float64(traced.mem1.Mallocs-traced.mem0.Mallocs), v)
	m["go.gc_cycles"] = float64(traced.mem1.NumGC - traced.mem0.NumGC)
	m["go.gc_pause_ms_total"] = float64(traced.mem1.PauseTotalNs-traced.mem0.PauseTotalNs) / 1e6
	m["host.nproc"] = float64(r.host.nproc)
	m["host.canary_ms"] = r.host.canaryMS
	m["host.sleep_overshoot_ms_p90"] = r.host.sleepOvershootP90MS
	m["host.steal_ratio"] = ratio(traced.stolen, traced.wallMS*float64(r.host.nproc))
	m["run.verdicts_per_s"] = traced.perSecond()
	traced.failed += plain.failed
	traced.units += plain.units
	if traced.firstErr == nil {
		traced.firstErr = plain.firstErr
	}
	if traced.failed == 0 {
		// Layer read-outs assume the traced units succeeded (the service's
		// exploration count must match them exactly).
		if err := inst.layers(m, tp); err != nil {
			return nil, fmt.Errorf("per-layer metrics of %s: %w", def.name, err)
		}
	}
	for _, d := range perLayer {
		r.result.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	if r.spanFile, err = writeSpans(outDir, def.name, tr.spans); err != nil {
		return nil, err
	}
	r.finish(&traced)
	return r, nil
}

func (r *run) finish(p *phase) {
	r.firstErr = p.firstErr
	r.result.Attempted = p.units
	r.result.Failed = p.failed
	r.result.Correct = p.failed == 0
	r.stealRatio = ratio(p.stolen, p.wallMS*float64(runtime.NumCPU()))
}

// print writes the run for a reader, then the host line and the result line
// a parent run or the driver parses.
func (r *run) print(defs []metricDef) error {
	fmt.Printf("workload %s seed %d: %d units, %d failed\n", r.workload, r.seed, r.result.Attempted, r.result.Failed)
	if r.firstErr != nil {
		fmt.Printf("  first failure: %v\n", r.firstErr)
	}
	for _, d := range defs {
		fmt.Printf("  %-32s %14.6g %-6s (n=%d units; %s is better)\n", d.Name, r.result.Metrics[d.Name].Value, d.Unit, r.result.Attempted, d.Better)
	}
	if r.spanFile != "" {
		fmt.Printf("  spans written to %s\n", r.spanFile)
	}
	fmt.Printf("host nproc=%d canary_ms=%.4f sleep_overshoot_ms_p90=%.4f steal_ratio=%.4f\n",
		r.host.nproc, r.host.canaryMS, r.host.sleepOvershootP90MS, r.stealRatio)
	line, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result line (default: run the whole set)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 = traced run: spans around every layer call, per-layer metrics instead of end-to-end ones")
		runs    = flag.Int("runs", 3, "whole set only: runs per workload, each with the next seed, workloads interleaved")
		aa      = flag.Bool("aa", false, "run two whole sets of this build back to back and compare them against the bounds")
		outDir  = flag.String("out", "benchmark/out", "directory the traced run writes its span file to")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runSets(*seed, *seconds, *trace == 1, *runs, *aa, *outDir))
	}
	def, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, d := range workloadDefs {
			names = append(names, d.name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %v)\n", *name, names)
		os.Exit(2)
	}
	host, err := probeHost()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	r, err := measureWorkload(def, host, *seed, *seconds, *trace == 1, fullSize, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := r.print(defs); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !r.result.Correct {
		os.Exit(1)
	}
}

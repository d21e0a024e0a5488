package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// canarySpreadLimit is how far the host canary may spread over the runs of a
// set (quartile distance ÷ median) before the set's timings are called
// unresolved instead of being read as a change in the program. Measured on
// this host: 0.15 over a quiet set, 0.22–0.27 over sets with steal bursts.
// (max ÷ min − 1 read 0.83 on the quiet set and 10–14 on the others: one
// 50 ms probe landing in a burst decides it.)
const canarySpreadLimit = 0.20

// childRun is what the parent keeps of one child run.
type childRun struct {
	result   result
	canaryMS float64
}

// runChild executes one run of one workload in a fresh process — clean
// peak RSS, no heap carried over — and parses its host and result lines.
// The child's report is passed through for the reader.
func runChild(workload string, seed int64, seconds float64, trace bool, outDir string) (childRun, error) {
	var cr childRun
	self, err := os.Executable()
	if err != nil {
		return cr, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", traceArg, "-out", outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	last := ""
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "host ") {
			if _, err := fmt.Sscanf(line, "host nproc=%d canary_ms=%f", new(int), &cr.canaryMS); err != nil {
				return cr, fmt.Errorf("%s: host line %q: %w", workload, line, err)
			}
		}
		if !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &cr.result); err != nil {
		return cr, fmt.Errorf("%s: no result line (%v): %w", workload, runErr, err)
	}
	return cr, nil
}

// set is one whole set: every workload, runs times, interleaved so each
// workload samples several phases of the host.
type set struct {
	values       map[string]map[string][]float64 // workload → metric → one value per run
	canary       []float64
	failed, runs int
}

func runSet(seed int64, seconds float64, runs int, outDir string) (*set, error) {
	s := &set{values: map[string]map[string][]float64{}}
	for k := 0; k < runs; k++ {
		for _, def := range workloadDefs {
			cr, err := runChild(def.name, seed+int64(k), seconds, false, outDir)
			if err != nil {
				return nil, err
			}
			s.runs++
			if !cr.result.Correct {
				s.failed++
			}
			s.canary = append(s.canary, cr.canaryMS)
			if s.values[def.name] == nil {
				s.values[def.name] = map[string][]float64{}
			}
			for name, v := range cr.result.Metrics {
				s.values[def.name][name] = append(s.values[def.name][name], v.Value)
			}
		}
	}
	return s, nil
}

// canarySpread is the spread of the host canary over the set's runs.
func (s *set) canarySpread() float64 { return spread(s.canary) }

func (s *set) print(title string) {
	fmt.Printf("\n== %s: medians over %d runs per workload (spread = quartile distance ÷ median) ==\n", title, s.runs/len(workloadDefs))
	for _, def := range workloadDefs {
		for _, d := range endToEnd {
			vals := s.values[def.name][d.Name]
			fmt.Printf("%-14s %-22s %14.6g %-4s spread %5.1f%%  bound %4.1f%%\n",
				def.name, d.Name, median(vals), d.Unit, 100*spread(vals), 100*d.Bound)
		}
	}
	fmt.Printf("host.canary_spread %.3f over %d runs", s.canarySpread(), s.runs)
	if s.canarySpread() > canarySpreadLimit {
		fmt.Printf(" — above %.2f: the host drifted, timings of this set are UNRESOLVED", canarySpreadLimit)
	}
	fmt.Println()
}

// worsening is how much worse b's median is than a's, as a share of a's.
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// runSets is the whole-set command: one set, optionally a traced run per
// workload after it, or (aa) two sets compared against the bounds. It
// returns the process exit code.
func runSets(seed int64, seconds float64, trace bool, runs int, aa bool, outDir string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	a, err := runSet(seed, seconds, runs, outDir)
	if err != nil {
		return fail(err)
	}
	a.print("set A")
	code := 0
	if a.failed > 0 {
		fmt.Printf("%d of %d runs had failed verdicts\n", a.failed, a.runs)
		code = 1
	}
	if trace {
		for _, def := range workloadDefs {
			cr, err := runChild(def.name, seed, seconds, true, outDir)
			if err != nil {
				return fail(err)
			}
			if !cr.result.Correct {
				code = 1
			}
		}
	}
	if !aa {
		return code
	}

	// A/A: the same build again. Every end-to-end metric must repeat within
	// its bound, both run to run (spread) and set to set (medians).
	b, err := runSet(seed, seconds, runs, outDir)
	if err != nil {
		return fail(err)
	}
	b.print("set B")
	if b.failed > 0 {
		code = 1
	}
	fmt.Printf("\n== A/A: set B against set A ==\n")
	excess := 0
	for _, def := range workloadDefs {
		for _, d := range endToEnd {
			va, vb := a.values[def.name][d.Name], b.values[def.name][d.Name]
			worse := worsening(d, median(va), median(vb))
			verdict := "ok"
			// setup_s is held to its bound between sets only: its
			// run-to-run spread is not gated.
			if worse > d.Bound || (d.Name != "setup_s" && (spread(va) > d.Bound || spread(vb) > d.Bound)) {
				verdict = "EXCEEDS BOUND"
				excess++
			}
			fmt.Printf("%-14s %-22s A %12.6g  B %12.6g  worse by %6.2f%%  bound %4.1f%%  %s\n",
				def.name, d.Name, median(va), median(vb), 100*worse, 100*d.Bound, verdict)
		}
	}
	if drift := a.canarySpread() > canarySpreadLimit || b.canarySpread() > canarySpreadLimit; drift && excess > 0 {
		fmt.Printf("%d metrics exceed their bound, but the host canary drifted: UNRESOLVED, not failed\n", excess)
		return code
	}
	if excess > 0 {
		fmt.Printf("%d metrics exceed their bound\n", excess)
		return 1
	}
	return code
}

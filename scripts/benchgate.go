// Command benchgate turns raw `go test -bench` output into a pass/fail CI
// verdict against a checked-in baseline.
//
// The gate is intentionally asymmetric, matching what is actually stable on
// shared runners:
//
//   - allocs/op is an EXACT ceiling: the gated benchmarks run the sequential
//     engine with fixed seeds, so their allocation counts are deterministic.
//     Any increase is a real regression (usually a pooled object escaping the
//     recycling protocol) and fails the gate. A decrease passes with a notice
//     to refresh the baseline. Benchmarks whose compile phase makes the count
//     wobble by a few (map iteration order) carry a small explicit
//     allocs_slack in the baseline instead of loosening the whole gate.
//   - B/op is a NEAR-EXACT ceiling (bytes_op + bytes_slack) on entries that
//     set bytes_op: stored-zone compression is a headline number of this
//     repo, so a memory regression must fail CI like an alloc leak does. The
//     small slack absorbs size-class rounding and compile-phase map wobble.
//   - ns/op is a GENEROUS ceiling: baseline × -ns-factor (default 4). Shared
//     runners are noisy, so only catastrophic slowdowns (accidental O(n³)
//     re-closure, lost pooling) should trip it.
//   - A gated benchmark missing from the output fails, so renaming or
//     deleting a benchmark cannot silently drop it from the gate.
//
// Multiple -count runs are aggregated by MINIMUM, the least noisy statistic
// for both metrics.
//
// Usage:
//
//	go test -run XXX -bench 'Table1_...' -benchtime=20x -count=3 . | tee bench.txt
//	go run ./scripts -baseline scripts/bench_baseline.json bench.txt
//
// Refresh the baseline after an intentional perf change with:
//
//	go run ./scripts -baseline scripts/bench_baseline.json -update bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type baselineEntry struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op"`
	// AllocsSlack widens the allocs/op ceiling for benchmarks whose counts
	// are not bit-deterministic (map iteration order during model compile
	// shifts a few allocations run to run). Zero means exact. Real
	// regressions — pooled objects escaping their recycling protocol — cost
	// at least one allocation per stored state, thousands here, so a slack
	// of a few dozen keeps the gate meaningful.
	AllocsSlack float64 `json:"allocs_slack,omitempty"`
	// BytesOp, when nonzero, gates B/op as a ceiling of bytes_op+bytes_slack.
	// The gated sweeps are sequential and seeded, so their allocated bytes
	// move only with real footprint changes; the slack covers allocator
	// size-class rounding, not regressions.
	BytesOp    float64 `json:"bytes_op,omitempty"`
	BytesSlack float64 `json:"bytes_slack,omitempty"`
}

type baseline struct {
	// NsFactor is the slowdown tolerated on ns/op before failing; allocs/op
	// has no tolerance. A -ns-factor flag overrides it.
	NsFactor   float64                  `json:"ns_factor"`
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

type measurement struct {
	ns       float64
	allocs   float64
	bytes    float64
	hasNs    bool
	hasAll   bool
	hasBytes bool
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s`)

func main() {
	basePath := flag.String("baseline", "scripts/bench_baseline.json", "baseline JSON path")
	update := flag.Bool("update", false, "rewrite the baseline from the measured values instead of gating")
	nsFactor := flag.Float64("ns-factor", 0, "override the baseline's ns/op tolerance factor (0 = use baseline)")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in input"))
	}

	if *update {
		if err := writeBaseline(*basePath, got, *nsFactor); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: wrote %s with %d benchmarks\n", *basePath, len(got))
		return
	}

	data, err := os.ReadFile(*basePath)
	if err != nil {
		fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *basePath, err))
	}
	factor := base.NsFactor
	if *nsFactor > 0 {
		factor = *nsFactor
	}
	if factor <= 0 {
		factor = 4
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		want := base.Benchmarks[name]
		m, ok := got[name]
		switch {
		case !ok:
			fmt.Printf("FAIL %s: gated benchmark missing from output\n", name)
			failed = true
			continue
		case !m.hasAll:
			fmt.Printf("FAIL %s: no allocs/op in output (run with -benchmem or b.ReportAllocs)\n", name)
			failed = true
			continue
		}
		pass := true
		if m.allocs > want.AllocsOp+want.AllocsSlack {
			fmt.Printf("FAIL %s: allocs/op %.0f > baseline %.0f+%.0f slack\n",
				name, m.allocs, want.AllocsOp, want.AllocsSlack)
			pass = false
		} else if m.allocs < want.AllocsOp {
			fmt.Printf("note %s: allocs/op improved %.0f -> %.0f; refresh the baseline (benchgate -update)\n",
				name, want.AllocsOp, m.allocs)
		}
		if want.BytesOp > 0 {
			switch {
			case !m.hasBytes:
				fmt.Printf("FAIL %s: no B/op in output (run with -benchmem or b.ReportAllocs)\n", name)
				pass = false
			case m.bytes > want.BytesOp+want.BytesSlack:
				fmt.Printf("FAIL %s: B/op %.0f > baseline %.0f+%.0f slack\n",
					name, m.bytes, want.BytesOp, want.BytesSlack)
				pass = false
			case m.bytes < want.BytesOp:
				fmt.Printf("note %s: B/op improved %.0f -> %.0f; refresh the baseline (benchgate -update)\n",
					name, want.BytesOp, m.bytes)
			}
		}
		limit := want.NsOp * factor
		if m.ns > limit {
			fmt.Printf("FAIL %s: ns/op %.0f > %.0f (baseline %.0f × factor %g)\n",
				name, m.ns, limit, want.NsOp, factor)
			pass = false
		}
		if pass {
			fmt.Printf("ok   %s: allocs/op %.0f (baseline %.0f), ns/op %.0f (limit %.0f)\n",
				name, m.allocs, want.AllocsOp, m.ns, limit)
		} else {
			failed = true
		}
	}
	if failed {
		fmt.Println("benchgate: FAILED")
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d/%d gated benchmarks within bounds\n", len(names), len(names))
}

// parseBench extracts per-benchmark minima from `go test -bench` text.
func parseBench(in io.Reader) (map[string]measurement, error) {
	out := map[string]measurement{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		match := benchLine.FindStringSubmatch(line)
		if match == nil {
			continue
		}
		name := match[1]
		fields := strings.Fields(line)
		m := out[name]
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				if !m.hasNs || v < m.ns {
					m.ns = v
				}
				m.hasNs = true
			case "allocs/op":
				if !m.hasAll || v < m.allocs {
					m.allocs = v
				}
				m.hasAll = true
			case "B/op":
				if !m.hasBytes || v < m.bytes {
					m.bytes = v
				}
				m.hasBytes = true
			}
		}
		out[name] = m
	}
	return out, sc.Err()
}

func writeBaseline(path string, got map[string]measurement, nsFactor float64) error {
	if nsFactor <= 0 {
		nsFactor = 4
	}
	b := baseline{NsFactor: nsFactor, Benchmarks: map[string]baselineEntry{}}
	// Carry slack settings (and a hand-set ns factor) over from an existing
	// baseline so -update refreshes the numbers without losing the policy.
	if data, err := os.ReadFile(path); err == nil {
		var old baseline
		if json.Unmarshal(data, &old) == nil {
			if nsFactor == 4 && old.NsFactor > 0 {
				b.NsFactor = old.NsFactor
			}
			for name, m := range got {
				if o, ok := old.Benchmarks[name]; ok {
					e := baselineEntry{NsOp: m.ns, AllocsOp: m.allocs, AllocsSlack: o.AllocsSlack}
					// A benchmark opts into the bytes gate by carrying
					// bytes_op in the baseline; -update refreshes the number
					// and keeps the slack policy.
					if o.BytesOp > 0 {
						e.BytesOp = m.bytes
						e.BytesSlack = o.BytesSlack
					}
					b.Benchmarks[name] = e
				}
			}
		}
	}
	for name, m := range got {
		if _, ok := b.Benchmarks[name]; !ok {
			b.Benchmarks[name] = baselineEntry{NsOp: m.ns, AllocsOp: m.allocs}
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}

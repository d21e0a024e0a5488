// Command benchgate turns raw `go test -bench` output into a pass/fail CI
// verdict against a checked-in baseline.
//
// The gate holds only what is stable on shared runners — memory, not time
// (time is judged by the repository's benchmark, `bash benchmark/run.sh`):
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
//   - A gated benchmark missing from the output fails, so renaming or
//     deleting a benchmark cannot silently drop it from the gate.
//
// Multiple -count runs are aggregated by MINIMUM, the least noisy statistic
// for both metrics.
//
// Usage:
//
//	go test -run '^$' -bench 'Table1_...' -benchtime=20x -count=3 . | tee bench.txt
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
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

type measurement struct {
	allocs   float64
	bytes    float64
	hasAll   bool
	hasBytes bool
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s`)

func main() {
	basePath := flag.String("baseline", "scripts/bench_baseline.json", "baseline JSON path")
	update := flag.Bool("update", false, "rewrite the baseline from the measured values instead of gating")
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
		if err := writeBaseline(*basePath, got); err != nil {
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
		if pass {
			fmt.Printf("ok   %s: allocs/op %.0f (baseline %.0f), B/op %.0f (baseline %.0f)\n",
				name, m.allocs, want.AllocsOp, m.bytes, want.BytesOp)
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

func writeBaseline(path string, got map[string]measurement) error {
	// Carry the slack settings over from an existing baseline so -update
	// refreshes the numbers without losing the policy. A benchmark opts into
	// the bytes gate by carrying bytes_op there.
	var old baseline
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &old) != nil {
		old = baseline{}
	}
	b := baseline{Benchmarks: map[string]baselineEntry{}}
	for name, m := range got {
		e := baselineEntry{AllocsOp: m.allocs}
		if o, ok := old.Benchmarks[name]; ok {
			e.AllocsSlack = o.AllocsSlack
			if o.BytesOp > 0 {
				e.BytesOp = m.bytes
				e.BytesSlack = o.BytesSlack
			}
		}
		b.Benchmarks[name] = e
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

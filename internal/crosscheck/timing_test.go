package crosscheck

import (
	"math/big"
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/symta"
)

const (
	// arrival is testdata/tiny.json's one arrival model.
	arrival = `{"kind": "po", "period_ms": "100", "offset_ms": "0"}`
	huge    = "4611686018427387904" // 2^62
)

// TestOutOfRangeTimesRefusedByEveryEngine edits one field of
// testdata/tiny.json beyond what the timing view accepts (2^62 ms is beyond
// the largest clock constant at any scale) and asks all four engines:
// each must refuse the system with an error that names the field. None may
// panic, and none may read the value as 0 or wrap it, the way the simulator
// and real-time calculus did while each converted times on its own.
func TestOutOfRangeTimesRefusedByEveryEngine(t *testing.T) {
	const bus = `{"name": "BUS", "kbit_per_sec": 8, "sched": "fp"}`
	for _, c := range []struct {
		name, old, new, field string
	}{
		{"bursty jitter", arrival, `{"kind": "bur", "period_ms": "100", "jitter_ms": "` + huge + `"}`,
			"scenario job jitter_ms"},
		{"pno period", arrival, `{"kind": "pno", "period_ms": "` + huge + `"}`,
			"scenario job period_ms"},
		{"po period", arrival, `{"kind": "po", "period_ms": "` + huge + `", "offset_ms": "0"}`,
			"scenario job period_ms"},
		{"po offset", arrival, `{"kind": "po", "period_ms": "100", "offset_ms": "` + huge + `"}`,
			"scenario job offset_ms"},
		{"sporadic period", arrival, `{"kind": "sp", "period_ms": "` + huge + `"}`,
			"scenario job period_ms"},
		{"TDMA cycle", bus, `{"name": "BUS", "kbit_per_sec": 8, "sched": "tdma", "tdma": {"cycle_ms": "` + huge +
			`", "slots": [{"scenario": "job", "start_ms": "0", "end_ms": "10"}]}}`,
			"bus BUS cycle_ms"},
		// bytes·8 and MIPS·1000 once wrapped in int64: the first read as
		// 21 ms, the second divided by zero.
		{"bytes", `"bytes": 10`, `"bytes": 2305843009213693953`, "step job.msg duration"},
		{"mips", `"mips": 10,`, `"mips": 2305843009213693952,`, "too fine"},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys, reqs, err := parseTiny(t, c.old, c.new)
			if err != nil {
				t.Fatalf("the edited system must parse: %v", err)
			}
			for _, e := range engineErrors(sys, reqs) {
				if e.err == nil || !strings.Contains(e.err.Error(), c.field) {
					t.Errorf("%s: err = %v, want an error naming %q", e.name, e.err, c.field)
				}
			}
		})
	}
}

// TestBurstyMinSepBelowPeriod: a bursty arrival whose minimal separation is
// not below its period is not a system. Parsing refuses it, and every engine
// handed it through the API refuses it with the same error, instead of some
// reading a bound off it. A separation of 2^62 ms is refused here too, before
// any conversion could find it out of range.
func TestBurstyMinSepBelowPeriod(t *testing.T) {
	const want = "arch: scenario job min_sep_ms: bursty minimal separation must be below the period"
	for _, minSep := range []string{"150", "100", huge} {
		t.Run(minSep, func(t *testing.T) {
			bursty := `{"kind": "bur", "period_ms": "100", "jitter_ms": "300", "min_sep_ms": "` + minSep + `"}`
			if _, _, err := parseTiny(t, arrival, bursty); err == nil || err.Error() != want {
				t.Errorf("ParseSystem: err = %v, want %q", err, want)
			}
			sys, reqs, err := parseTiny(t, arrival, arrival) // tiny.json as it is
			if err != nil {
				t.Fatal(err)
			}
			d, _ := new(big.Rat).SetString(minSep)
			sys.Scenarios[0].Arrival = arch.Bursty(arch.MS(100, 1), arch.MS(300, 1), d)
			for _, e := range engineErrors(sys, reqs) {
				if e.err == nil || e.err.Error() != want {
					t.Errorf("%s: err = %v, want %q", e.name, e.err, want)
				}
			}
		})
	}
}

// parseTiny parses testdata/tiny.json with old replaced by new.
func parseTiny(t *testing.T, old, new string) (*arch.System, []*arch.Requirement, error) {
	t.Helper()
	base, err := os.ReadFile("../../testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(base), old) {
		t.Fatalf("tiny.json has no %s", old)
	}
	return arch.ParseSystem([]byte(strings.Replace(string(base), old, new, 1)))
}

type engineError struct {
	name string
	err  error
}

// engineErrors returns what each of the four engines answers sys with.
func engineErrors(sys *arch.System, reqs []*arch.Requirement) []engineError {
	_, compileErr := arch.CompileAll(sys, reqs, arch.Options{})
	_, simErr := sim.Simulate(sys, reqs, sim.Options{Seed: 1, HorizonMS: 1000, Replications: 1})
	_, symtaErr := symta.Analyze(sys, reqs)
	_, rtcErr := rtc.Analyze(sys, reqs)
	return []engineError{{"CompileAll", compileErr}, {"sim", simErr}, {"symta", symtaErr}, {"rtc", rtcErr}}
}

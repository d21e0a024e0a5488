package crosscheck

import (
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/symta"
)

// TestOutOfRangeTimesRefusedByEveryEngine edits one field of
// testdata/tiny.json beyond what the timing view accepts (2^62 ms is beyond
// the largest clock constant at any scale) and asks all four engines:
// each must refuse the system with an error that names the field. None may
// panic, and none may read the value as 0 or wrap it, the way the simulator
// and real-time calculus did while each converted times on its own.
func TestOutOfRangeTimesRefusedByEveryEngine(t *testing.T) {
	base, err := os.ReadFile("../../testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	const (
		arrival = `{"kind": "po", "period_ms": "100", "offset_ms": "0"}`
		bus     = `{"name": "BUS", "kbit_per_sec": 8, "sched": "fp"}`
		huge    = "4611686018427387904" // 2^62
	)
	for _, c := range []struct {
		name, old, new, field string
	}{
		{"bursty jitter", arrival, `{"kind": "bur", "period_ms": "100", "jitter_ms": "` + huge + `"}`,
			"scenario job jitter_ms"},
		{"bursty min separation", arrival, `{"kind": "bur", "period_ms": "100", "jitter_ms": "300", "min_sep_ms": "` + huge + `"}`,
			"scenario job min_sep_ms"},
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
			if !strings.Contains(string(base), c.old) {
				t.Fatalf("tiny.json has no %s", c.old)
			}
			sys, reqs, err := arch.ParseSystem([]byte(strings.Replace(string(base), c.old, c.new, 1)))
			if err != nil {
				t.Fatalf("the edited system must parse: %v", err)
			}
			engines := []struct {
				name string
				run  func() error
			}{
				{"CompileAll", func() error { _, err := arch.CompileAll(sys, reqs, arch.Options{}); return err }},
				{"sim", func() error {
					_, err := sim.Simulate(sys, reqs, sim.Options{Seed: 1, HorizonMS: 1000, Replications: 1})
					return err
				}},
				{"symta", func() error { _, err := symta.Analyze(sys, reqs); return err }},
				{"rtc", func() error { _, err := rtc.Analyze(sys, reqs); return err }},
			}
			for _, e := range engines {
				err := e.run()
				if err == nil || !strings.Contains(err.Error(), c.field) {
					t.Errorf("%s: err = %v, want an error naming %q", e.name, err, c.field)
				}
			}
		})
	}
}

package arch

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dbm"
)

const pipelineJSON = `{
  "name": "pipe",
  "processors": [
    {"name": "A", "mips": 10, "sched": "fp"},
    {"name": "B", "mips": 20, "sched": "fp-preemptive"}
  ],
  "buses": [{"name": "BUS", "kbit_per_sec": 8, "sched": "fp"}],
  "scenarios": [{
    "name": "job", "priority": 1,
    "arrival": {"kind": "po", "period_ms": "100", "offset_ms": "0"},
    "steps": [
      {"name": "opA", "processor": "A", "instructions": 100000},
      {"name": "msg", "bus": "BUS", "bytes": 10},
      {"name": "opB", "processor": "B", "instructions": 200000}
    ]
  }],
  "requirements": [{"name": "e2e", "scenario": "job", "from": -1, "to": 2}]
}`

func TestParseSystemRoundTrip(t *testing.T) {
	sys, reqs, err := ParseSystem([]byte(pipelineJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Processors) != 2 || len(sys.Buses) != 1 || len(sys.Scenarios) != 1 {
		t.Fatalf("unexpected shape: %+v", sys)
	}
	if sys.Processors[1].Sched != SchedFPPreempt {
		t.Error("scheduler not parsed")
	}
	if len(reqs) != 1 || reqs[0].Name != "e2e" {
		t.Fatalf("requirements not parsed: %+v", reqs)
	}
	res := mustWCRT(t, sys, reqs[0], Options{HorizonMS: 100}, core.Options{})
	if res.MS.RatString() != "30" {
		t.Errorf("parsed pipeline WCRT = %s, want 30", res.MS.RatString())
	}
}

func TestParseSystemRationalTimes(t *testing.T) {
	js := `{
	  "name": "x",
	  "processors": [{"name": "P", "mips": 22}],
	  "scenarios": [{
	    "name": "s", "priority": 1,
	    "arrival": {"kind": "po", "period_ms": "125/4"},
	    "steps": [{"name": "op", "processor": "P", "instructions": 100000}]
	  }]
	}`
	sys, _, err := ParseSystem([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Scenarios[0].Arrival.PeriodMS.RatString() != "125/4" {
		t.Errorf("period = %s", sys.Scenarios[0].Arrival.PeriodMS.RatString())
	}
}

func TestParseSystemErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"name":"x","scenarios":[{"name":"s","priority":1,
		  "arrival":{"kind":"warp","period_ms":"10"},
		  "steps":[{"name":"op","processor":"P","instructions":1}]}]}`,
		`{"name":"x","scenarios":[{"name":"s","priority":1,
		  "arrival":{"kind":"po","period_ms":"10"},
		  "steps":[{"name":"op","processor":"NOPE","instructions":1}]}]}`,
		`{"name":"x","processors":[{"name":"P","mips":1,"sched":"quantum"}]}`,
		`{"name":"x","processors":[{"name":"P","mips":1},{"name":"P","mips":2}]}`,
		`{"name":"x","processors":[{"name":"P","mips":1}],
		  "scenarios":[{"name":"s","priority":1,
		  "arrival":{"kind":"po","period_ms":"ten"},
		  "steps":[{"name":"op","processor":"P","instructions":1}]}]}`,
		`{"name":"x","processors":[{"name":"P","mips":1}],
		  "scenarios":[{"name":"s","priority":1,
		  "arrival":{"kind":"po","period_ms":"10"},
		  "steps":[{"name":"op","processor":"P","bus":"B","instructions":1}]}]}`,
		`{"name":"x","processors":[{"name":"P","mips":1}],
		  "scenarios":[{"name":"s","priority":1,
		  "arrival":{"kind":"po","period_ms":"10"},
		  "steps":[{"name":"op","processor":"P","instructions":1}]}],
		  "requirements":[{"name":"r","scenario":"ghost","from":-1,"to":0}]}`,
	}
	for i, js := range cases {
		if _, _, err := ParseSystem([]byte(js)); err == nil {
			t.Errorf("case %d: expected a parse/validation error", i)
		}
	}
}

// TestMarshalSystemRoundTrip pins MarshalSystem as the inverse of
// ParseSystem: marshalling a parsed system re-parses to an equivalent
// description (fixed point after one marshal), and the re-parsed copy
// analyzes to bit-identical verdicts. want is the first requirement's WCRT in
// ms, so a field the parser ignored cannot pass by being lost on both sides.
func TestMarshalSystemRoundTrip(t *testing.T) {
	for name, row := range map[string]struct{ src, want string }{
		"pipeline": {pipelineJSON, "30"},
		"tdma": {`{
		  "name": "t",
		  "buses": [{"name": "B", "kbit_per_sec": 8, "sched": "tdma",
		    "tdma": {"cycle_ms": "20", "slots": [
		      {"scenario": "s", "start_ms": "0", "end_ms": "5"}]}}],
		  "scenarios": [{"name": "s", "priority": 1,
		    "arrival": {"kind": "sp", "period_ms": "50"},
		    "steps": [{"name": "m", "bus": "B", "bytes": 3}]}],
		  "requirements": [{"name": "e", "scenario": "s", "from": -1, "to": 0}]
		}`, "23"},
		// A step with its own priority: a's only step outranks b (5 ms alone);
		// at the scenario's priority 1 it would wait for b as well (15 ms).
		"step-priority": {`{
		  "name": "sp",
		  "processors": [{"name": "P", "mips": 10, "sched": "fp-preemptive"}],
		  "scenarios": [
		    {"name": "a", "priority": 1,
		     "arrival": {"kind": "pno", "period_ms": "20"},
		     "steps": [{"name": "op", "processor": "P", "instructions": 50000, "priority": 3}]},
		    {"name": "b", "priority": 2,
		     "arrival": {"kind": "pno", "period_ms": "40"},
		     "steps": [{"name": "op", "processor": "P", "instructions": 100000}]}],
		  "requirements": [{"name": "e", "scenario": "a", "from": -1, "to": 0}]
		}`, "5"},
		"rational-bursty": {`{
		  "name": "x",
		  "processors": [{"name": "P", "mips": 22}],
		  "scenarios": [{
		    "name": "s", "priority": 1,
		    "arrival": {"kind": "bur", "period_ms": "125/4", "jitter_ms": "125/2", "min_sep_ms": "0"},
		    "steps": [{"name": "op", "processor": "P", "instructions": 100000}]
		  }],
		  "requirements": [{"name": "e", "scenario": "s", "from": -1, "to": 0}]
		}`, "150/11"},
	} {
		sys, reqs, err := ParseSystem([]byte(row.src))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		out, err := MarshalSystem(sys, reqs)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		sys2, reqs2, err := ParseSystem(out)
		if err != nil {
			t.Fatalf("%s: re-parse of marshalled output: %v\n%s", name, err, out)
		}
		out2, err := MarshalSystem(sys2, reqs2)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if string(out) != string(out2) {
			t.Errorf("%s: marshal not a fixed point after one round trip:\n%s\nvs\n%s", name, out, out2)
		}
		cs1, err := CompileAll(sys, reqs, Options{HorizonMS: 200})
		if err != nil {
			t.Fatalf("%s: compile original: %v", name, err)
		}
		a1, err := cs1.Analyze(core.Options{})
		if err != nil {
			t.Fatalf("%s: analyze original: %v", name, err)
		}
		cs2, err := CompileAll(sys2, reqs2, Options{HorizonMS: 200})
		if err != nil {
			t.Fatalf("%s: compile round-tripped: %v", name, err)
		}
		a2, err := cs2.Analyze(core.Options{})
		if err != nil {
			t.Fatalf("%s: analyze round-tripped: %v", name, err)
		}
		if got := a1.Results[0].MS.RatString(); got != row.want {
			t.Errorf("%s: %s = %s ms, want %s", name, reqs[0].Name, got, row.want)
		}
		for i := range a1.Results {
			r1, r2 := a1.Results[i], a2.Results[i]
			if r1.MS.Cmp(r2.MS) != 0 || r1.Attained != r2.Attained || r1.Exact != r2.Exact ||
				r1.BeyondHorizon != r2.BeyondHorizon {
				t.Errorf("%s: %s: round-tripped verdict %s differs from original %s",
					name, r1.Req.Name, r2.MS.RatString(), r1.MS.RatString())
			}
		}
	}
}

// TestMarshalSystemProgrammatic covers a builder-constructed system (the
// path the service oracle uses for the case-study models): marshal, parse,
// and compare the analysis verdicts.
func TestMarshalSystemProgrammatic(t *testing.T) {
	sys, hi, lo := contended(SchedFPPreempt)
	reqs := []*Requirement{EndToEnd("hi", hi), EndToEnd("lo", lo)}
	data, err := MarshalSystem(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	sys2, reqs2, err := ParseSystem(data)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, data)
	}
	cs1, err := CompileAll(sys, reqs, Options{HorizonMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := cs1.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := CompileAll(sys2, reqs2, Options{HorizonMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cs2.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Results {
		if a1.Results[i].MS.Cmp(a2.Results[i].MS) != 0 {
			t.Errorf("%s: %s != %s after round trip",
				reqs[i].Name, a1.Results[i].MS.RatString(), a2.Results[i].MS.RatString())
		}
	}
}

func TestParseSystemTDMA(t *testing.T) {
	js := `{
	  "name": "t",
	  "buses": [{"name": "B", "kbit_per_sec": 8, "sched": "tdma",
	    "tdma": {"cycle_ms": "20", "slots": [
	      {"scenario": "s", "start_ms": "0", "end_ms": "5"}]}}],
	  "scenarios": [{"name": "s", "priority": 1,
	    "arrival": {"kind": "sp", "period_ms": "50"},
	    "steps": [{"name": "m", "bus": "B", "bytes": 3}]}],
	  "requirements": [{"name": "e", "scenario": "s", "from": -1, "to": 0}]
	}`
	sys, reqs, err := ParseSystem([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Buses[0].TDMA == nil || len(sys.Buses[0].TDMA.Slots) != 1 {
		t.Fatal("TDMA table not parsed")
	}
	res := mustWCRT(t, sys, reqs[0], Options{HorizonMS: 200}, core.Options{})
	if res.MS.RatString() != "23" {
		t.Errorf("parsed TDMA WCRT = %s, want 23", res.MS.FloatString(3))
	}
	// Slot referencing an unknown scenario must fail.
	bad := `{"name":"t","buses":[{"name":"B","kbit_per_sec":8,"sched":"tdma",
	  "tdma":{"cycle_ms":"20","slots":[{"scenario":"ghost","start_ms":"0","end_ms":"5"}]}}],
	  "scenarios":[{"name":"s","priority":1,"arrival":{"kind":"sp","period_ms":"50"},
	  "steps":[{"name":"m","bus":"B","bytes":3}]}]}`
	if _, _, err := ParseSystem([]byte(bad)); err == nil {
		t.Error("unknown slot scenario must be rejected")
	}
}

// TestCompileClockConstantEdges pins both sides of dbm.MaxConstant for the
// time values of a system description: a value of exactly the largest clock
// constant in model time units compiles, one unit more is refused by name —
// the field, and the scenario it belongs to — instead of wrapping into a
// negative or infinite bound.
func TestCompileClockConstantEdges(t *testing.T) {
	const max = int64(dbm.MaxConstant)
	cases := []struct {
		name, arrival, field string
		horizon              bool
	}{
		{"po period", `{"kind": "po", "period_ms": "%d", "offset_ms": "0"}`, "scenario job period_ms", false},
		{"pno period", `{"kind": "pno", "period_ms": "%d"}`, "scenario job period_ms", false},
		{"sp period", `{"kind": "sp", "period_ms": "%d"}`, "scenario job period_ms", false},
		{"horizon", `{"kind": "po", "period_ms": "100", "offset_ms": "0"}`, "requirement e2e horizon", true},
	}
	for _, c := range cases {
		for _, k := range []int64{max, max + 1} {
			js := strings.Replace(pipelineJSON, `{"kind": "po", "period_ms": "100", "offset_ms": "0"}`,
				strings.ReplaceAll(c.arrival, "%d", fmt.Sprint(k)), 1)
			sys, reqs, err := ParseSystem([]byte(js))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var opts Options
			if c.horizon {
				opts.HorizonMS = k
			}
			_, err = CompileAll(sys, reqs, opts)
			if k == max {
				if err != nil {
					t.Errorf("%s: the largest constant %d is refused: %v", c.name, k, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), c.field) || !strings.Contains(err.Error(), fmt.Sprint(max)) {
				t.Errorf("%s: %d compiles to %v, want a refusal naming %q and the largest constant", c.name, k, err, c.field)
			}
		}
	}
}

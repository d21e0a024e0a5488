package arch

import (
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// witness computes the requirement's WCRT and then a critical-instant trace
// for it, the two steps every caller of WitnessForResult runs.
func witness(t *testing.T, sys *System, req *Requirement) (string, WCRTResult) {
	t.Helper()
	copts := Options{HorizonMS: 100}
	res := mustWCRT(t, sys, req, copts, core.Options{})
	trace, err := WitnessForResult(sys, req, res, copts, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return trace, res
}

func TestWitnessForResultTrace(t *testing.T) {
	// The non-preemptive blocking case: the witness must show lo being
	// dispatched before hi, the trace ending at the observer's seen state.
	sys, hi, _ := contended(SchedFP)
	trace, res := witness(t, sys, EndToEnd("hi", hi))
	if res.MS.RatString() != "15" {
		t.Fatalf("witness WCRT = %s, want 15", res.MS.RatString())
	}
	if !strings.Contains(trace, "run_lo.lop") {
		t.Errorf("critical-instant trace must show the blocking lo job:\n%s", trace)
	}
	if !strings.Contains(trace, "OBS.watch->seen") {
		t.Errorf("trace must end at the observer's seen transition:\n%s", trace)
	}
}

func TestWitnessForResultUncontended(t *testing.T) {
	sys, req := pipeline(Sporadic(MS(100, 1)))
	trace, res := witness(t, sys, req)
	if res.MS.RatString() != "30" {
		t.Fatalf("witness WCRT = %s, want 30", res.MS.RatString())
	}
	for _, step := range []string{"opA", "msg", "opB"} {
		if !strings.Contains(trace, step) {
			t.Errorf("trace missing step %s:\n%s", step, trace)
		}
	}
}

// TestCheckDeadlockFreeTiny runs what `archcheck -deadlock` runs on the
// checked-in tiny model: the compiled system never wedges, sequentially or on
// the parallel frontier.
func TestCheckDeadlockFreeTiny(t *testing.T) {
	data, err := os.ReadFile("../../testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	sys, reqs, err := ParseSystem(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, err := CheckDeadlockFree(sys, reqs[0], Options{HorizonMS: 100}, core.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Free || res.Trace != "" {
			t.Errorf("workers=%d: free=%v with trace %q, want deadlock-free and no trace", workers, res.Free, res.Trace)
		}
		if res.Stats.Stored == 0 || res.Stats.Popped == 0 || res.Stats.Transitions == 0 {
			t.Errorf("workers=%d: sweep reports no work: %s", workers, res.Stats)
		}
	}
}

func TestSystemDOT(t *testing.T) {
	sys, _ := pipeline(Sporadic(MS(100, 1)))
	dot := sys.DOT()
	for _, want := range []string{"digraph", "10 MIPS", "8 kbit/s", "opA", "msg", "opB", "sp(P=100)"} {
		if !strings.Contains(dot, want) {
			t.Errorf("deployment DOT missing %q", want)
		}
	}
	tsys, _ := tdmaSystem(t)
	if !strings.Contains(tsys.DOT(), "cycle 20 ms") {
		t.Error("TDMA slot table must render")
	}
}

package arch

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// witness computes the requirement's WCRT and then a critical-instant trace
// for it on the same compiled set.
func witness(t *testing.T, sys *System, req *Requirement) (string, WCRTResult) {
	t.Helper()
	cs, err := CompileAll(sys, []*Requirement{req}, Options{HorizonMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := cs.Witness(0, all.Results[0], core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return trace, all.Results[0]
}

func TestWitnessTrace(t *testing.T) {
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

func TestWitnessUncontended(t *testing.T) {
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

// tinySystem parses the checked-in two-requirement tiny model.
func tinySystem(t *testing.T) (*System, []*Requirement) {
	t.Helper()
	data, err := os.ReadFile("../../testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	sys, reqs, err := ParseSystem(data)
	if err != nil {
		t.Fatal(err)
	}
	return sys, reqs
}

// TestDeadlockFreeTiny runs what `archcheck -deadlock` runs on the
// checked-in tiny model: the compiled system never wedges, sequentially or on
// the parallel frontier.
func TestDeadlockFreeTiny(t *testing.T) {
	sys, reqs := tinySystem(t)
	cs, err := CompileAll(sys, reqs[:1], Options{HorizonMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, err := cs.DeadlockFree(core.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Free || res.Witness != nil {
			t.Errorf("workers=%d: free=%v with witness %v, want deadlock-free and no witness", workers, res.Free, res.Witness)
		}
		if res.Stats.Stored == 0 || res.Stats.Popped == 0 || res.Stats.Transitions == 0 {
			t.Errorf("workers=%d: sweep reports no work: %s", workers, res.Stats)
		}
	}
}

// TestQuestionsOfTwoObserverSet asks Witness and DeadlockFree of the
// second observer of a two-requirement set, which only a compiled set can
// be asked: the witness ends at observer 1's seen location with its clock
// reaching the bound observer 1 measured, and the deadlock verdict agrees
// with the one-requirement compile.
func TestQuestionsOfTwoObserverSet(t *testing.T) {
	sys, reqs := tinySystem(t)
	copts := Options{HorizonMS: 100}
	cs, err := CompileAll(sys, reqs, copts)
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := all.Results[1]
	if res.Req != reqs[1] || !res.Exact || !res.Attained || cs.Scale.Int64() != 1 {
		t.Fatalf("result 1 = %+v at scale %s, want an attained exact bound for %s in whole ms",
			res, cs.Scale, reqs[1].Name)
	}
	// The last step's location vector has observer 1 seen, and its clock's
	// interval ends at the bound.
	seen := "OBS_" + reqs[1].Name + ".seen"
	clock := regexp.MustCompile(`obs\.` + regexp.QuoteMeta(reqs[1].Name) + `\.y∈\[[0-9]+,` + res.MS.RatString() + `\]`)
	for _, workers := range []int{1, 4} {
		trace, err := cs.Witness(1, res, core.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(trace), "\n")
		last := lines[len(lines)-1]
		if !strings.Contains(last, seen+")") || !clock.MatchString(last) {
			t.Errorf("workers=%d: witness must end with %s and its clock at %s ms:\n%s",
				workers, seen, res.MS.RatString(), trace)
		}
	}

	one, err := CompileAll(sys, reqs[:1], copts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := one.DeadlockFree(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.DeadlockFree(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Free != want.Free || got.Truncated || want.Truncated {
		t.Errorf("two-observer set: free=%v, one-requirement compile: free=%v", got.Free, want.Free)
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

package arch

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dbm"
)

// witness computes the requirement's WCRT with its critical-instant trace,
// both from one traced sweep.
func witness(t *testing.T, sys *System, req *Requirement) (string, WCRTResult) {
	t.Helper()
	cs, err := CompileAll(sys, []*Requirement{req}, Options{HorizonMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.AnalyzeTraced(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := all.Results[0]
	assertWitnessEnds(t, cs, 0, res)
	return core.FormatTrace(cs.Net, res.Witness), res
}

// assertWitnessEnds requires result i of cs to carry a witness ending in
// observer i's seen location with the observer clock's upper bound at the
// result's value, strictness included — or unbounded, on a BeyondHorizon
// result.
func assertWitnessEnds(t *testing.T, cs *CompiledSet, i int, res WCRTResult) {
	t.Helper()
	if len(res.Witness) == 0 {
		t.Fatalf("%s: no witness", res.Req.Name)
	}
	want := dbm.Infinity
	if !res.BeyondHorizon {
		v, err := toUnits(res.MS, cs.Scale, timeField{kind: "requirement", name: res.Req.Name, field: "WCRT"})
		if err != nil {
			t.Fatal(err)
		}
		if want = dbm.LT(v); res.Attained {
			want = dbm.LE(v)
		}
	}
	last := res.Witness[len(res.Witness)-1].State
	if got := last.Zone.Sup(int(cs.Obs[i].Y.ID)); !cs.AtSeen(i)(last) || got != want {
		t.Errorf("%s: witness ends seen=%v with the observer clock at %v, want seen at %v",
			res.Req.Name, cs.AtSeen(i)(last), got, want)
	}
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
// checked-in tiny model: the compiled system never wedges.
func TestDeadlockFreeTiny(t *testing.T) {
	sys, reqs := tinySystem(t)
	cs, err := CompileAll(sys, reqs[:1], Options{HorizonMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cs.DeadlockFree(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Free || res.Witness != nil {
		t.Errorf("free=%v with witness %v, want deadlock-free and no witness", res.Free, res.Witness)
	}
	if res.Stats.Stored == 0 || res.Stats.Popped == 0 || res.Stats.Transitions == 0 {
		t.Errorf("sweep reports no work: %s", res.Stats)
	}
}

// TestQuestionsOfTwoObserverSet asks for the witness of the second observer
// of a two-requirement set, and asks DeadlockFree of the set: the witness
// ends at observer 1's seen location with its clock reaching the bound
// observer 1 measured, and the deadlock verdict agrees with the
// one-requirement compile.
func TestQuestionsOfTwoObserverSet(t *testing.T) {
	sys, reqs := tinySystem(t)
	copts := Options{HorizonMS: 100}
	cs, err := CompileAll(sys, reqs, copts)
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.AnalyzeTraced(core.Options{})
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
	assertWitnessEnds(t, cs, 1, res)
	trace := core.FormatTrace(cs.Net, res.Witness)
	lines := strings.Split(strings.TrimSpace(trace), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, seen+")") || !clock.MatchString(last) {
		t.Errorf("witness must end with %s and its clock at %s ms:\n%s", seen, res.MS.RatString(), trace)
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

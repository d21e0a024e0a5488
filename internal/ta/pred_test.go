package ta

import (
	"strings"
	"testing"
)

// predNet declares two processes, two variables and two clocks.
func predNet(t *testing.T) *Network {
	t.Helper()
	n, err := Parse(`
system:q
clock:x
clock:y
int:rec:0:0:9
int:m:-1:-1:9
process:SRV
location:SRV:idle{initial}
location:SRV:busy
process:OBS
location:OBS:watch{initial}
`)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestParsePredAtoms(t *testing.T) {
	n := predNet(t)
	locs, vars := []LocID{1, 0}, []int64{3, -1}
	cases := []struct {
		in   string
		want bool
	}{
		{"SRV.busy", true},
		{"SRV.idle", false},
		{"OBS.watch", true},
		{"rec == 3", true},
		{"rec != 3", false},
		{"rec >= 3", true},
		{"rec > 3", false},
		{"rec < 9", true},
		{"rec <= 2", false},
		{"rec<=4", true},
		{"m == -1", true},
		{"SRV.busy && rec == 3", true},
		{"SRV.busy && rec == 4", false},
		{"SRV.idle && rec == 3", false},
		// The guard grammar: expressions on either side.
		{"rec+1 >= 2", true},
		{"rec + 1 >= 5", false},
		{"(rec - 1) * 2 == 4", true},
		{"rec == m + 4", true},
		{"2 < rec", true},
		{" SRV.busy &&  rec*m < 0 && OBS.watch ", true},
	}
	for _, c := range cases {
		q, err := ParsePred(n, c.in)
		if err != nil {
			t.Errorf("ParsePred(%q): %v", c.in, err)
			continue
		}
		if got := q.Holds(locs, vars); got != c.want {
			t.Errorf("%q = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestParsePredFlatCompare pins the hot path: a variable compared against a
// constant evaluates as one flat comparison, the form Cmp builds for guards.
func TestParsePredFlatCompare(t *testing.T) {
	q, err := ParsePred(predNet(t), "rec <= 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.guard.(varCmpGuard); !ok || len(q.at) != 0 {
		t.Errorf("rec <= 1 parsed to %T with %d location tests, want one varCmpGuard", q.guard, len(q.at))
	}
}

func TestParsePredErrors(t *testing.T) {
	n := predNet(t)
	for _, c := range []struct{ in, wantSub string }{
		{"", "empty predicate"},
		{"&&", "empty predicate"},
		{"GHOST.idle", `unknown process "GHOST"`},
		{"SRV.nowhere", `no location "nowhere"`},
		{"nonsense", "neither PROC.loc nor a comparison"},
		{"rec == lots", `unknown operand "lots"`},
		{"unknownvar == 3", `unknown operand "unknownvar"`},
		{"rec == 3 && SRV.nowhere", `no location "nowhere"`},
		{"rec + == 3", "unexpected end of expression"},
		{"x <= 3", "compares clock x"},
		{"SRV.busy && y > 0", "compares clock y"},
		{"x - y < 2", "compares clock x"},
		{"3 >= x", "compares clock x"},
		{"2 > x - y", "compares clock x"},
		{"rec == 1 && 0 < y", "compares clock y"},
	} {
		_, err := ParsePred(n, c.in)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParsePred(%q) = %v, want an error containing %q", c.in, err, c.wantSub)
		}
	}
}

func TestClockByName(t *testing.T) {
	n := predNet(t)
	if c, ok := n.ClockByName("y"); !ok || c.ID != 2 || c.Name != "y" {
		t.Errorf("ClockByName(y) = %v, %v", c, ok)
	}
	for _, name := range []string{"nope", "rec", ""} {
		if c, ok := n.ClockByName(name); ok {
			t.Errorf("ClockByName(%q) = %v, want none", name, c)
		}
	}
}

// TestReferenceClockHasNoName is the regression test for the reference
// clock answering to its internal name: "t0" names no clock unless the model
// declares one, and a declared t0 is that clock, not Clocks[0].
func TestReferenceClockHasNoName(t *testing.T) {
	if c, ok := predNet(t).ClockByName("t0"); ok {
		t.Errorf("ClockByName(t0) = %v on a model with no clock t0", c)
	}
	n, err := Parse(`
system:t
clock:t0
process:P
location:P:a{initial; invariant: t0<=3}
edge:P:a:a{guard: t0==3; do: t0=0}
`)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := n.ClockByName("t0")
	if !ok || c.ID != 1 {
		t.Fatalf("ClockByName(t0) = %v, %v, want the declared clock 1", c, ok)
	}
	e := n.Procs[0].Edges[0]
	if len(e.ClockGuard) == 0 || e.ClockGuard[0].I != 1 || len(e.Resets) != 1 || e.Resets[0].Clock != 1 {
		t.Errorf("the guard and reset on t0 read clock %+v / %+v, want clock 1", e.ClockGuard, e.Resets)
	}
}

package ta

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dbm"
)

const radioTA = `
# The paper's Fig. 4 RAD automaton with a periodic generator.
system:radio
clock:x
clock:gx
int:rec:0:0:4
chan:hurry:urgent-broadcast
chan:done:broadcast

process:GEN
location:GEN:tick{initial; invariant: gx<=10}
edge:GEN:tick:tick{guard: gx==10; do: rec=rec+1, gx=0}

process:RAD
location:RAD:idle{initial}
location:RAD:busy{invariant: x<=3}
edge:RAD:idle:busy{guard: rec>0; sync: hurry!; do: rec=rec-1, x=0}
edge:RAD:busy:idle{guard: x==3; sync: done!}
`

func TestParseRadio(t *testing.T) {
	n, err := Parse(radioTA)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "radio" || len(n.Procs) != 2 || n.NumClocks() != 3 {
		t.Fatalf("unexpected shape: %s", n)
	}
	rad := n.ProcByName("RAD")
	if rad == nil || len(rad.Locations) != 2 || len(rad.Edges) != 2 {
		t.Fatalf("RAD misparsed: %+v", rad)
	}
	if rad.Locations[rad.Init].Name != "idle" {
		t.Error("initial location wrong")
	}
	if n.Chans[0].Kind != BroadcastUrgent || n.Chans[1].Kind != Broadcast {
		t.Error("channel kinds wrong")
	}
	if !n.Finalized() {
		t.Error("parsed network must be finalized")
	}
}

func TestParseAttributes(t *testing.T) {
	n, err := Parse(`
system:attrs
clock:x
int:D:5:0:9
process:P
location:P:a{initial; urgent}
location:P:b{committed; invariant: x<=D}
edge:P:a:b{guard: x>=2 && x<5 && D==5}
edge:P:b:a{do: x=0, D=D*2-1}
`)
	if err != nil {
		t.Fatal(err)
	}
	p := n.ProcByName("P")
	if p.Locations[0].Kind != UrgentLoc || p.Locations[1].Kind != Committed {
		t.Error("location kinds wrong")
	}
	inv := p.Locations[1].Invariant
	if len(inv) != 1 || !inv[0].VarBound {
		t.Errorf("dynamic invariant misparsed: %+v", inv)
	}
	e := p.Edges[0]
	if len(e.ClockGuard) != 2 {
		t.Errorf("clock guard atoms = %d, want 2", len(e.ClockGuard))
	}
	if e.Guard == nil || !e.Guard.Eval([]int64{5}) || e.Guard.Eval([]int64{4}) {
		t.Error("data guard misparsed")
	}
	vars := []int64{5}
	ApplyUpdate(p.Edges[1].Update, vars)
	if vars[0] != 9 {
		t.Errorf("update D=D*2-1: got %d, want 9", vars[0])
	}
}

func TestParseClockDifferenceAndFree(t *testing.T) {
	n, err := Parse(`
system:diff
clock:x
clock:y
process:P
location:P:a{initial}
location:P:b{}
edge:P:a:b{guard: x-y<=3 && x-y>1; do: y=_, x=2}
`)
	if err != nil {
		t.Fatal(err)
	}
	e := n.ProcByName("P").Edges[0]
	if len(e.ClockGuard) != 2 {
		t.Fatalf("diff guard atoms = %d, want 2", len(e.ClockGuard))
	}
	if len(e.Frees) != 1 || len(e.Resets) != 1 || e.Resets[0].Value != 2 {
		t.Errorf("do-list misparsed: frees=%v resets=%v", e.Frees, e.Resets)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"no system", "clock:x", "system"},
		{"dup system", "system:a\nsystem:b", "duplicate"},
		{"bad decl", "system:a\nwarp:x", "unknown declaration"},
		{"dup name", "system:a\nclock:x\nint:x:0:0:1", "already used"},
		{"bad int", "system:a\nint:v:a:0:1", "bad number"},
		{"bad chan kind", "system:a\nchan:c:quantum", "unknown kind"},
		{"unknown proc", "system:a\nlocation:P:x{initial}", "unknown process"},
		{"two initials", "system:a\nprocess:P\nlocation:P:a{initial}\nlocation:P:b{initial}", "two initial"},
		{"no initial", "system:a\nprocess:P\nlocation:P:a{}", "no initial location"},
		{"bad edge loc", "system:a\nprocess:P\nlocation:P:a{initial}\nedge:P:a:zz{}", "unknown location"},
		{"bad sync", "system:a\nchan:c:binary\nprocess:P\nlocation:P:a{initial}\nedge:P:a:a{sync: c}", "must end in"},
		{"unknown chan", "system:a\nprocess:P\nlocation:P:a{initial}\nedge:P:a:a{sync: c!}", "unknown channel"},
		{"bad guard", "system:a\nprocess:P\nlocation:P:a{initial}\nedge:P:a:a{guard: x ~ 3}", "comparison"},
		{"bad do", "system:a\nprocess:P\nlocation:P:a{initial}\nedge:P:a:a{do: 3}", "assignment"},
		{"unknown target", "system:a\nprocess:P\nlocation:P:a{initial}\nedge:P:a:a{do: q=1}", "unknown assignment target"},
		{"unterminated", "system:a\nprocess:P\nlocation:P:a{initial", "unterminated"},
		{"bad expr", "system:a\nint:v:0:0:9\nprocess:P\nlocation:P:a{initial}\nedge:P:a:a{do: v=v+}", "expression"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

func TestParsedModelRoundTripsThroughDOT(t *testing.T) {
	n, err := Parse(radioTA)
	if err != nil {
		t.Fatal(err)
	}
	dot := n.DOT()
	for _, want := range []string{"GEN", "RAD", "busy", "hurry!", "done!"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT of parsed model missing %q", want)
		}
	}
}

func TestParseNeverPanics(t *testing.T) {
	// Robustness: arbitrary junk must produce errors, not panics.
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse(s)
		_, _ = Parse("system:x\n" + s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Targeted near-miss inputs around every declaration form.
	nearMisses := []string{
		"system:", "system:a\nclock:", "system:a\nint:v", "system:a\nint:v:1:2",
		"system:a\nchan:c", "system:a\nprocess:", "system:a\nlocation:",
		"system:a\nprocess:P\nlocation:P:l{",
		"system:a\nprocess:P\nlocation:P:l{initial}\nedge:P:l",
		"system:a\nprocess:P\nlocation:P:l{initial}\nedge:P:l:l{guard:}",
		"system:a\nprocess:P\nlocation:P:l{initial}\nedge:P:l:l{do: =}",
		"system:a\nprocess:P\nlocation:P:l{initial}\nedge:P:l:l{do: v=(1}",
		"system:a\nclock:x\nprocess:P\nlocation:P:l{initial; invariant: x<=}",
	}
	for _, in := range nearMisses {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Parse(%q) panicked: %v", in, r)
				}
			}()
			_, _ = Parse(in)
		}()
	}
}

// TestParseClockConstantEdges pins both sides of dbm.MaxConstant for every
// place a .ta model writes a clock constant — a guard in either direction, a
// clock difference, an invariant, a reset, and a dynamic bound Coef·v+Offset
// reached through a variable's range: the largest constant parses and keeps
// its value, one more is refused, from the parser with its line and from
// Finalize naming the constraint.
func TestParseClockConstantEdges(t *testing.T) {
	const max = int64(dbm.MaxConstant)
	model := func(decl, attrs string) string {
		return "system:s\nclock:x\nclock:y\n" + decl + "process:P\nlocation:P:a{initial}\n" +
			"location:P:b{" + attrs + "}\nedge:P:a:b{}\n"
	}
	edge := func(attrs string) string {
		return "system:s\nclock:x\nclock:y\nprocess:P\nlocation:P:a{initial}\nedge:P:a:a{" + attrs + "}\n"
	}
	cases := []struct {
		name, in string
		line     int // the line a refusal names; 0: Finalize refuses
	}{
		{"guard >=", edge("guard: x>=%d"), 6},
		{"guard >= negative", edge("guard: x>=-%d"), 6},
		{"guard <", edge("guard: x<%d"), 6},
		{"guard ==", edge("guard: x==%d"), 6},
		{"difference <=", edge("guard: x-y<=%d"), 6},
		{"invariant <=", model("", "invariant: x<=%d"), 6},
		{"reset", edge("do: x=%d"), 6},
		{"dynamic bound", model("int:d:0:0:%d\n", "invariant: x<=d"), 0},
	}
	for _, c := range cases {
		for _, k := range []int64{max, max + 1} {
			in := fmt.Sprintf(c.in, k)
			net, err := Parse(in)
			if k == max {
				if err != nil {
					t.Errorf("%s: the largest constant %d is refused: %v", c.name, k, err)
				} else if got := slices.Max(net.MaxConsts); got != max {
					t.Errorf("%s: the largest constant parses as %d", c.name, got)
				}
				continue
			}
			switch {
			case err == nil:
				t.Errorf("%s: constant %d beyond the largest parses", c.name, k)
			case c.line > 0 && !strings.Contains(err.Error(), fmt.Sprintf("line %d:", c.line)):
				t.Errorf("%s: error %q does not name line %d", c.name, err, c.line)
			case !strings.Contains(err.Error(), fmt.Sprint(max)):
				t.Errorf("%s: error %q does not state the largest constant", c.name, err)
			}
		}
	}
	// An overflowing literal is refused as too large, not as a non-integer.
	if _, err := Parse(fmt.Sprintf(edge("guard: x<=%d0"), max)); err == nil || !strings.Contains(err.Error(), "beyond the largest") {
		t.Errorf("a literal beyond int64: %v, want a refusal as too large", err)
	}
	// A dynamic bound's coefficient that overflows int64 times the range.
	net := NewNetwork("coef")
	x := net.AddClock("x")
	d := net.AddVar("d", 0, 0, 1<<40)
	p := net.AddProcess("P")
	p.AddLocation("a", Normal, Constraint{I: x.ID, VarBound: true, Var: d.ID, Coef: 1 << 40, Weak: true})
	if err := net.Finalize(); err == nil || !strings.Contains(err.Error(), "beyond the largest clock constant") {
		t.Errorf("Coef·Max overflowing int64: %v, want a refusal", err)
	}
}

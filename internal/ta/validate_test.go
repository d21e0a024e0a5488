package ta

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dbm"
)

func TestFinalizeRejectsLowerBoundInvariant(t *testing.T) {
	n := NewNetwork("x")
	x := n.AddClock("x")
	p := n.AddProcess("P")
	p.AddLocation("bad", Normal, CGE(x, 2))
	if err := n.Finalize(); err == nil {
		t.Error("lower-bound invariant must be rejected")
	}
}

func TestFinalizeRejectsDiagonalInvariant(t *testing.T) {
	n := NewNetwork("x")
	x := n.AddClock("x")
	y := n.AddClock("y")
	p := n.AddProcess("P")
	p.AddLocation("bad", Normal, DiffLE(x, y, 3))
	if err := n.Finalize(); err == nil {
		t.Error("diagonal invariant must be rejected")
	}
}

func TestFinalizeRejectsUrgentRecvClockGuard(t *testing.T) {
	n := NewNetwork("x")
	x := n.AddClock("x")
	c := n.AddChan("u", BinaryUrgent)
	p := n.AddProcess("P")
	l := p.AddLocation("idle", Normal)
	p.AddEdge(Edge{Src: l, Dst: l, ClockGuard: []Constraint{CGE(x, 1)},
		Sync: Sync{Chan: c.ID, Dir: Recv}})
	if err := n.Finalize(); err == nil {
		t.Error("clock guard on urgent receive must be rejected")
	}
}

func TestFinalizeRejectsBroadcastRecvClockGuard(t *testing.T) {
	n := NewNetwork("x")
	x := n.AddClock("x")
	c := n.AddChan("b", Broadcast)
	p := n.AddProcess("P")
	l := p.AddLocation("idle", Normal)
	p.AddEdge(Edge{Src: l, Dst: l, ClockGuard: []Constraint{CGE(x, 1)},
		Sync: Sync{Chan: c.ID, Dir: Recv}})
	if err := n.Finalize(); err == nil {
		t.Error("clock guard on broadcast receive must be rejected")
	}
}

func TestFinalizeAcceptsBroadcastEmitClockGuard(t *testing.T) {
	n := NewNetwork("x")
	x := n.AddClock("x")
	c := n.AddChan("b", Broadcast)
	p := n.AddProcess("P")
	l := p.AddLocation("idle", Normal)
	p.AddEdge(Edge{Src: l, Dst: l, ClockGuard: []Constraint{CGE(x, 1)},
		Sync: Sync{Chan: c.ID, Dir: Emit}})
	if err := n.Finalize(); err != nil {
		t.Errorf("non-urgent broadcast emit with clock guard must be allowed: %v", err)
	}
}

func TestFinalizeRejectsUnknownChannel(t *testing.T) {
	n := NewNetwork("x")
	p := n.AddProcess("P")
	l := p.AddLocation("idle", Normal)
	p.AddEdge(Edge{Src: l, Dst: l, Sync: Sync{Chan: 9, Dir: Emit}})
	if err := n.Finalize(); err == nil {
		t.Error("unknown channel must be rejected")
	}
}

func TestFinalizeRejectsNegativeReset(t *testing.T) {
	n := NewNetwork("x")
	x := n.AddClock("x")
	p := n.AddProcess("P")
	l := p.AddLocation("idle", Normal)
	p.AddEdge(Edge{Src: l, Dst: l, Resets: []Reset{{x.ID, -1}}})
	if err := n.Finalize(); err == nil {
		t.Error("negative reset value must be rejected")
	}
}

func TestFinalizeRejectsResetOfReferenceClock(t *testing.T) {
	n := NewNetwork("x")
	p := n.AddProcess("P")
	l := p.AddLocation("idle", Normal)
	p.AddEdge(Edge{Src: l, Dst: l, Resets: []Reset{{0, 0}}})
	if err := n.Finalize(); err == nil {
		t.Error("reset of the reference clock must be rejected")
	}
}

// TestFinalizeHoldsRegisteredAndResetConstants pins dbm.MaxConstant on the
// two constants Finalize does not read from a constraint: a horizon
// registered through EnsureMaxConst (wire.ParseTAModel's max_const) and the
// value an API-built edge resets a clock to. The largest constant is
// accepted, one more is refused naming the clock and the limit.
func TestFinalizeHoldsRegisteredAndResetConstants(t *testing.T) {
	const max = int64(dbm.MaxConstant)
	horizon := func(k int64) *Network {
		n := NewNetwork("h")
		x := n.AddClock("x")
		n.AddProcess("P").AddLocation("a", Normal)
		n.EnsureMaxConst(x.ID, k)
		return n
	}
	reset := func(k int64) *Network {
		n := NewNetwork("r")
		x := n.AddClock("x")
		p := n.AddProcess("P")
		l := p.AddLocation("a", Normal)
		p.AddEdge(Edge{Src: l, Dst: l, Resets: []Reset{{Clock: x.ID, Value: k}}})
		return n
	}
	for name, build := range map[string]func(int64) *Network{"registered horizon": horizon, "reset value": reset} {
		if n := build(max); n.Finalize() != nil || n.MaxConsts[1] != max {
			t.Errorf("%s: the largest constant %d is refused or lost: %v", name, max, n.MaxConsts)
		}
		for _, k := range []int64{max + 1, 1 << 62, math.MaxInt64} {
			err := build(k).Finalize()
			if err == nil {
				t.Errorf("%s %d beyond the largest is accepted", name, k)
			} else if !strings.Contains(err.Error(), "clock x") || !strings.Contains(err.Error(), fmt.Sprint(max)) {
				t.Errorf("%s %d: error %q does not name the clock and the limit", name, k, err)
			}
		}
	}
}

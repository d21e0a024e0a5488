package crosscheck

import (
	"fmt"
	"slices"

	"repro/internal/ta"
)

// This file is a second reference checker, for networks whose guards and
// invariants may be strict (x < c, x > c), where integer time is not exact:
// a strict guard can be enabled only between two integers. It takes the
// discrete semantics from the discrete-time referee (transitions,
// invariantsHold, delayAllowed: the committed-location rule, urgency,
// broadcast participation) and replaces integer clock values with the
// classical regions of Alur and Dill: per clock an integer part capped at
// the horizon plus one, which stands for "beyond the horizon", and, over
// the clocks not beyond, the order of their fractional parts, zero
// included. Every guard and invariant compares one clock with a constant of
// at most the horizon, so every valuation of a region satisfies the same
// constraints, and region equivalence is a time-abstract bisimulation: the
// reachable discrete states are exact, and so is the supremum of a clock
// over them, attained (≤ c) or approached (< c).

// rstate is one region state. For clock x ≥ 1 (index 0 is the reference
// clock, always 0), ip[x] is x's integer part, or horizon+1 once x is
// beyond the horizon; rank[x] is 0 when x's fractional part is zero, else
// its place among the distinct nonzero fractional parts, 1 for the
// smallest. A clock beyond the horizon has rank 0. A clock with integer part
// horizon and a nonzero fraction is beyond: no constant tells it apart.
type rstate struct {
	locs []ta.LocID
	vars []int64
	ip   []int64
	rank []int
}

func (s rstate) key() string { return fmt.Sprint(s.locs, s.vars, s.ip, s.rank) }

func (s rstate) clone() rstate {
	return rstate{append([]ta.LocID(nil), s.locs...), append([]int64(nil), s.vars...),
		append([]int64(nil), s.ip...), append([]int(nil), s.rank...)}
}

func (s rstate) discrete(horizon int64) discrete {
	return discrete{s.locs, s.vars, func(cs []ta.Constraint) bool { return s.holds(cs, horizon) }}
}

// below reports whether clock x is below v: x ≤ v when weak, x < v when
// not. v must be at most the horizon, so a clock beyond it is never below.
func (s rstate) below(x ta.ClockID, v int64, weak bool, horizon int64) bool {
	if v > horizon {
		panic(fmt.Sprintf("constant %d beyond the horizon %d", v, horizon))
	}
	if s.ip[x] > horizon {
		return false
	}
	// An integer part below v puts the whole region below v; at v, only a
	// zero fraction is, and only for ≤.
	return s.ip[x] < v || (weak && s.ip[x] == v && s.rank[x] == 0)
}

// holds evaluates a conjunction of one-clock constraints: x ≺ b is below,
// and −x ≺ b, that is x ≻ −b, is the negation of the complementary below.
func (s rstate) holds(cs []ta.Constraint, horizon int64) bool {
	for _, c := range cs {
		b := c.Resolve(s.vars)
		var ok bool
		switch {
		case c.J == 0:
			ok = s.below(c.I, b.Value(), b.Weak(), horizon)
		case c.I == 0:
			ok = !s.below(c.J, -b.Value(), !b.Weak(), horizon)
		default:
			panic(fmt.Sprintf("diagonal constraint %v: regions here compare one clock with a constant", c))
		}
		if !ok {
			return false
		}
	}
	return true
}

// normalize renumbers the nonzero ranks of the clocks not beyond the
// horizon to 1, 2, … in order, keeping ties, after a step moved some.
func (s rstate) normalize(horizon int64) {
	var ranks []int
	for x := 1; x < len(s.ip); x++ {
		if s.ip[x] > horizon {
			s.rank[x] = 0
		} else if s.rank[x] > 0 {
			ranks = append(ranks, s.rank[x])
		}
	}
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	for x := 1; x < len(s.ip); x++ {
		if s.rank[x] > 0 {
			s.rank[x] = 1 + slices.Index(ranks, s.rank[x])
		}
	}
}

// delayed returns the region time enters next from s, or false when every
// clock is beyond the horizon and delay never leaves s. When some clock not
// beyond has a zero fraction, every such fraction turns the smallest nonzero
// one (a clock at the horizon goes beyond); otherwise the clocks with the
// largest fraction reach their next integer.
func (s rstate) delayed(horizon int64) (rstate, bool) {
	zero, top, moving := false, 0, false
	for x := 1; x < len(s.ip); x++ {
		if s.ip[x] <= horizon {
			moving = true
			zero = zero || s.rank[x] == 0
			top = max(top, s.rank[x])
		}
	}
	if !moving {
		return s, false
	}
	next := s.clone()
	for x := 1; x < len(next.ip); x++ {
		switch {
		case next.ip[x] > horizon:
		case zero && next.rank[x] == 0 && next.ip[x] == horizon:
			next.ip[x] = horizon + 1
		case zero:
			next.rank[x]++
		case next.rank[x] == top:
			next.ip[x], next.rank[x] = next.ip[x]+1, 0
		}
	}
	next.normalize(horizon)
	return next, true
}

// regionReach explores net's region graph breadth-first, constants at most
// horizon, and answers as the discrete-time referee does.
func regionReach(net *ta.Network, horizon int64) refAnswer {
	n := len(net.Clocks)
	init := rstate{make([]ta.LocID, len(net.Procs)), make([]int64, len(net.Vars)), make([]int64, n), make([]int, n)}
	for p, proc := range net.Procs {
		init.locs[p] = proc.Init
	}
	for v, decl := range net.Vars {
		init.vars[v] = decl.Init
	}
	a := newRefAnswer(net)
	seen := map[string]bool{}
	var work []rstate
	visit := func(s rstate) {
		if k := s.key(); !seen[k] && invariantsHold(net, s.discrete(horizon)) {
			seen[k] = true
			work = append(work, s)
		}
	}
	visit(init)
	for len(work) > 0 {
		s := work[0]
		work = work[1:]
		a.reach[projectionKey(s.locs, s.vars)] = true
		for p, l := range s.locs {
			for x := 1; x < n; x++ {
				// 2c is ≤ c, 2c+1 is < c+1; a clock beyond reads
				// 2(horizon+1), as the discrete-time referee's does.
				sup := 2 * s.ip[x]
				if s.rank[x] > 0 {
					sup++
				}
				a.sup[p][l][x] = max(a.sup[p][l][x], sup)
			}
		}
		if delayAllowed(net, s.discrete(horizon)) {
			if next, ok := s.delayed(horizon); ok {
				visit(next)
			}
		}
		for _, tr := range transitions(net, s.discrete(horizon)) {
			// Updates in part order, on the values the guards were
			// evaluated on; then every move and reset.
			next := s.clone()
			for _, pt := range tr {
				ta.ApplyUpdate(pt.edge.Update, next.vars)
			}
			for _, pt := range tr {
				next.locs[pt.proc] = pt.edge.Dst
				for _, r := range pt.edge.Resets {
					next.ip[r.Clock], next.rank[r.Clock] = min(r.Value, horizon+1), 0
				}
			}
			next.normalize(horizon)
			visit(next)
		}
	}
	return a
}

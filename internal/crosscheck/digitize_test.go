package crosscheck

import (
	"fmt"
	"math/rand"

	"repro/internal/ta"
)

// This file is a discrete-time reference checker that shares no code with
// the zone engine: it reads a network's declared syntax — locations, edges,
// channel kinds, constraints — evaluates data guards and updates through
// ta.EvalGuard and ta.ApplyUpdate, and restates the successor semantics
// itself: the committed-location rule, urgent locations, urgent binary and
// broadcast channels, broadcast participation, invariants and delay.
//
// It explores integer clock valuations breadth-first. For closed timed
// automata — every guard and invariant is x ≤ c, x ≥ c or x == c with c an
// integer — integer time is exact for the discrete states a run can reach
// and for the supremum of a clock over them (digitization: rounding the
// time stamps of a dense run keeps every closed constraint satisfied, and
// turns a zero delay into a zero delay, so urgency is kept too). A clock is
// capped at the horizon plus one, which stands for "beyond the horizon":
// with every constant at most the horizon, no guard or invariant tells two
// values past it apart.

// refAnswer is a referee's answer for one network.
type refAnswer struct {
	// reach holds the discrete part, projectionKey(locs, vars), of every
	// reachable state.
	reach map[string]bool
	// sup[p][l][x] is the supremum of clock x over the reachable states with
	// process p in location l, encoded so that max orders it: 2c for ≤ c
	// (attained), 2c+1 for < c+1 (approached), 2(horizon+1) for beyond the
	// horizon, and -1 when no such state is reachable.
	sup [][][]int64
}

// newRefAnswer returns an answer with nothing reached yet.
func newRefAnswer(net *ta.Network) refAnswer {
	a := refAnswer{reach: map[string]bool{}, sup: make([][][]int64, len(net.Procs))}
	for p, proc := range net.Procs {
		a.sup[p] = make([][]int64, len(proc.Locations))
		for l := range proc.Locations {
			a.sup[p][l] = make([]int64, len(net.Clocks))
			for x := range a.sup[p][l] {
				a.sup[p][l][x] = -1
			}
		}
	}
	return a
}

// discrete is what the discrete semantics below reads of a state: its
// locations and variables, and a test of clock constraints on its clock
// part — integer values here, regions in region_test.go.
type discrete struct {
	locs  []ta.LocID
	vars  []int64
	holds func([]ta.Constraint) bool
}

func projectionKey(locs []ta.LocID, vars []int64) string { return fmt.Sprint(locs, vars) }

// dstate is one integer state: clks[0] is the reference clock, always 0.
type dstate struct {
	locs []ta.LocID
	vars []int64
	clks []int64
}

func (s dstate) key() string { return fmt.Sprint(s.locs, s.vars, s.clks) }

func (s dstate) clone() dstate {
	return dstate{append([]ta.LocID(nil), s.locs...), append([]int64(nil), s.vars...), append([]int64(nil), s.clks...)}
}

func (s dstate) discrete() discrete {
	return discrete{s.locs, s.vars, s.holds}
}

// holds evaluates a conjunction of clock constraints xI − xJ ≺ b.
func (s dstate) holds(cs []ta.Constraint) bool {
	for _, c := range cs {
		b := c.Resolve(s.vars)
		d := s.clks[c.I] - s.clks[c.J]
		if d > b.Value() || (!b.Weak() && d == b.Value()) {
			return false
		}
	}
	return true
}

// part is one process taking one of its edges in a transition.
type part struct {
	proc int
	edge *ta.Edge
}

// enabled lists process p's edges out of its location with direction dir on
// channel ch (ch ignored for tau) whose data guard holds; clockToo also
// requires the clock guard.
func enabled(net *ta.Network, s discrete, p int, dir ta.SyncDir, ch ta.ChanID, clockToo bool) []part {
	var out []part
	for ei := range net.Procs[p].Edges {
		e := &net.Procs[p].Edges[ei]
		if e.Src != s.locs[p] || e.Sync.Dir != dir || (dir != ta.Tau && e.Sync.Chan != ch) {
			continue
		}
		if ta.EvalGuard(e.Guard, s.vars) && (!clockToo || s.holds(e.ClockGuard)) {
			out = append(out, part{p, e})
		}
	}
	return out
}

// transitions lists the action transitions of s the committed-location rule
// admits: a transition must move a process in a committed location when any
// process is in one.
func transitions(net *ta.Network, s discrete) [][]part {
	committed := func(p int) bool { return net.Procs[p].Locations[s.locs[p]].Kind == ta.Committed }
	anyCommitted := false
	for p := range net.Procs {
		anyCommitted = anyCommitted || committed(p)
	}
	var out [][]part
	add := func(ps []part) {
		ok := !anyCommitted
		for _, pt := range ps {
			ok = ok || committed(pt.proc)
		}
		if ok {
			out = append(out, ps)
		}
	}
	for p := range net.Procs {
		for _, e := range enabled(net, s, p, ta.Tau, 0, true) {
			add([]part{e})
		}
	}
	for ci, ch := range net.Chans {
		c := ta.ChanID(ci)
		for p := range net.Procs {
			for _, em := range enabled(net, s, p, ta.Emit, c, true) {
				if !ch.Kind.IsBroadcast() {
					// Binary: one receiver in another process.
					for q := range net.Procs {
						if q != p {
							for _, rc := range enabled(net, s, q, ta.Recv, c, true) {
								add([]part{em, rc})
							}
						}
					}
					continue
				}
				// Broadcast: every other process with an enabled receive
				// edge takes exactly one of them.
				combos := [][]part{{em}}
				for q := range net.Procs {
					rcs := enabled(net, s, q, ta.Recv, c, true)
					if q == p || len(rcs) == 0 {
						continue
					}
					var next [][]part
					for _, cb := range combos {
						for _, rc := range rcs {
							next = append(next, append(append([]part(nil), cb...), rc))
						}
					}
					combos = next
				}
				for _, cb := range combos {
					add(cb)
				}
			}
		}
	}
	return out
}

// invariantsHold checks every process's location invariant.
func invariantsHold(net *ta.Network, s discrete) bool {
	for p, l := range s.locs {
		if !s.holds(net.Procs[p].Locations[l].Invariant) {
			return false
		}
	}
	return true
}

// delayAllowed is the urgency rule: no delay while a process is in an urgent
// or committed location, while an urgent broadcast channel has a
// data-enabled emitter, or while an urgent binary channel has a data-enabled
// emitter and receiver in two processes.
func delayAllowed(net *ta.Network, s discrete) bool {
	for p, l := range s.locs {
		if k := net.Procs[p].Locations[l].Kind; k == ta.UrgentLoc || k == ta.Committed {
			return false
		}
	}
	for ci, ch := range net.Chans {
		if !ch.Kind.Urgent() {
			continue
		}
		c := ta.ChanID(ci)
		for p := range net.Procs {
			if len(enabled(net, s, p, ta.Emit, c, false)) == 0 {
				continue
			}
			if ch.Kind.IsBroadcast() {
				return false
			}
			for q := range net.Procs {
				if q != p && len(enabled(net, s, q, ta.Recv, c, false)) > 0 {
					return false
				}
			}
		}
	}
	return true
}

// digitalReach explores net's integer-time semantics with every clock capped
// at horizon+1.
func digitalReach(net *ta.Network, horizon int64) refAnswer {
	capAt := horizon + 1
	init := dstate{make([]ta.LocID, len(net.Procs)), make([]int64, len(net.Vars)), make([]int64, len(net.Clocks))}
	for p, proc := range net.Procs {
		init.locs[p] = proc.Init
	}
	for v, decl := range net.Vars {
		init.vars[v] = decl.Init
	}
	d := newRefAnswer(net)
	seen := map[string]bool{}
	var work []dstate
	visit := func(s dstate) {
		if k := s.key(); !seen[k] {
			seen[k] = true
			work = append(work, s)
		}
	}
	if invariantsHold(net, init.discrete()) {
		visit(init)
	}
	for len(work) > 0 {
		s := work[0]
		work = work[1:]
		d.reach[projectionKey(s.locs, s.vars)] = true
		for p, l := range s.locs {
			for x := 1; x < len(s.clks); x++ {
				d.sup[p][l][x] = max(d.sup[p][l][x], 2*s.clks[x])
			}
		}
		if delayAllowed(net, s.discrete()) {
			next := s.clone()
			for x := 1; x < len(next.clks); x++ {
				next.clks[x] = min(next.clks[x]+1, capAt)
			}
			if invariantsHold(net, next.discrete()) {
				visit(next)
			}
		}
		for _, tr := range transitions(net, s.discrete()) {
			// Updates in part order (the emitter first), on the values the
			// guards were evaluated on; then every move and reset.
			next := s.clone()
			for _, pt := range tr {
				ta.ApplyUpdate(pt.edge.Update, next.vars)
			}
			for _, pt := range tr {
				next.locs[pt.proc] = pt.edge.Dst
				for _, r := range pt.edge.Resets {
					next.clks[r.Clock] = min(r.Value, capAt)
				}
			}
			if invariantsHold(net, next.discrete()) {
				visit(next)
			}
		}
	}
	return d
}

// refHorizon is the horizon the generated networks are checked under: above
// every constant genClosedNet writes.
const refHorizon = 5

// genClosedNet builds a small network from r: 2 or 3 processes of 2 or 3
// locations (normal, urgent or committed) on a cycle plus a few more edges,
// at most 3 clocks, 1 or 2 variables in [0, 2] written only with constants,
// and one or two channels of any of the four kinds. Clock guards and
// invariants compare one clock with a constant of at most 4: closed (x ≤ c,
// x ≥ c, x == c) unless strict, which also draws x < c and x > c guards and
// x < c invariants. Channels whose kind forbids clock guards on an edge get
// none there. Every clock's extrapolation constant is raised to refHorizon,
// so the engine measures a clock up to it exactly. Without strict the
// generator makes none of strict's extra draws, so a seed's closed networks
// do not depend on it.
func genClosedNet(r *rand.Rand, i int, strict bool) *ta.Network {
	n := ta.NewNetwork(fmt.Sprintf("closed%d", i))
	clocks := make([]ta.Clock, 1+r.Intn(3))
	for k := range clocks {
		clocks[k] = n.AddClock(fmt.Sprintf("x%d", k))
	}
	vars := make([]ta.IntVar, 1+r.Intn(2))
	for k := range vars {
		vars[k] = n.AddVar(fmt.Sprintf("v%d", k), 0, 0, 2)
	}
	kinds := []ta.ChanKind{ta.Binary, ta.BinaryUrgent, ta.Broadcast, ta.BroadcastUrgent}
	chans := make([]ta.Channel, 1+r.Intn(2))
	for k := range chans {
		chans[k] = n.AddChan(fmt.Sprintf("c%d", k), kinds[r.Intn(len(kinds))])
	}
	clockConstraint := func() []ta.Constraint {
		x, c := clocks[r.Intn(len(clocks))], int64(r.Intn(5))
		forms := 3
		if strict {
			forms = 5
		}
		switch r.Intn(forms) {
		case 0:
			return []ta.Constraint{ta.CLE(x, c)}
		case 1:
			return []ta.Constraint{ta.CGE(x, c)}
		case 3:
			return []ta.Constraint{ta.CLT(x, c)}
		case 4:
			return []ta.Constraint{ta.CGT(x, c)}
		}
		return ta.CEq(x, c)
	}
	ops := []ta.CmpOp{ta.Eq, ta.Ne, ta.Lt, ta.Le, ta.Gt, ta.Ge}
	for p := 0; p < 2+r.Intn(2); p++ {
		proc := n.AddProcess(fmt.Sprintf("P%d", p))
		nLocs := 2 + r.Intn(2)
		for l := 0; l < nLocs; l++ {
			kind := ta.Normal
			switch r.Intn(10) {
			case 0:
				kind = ta.UrgentLoc
			case 1:
				kind = ta.Committed
			}
			var inv []ta.Constraint
			if r.Intn(5) < 2 {
				x, c := clocks[r.Intn(len(clocks))], int64(1+r.Intn(4))
				if strict && r.Intn(2) == 0 {
					inv = append(inv, ta.CLT(x, c))
				} else {
					inv = append(inv, ta.CLE(x, c))
				}
			}
			proc.AddLocation(fmt.Sprintf("l%d", l), kind, inv...)
		}
		// A cycle through every location, then a few edges anywhere.
		for e := 0; e < nLocs+1+r.Intn(3); e++ {
			ed := ta.Edge{Src: ta.LocID(e % nLocs), Dst: ta.LocID((e + 1) % nLocs), Sync: ta.NoSync}
			if e >= nLocs {
				ed.Src, ed.Dst = ta.LocID(r.Intn(nLocs)), ta.LocID(r.Intn(nLocs))
			}
			if r.Intn(2) == 0 {
				ch := chans[r.Intn(len(chans))]
				ed.Sync = ta.Sync{Chan: ch.ID, Dir: ta.Emit}
				if r.Intn(2) == 0 {
					ed.Sync.Dir = ta.Recv
				}
			}
			noClockGuard := ed.Sync.Dir != ta.Tau &&
				(n.Chans[ed.Sync.Chan].Kind.Urgent() || (n.Chans[ed.Sync.Chan].Kind.IsBroadcast() && ed.Sync.Dir == ta.Recv))
			if !noClockGuard && r.Intn(2) == 0 {
				ed.ClockGuard = clockConstraint()
			}
			if r.Intn(3) == 0 {
				ed.Guard = ta.VarCmp(vars[r.Intn(len(vars))], ops[r.Intn(len(ops))], int64(r.Intn(3)))
			}
			if r.Intn(2) == 0 {
				ed.Resets = []ta.Reset{{Clock: clocks[r.Intn(len(clocks))].ID, Value: int64(r.Intn(4) / 3)}}
			}
			if r.Intn(2) == 0 {
				ed.Update = ta.SetConst(vars[r.Intn(len(vars))], int64(r.Intn(3)))
			}
			proc.AddEdge(ed)
		}
	}
	for _, x := range clocks {
		n.EnsureMaxConst(x.ID, refHorizon)
	}
	if err := n.Finalize(); err != nil {
		panic(fmt.Sprintf("generated network %s: %v", n.Name, err))
	}
	return n
}

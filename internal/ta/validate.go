package ta

import (
	"fmt"
	"math"

	"repro/internal/dbm"
)

// Finalize validates the network and precomputes per-location edge indices
// and the maximal clock constants used by zone extrapolation. It must be
// called exactly once, after the model is fully built and before analysis.
func (n *Network) Finalize() error {
	if n.finalized {
		return fmt.Errorf("ta: network %s already finalized", n.Name)
	}
	if len(n.Procs) == 0 {
		return fmt.Errorf("ta: network %s has no processes", n.Name)
	}
	// Grow the constant table to the clock count, preserving entries
	// registered via EnsureMaxConst, which are held to the same limit as the
	// constants recorded below.
	for len(n.MaxConsts) < len(n.Clocks) {
		n.MaxConsts = append(n.MaxConsts, 0)
	}
	for c, k := range n.MaxConsts {
		if k > dbm.MaxConstant {
			return fmt.Errorf("ta: maximal constant %d registered for clock %s is beyond the largest clock constant, %d",
				k, n.clockName(c), int64(dbm.MaxConstant))
		}
	}

	for _, p := range n.Procs {
		if len(p.Locations) == 0 {
			return fmt.Errorf("ta: process %s has no locations", p.Name)
		}
		if int(p.Init) >= len(p.Locations) || p.Init < 0 {
			return fmt.Errorf("ta: process %s has invalid initial location %d", p.Name, p.Init)
		}
		for _, l := range p.Locations {
			for _, c := range l.Invariant {
				if err := n.checkConstraint(c); err != nil {
					return fmt.Errorf("ta: invariant of %s.%s: %w", p.Name, l.Name, err)
				}
				// Only upper bounds on single clocks are admitted as
				// invariants (as in UPPAAL); this is what makes the
				// delay-then-intersect zone computation exact.
				if c.J != 0 || c.I == 0 {
					return fmt.Errorf("ta: invariant of %s.%s is not an upper bound: %s",
						p.Name, l.Name, c)
				}
				if !c.VarBound && c.Bound.Value() < 0 {
					return fmt.Errorf("ta: invariant of %s.%s has negative upper bound %s",
						p.Name, l.Name, c)
				}
				if err := n.recordConst(c); err != nil {
					return fmt.Errorf("ta: invariant of %s.%s: %w", p.Name, l.Name, err)
				}
			}
		}
		for ei := range p.Edges {
			e := &p.Edges[ei]
			if int(e.Src) >= len(p.Locations) || int(e.Dst) >= len(p.Locations) || e.Src < 0 || e.Dst < 0 {
				return fmt.Errorf("ta: process %s edge %d references unknown location", p.Name, ei)
			}
			for _, c := range e.ClockGuard {
				if err := n.checkConstraint(c); err != nil {
					return fmt.Errorf("ta: guard of %s edge %d: %w", p.Name, ei, err)
				}
				if err := n.recordConst(c); err != nil {
					return fmt.Errorf("ta: guard of %s edge %d: %w", p.Name, ei, err)
				}
			}
			for _, c := range e.Frees {
				if int(c) <= 0 || int(c) >= len(n.Clocks) {
					return fmt.Errorf("ta: process %s edge %d frees unknown clock %d", p.Name, ei, c)
				}
			}
			for _, r := range e.Resets {
				if int(r.Clock) <= 0 || int(r.Clock) >= len(n.Clocks) {
					return fmt.Errorf("ta: process %s edge %d resets unknown clock %d", p.Name, ei, r.Clock)
				}
				if r.Value < 0 {
					return fmt.Errorf("ta: process %s edge %d resets clock to negative value", p.Name, ei)
				}
				if r.Value > dbm.MaxConstant {
					return fmt.Errorf("ta: process %s edge %d resets clock %s to %d, beyond the largest clock constant, %d",
						p.Name, ei, n.Clocks[r.Clock].Name, r.Value, int64(dbm.MaxConstant))
				}
				if r.Value > n.MaxConsts[r.Clock] {
					n.MaxConsts[r.Clock] = r.Value
				}
			}
			switch e.Sync.Dir {
			case Tau:
			case Emit, Recv:
				if int(e.Sync.Chan) < 0 || int(e.Sync.Chan) >= len(n.Chans) {
					return fmt.Errorf("ta: process %s edge %d uses unknown channel", p.Name, ei)
				}
				ch := n.Chans[e.Sync.Chan]
				// UPPAAL forbids clock guards on urgent channel edges
				// (urgency could not be decided per zone) and on broadcast
				// receivers (maximal participation would split zones).
				if ch.Kind.Urgent() && len(e.ClockGuard) > 0 {
					return fmt.Errorf("ta: process %s edge %d synchronizes on urgent channel %s with a clock guard",
						p.Name, ei, ch.Name)
				}
				if ch.Kind.IsBroadcast() && e.Sync.Dir == Recv && len(e.ClockGuard) > 0 {
					return fmt.Errorf("ta: process %s edge %d receives on broadcast channel %s with a clock guard",
						p.Name, ei, ch.Name)
				}
			default:
				return fmt.Errorf("ta: process %s edge %d has invalid sync direction", p.Name, ei)
			}
		}
	}
	for _, v := range n.Vars {
		if v.Min > v.Max {
			return fmt.Errorf("ta: variable %s has empty range [%d,%d]", v.Name, v.Min, v.Max)
		}
		if v.Init < v.Min || v.Init > v.Max {
			return fmt.Errorf("ta: variable %s initial value %d outside [%d,%d]",
				v.Name, v.Init, v.Min, v.Max)
		}
	}
	n.buildIndex()
	n.finalized = true
	return nil
}

// buildIndex compiles the transition index the successor engine consumes:
// per-location tau and sync edge lists (CSR layout, edge index order),
// per-location committed/no-delay flags, the channel→participating-process
// tables, per-channel edge counts, and the urgent-channel list. Everything
// built here is immutable after Finalize — explorations read it
// concurrently without synchronization (an admitting loop and its lookahead
// helper each), and write only their own scratch (core's engine.successors).
func (n *Network) buildIndex() {
	// The whole per-location index is carved out of three backing arrays.
	// Finalize runs once per network, but compiled pipelines (arch →
	// CompileAll) rebuild their network per analysis, so the build itself
	// must not allocate per process — gated benchmarks count every alloc.
	totOff, totTau, totSync, totLoc := 0, 0, 0, 0
	for _, p := range n.Procs {
		totOff += 2 * (len(p.Locations) + 1)
		totLoc += 2 * len(p.Locations)
		for _, e := range p.Edges {
			if e.Sync.Dir == Tau {
				totTau++
			} else {
				totSync++
			}
		}
	}
	i32 := make([]int32, totOff+totTau)
	edges := make([]SyncEdge, totSync)
	flags := make([]bool, totLoc)
	for _, p := range n.Procs {
		nLocs := len(p.Locations)
		// Count each location's edges, then prefix-sum: off[l] is where
		// location l ends, and off[nLocs] the total.
		p.tauOff, i32 = i32[:nLocs+1:nLocs+1], i32[nLocs+1:]
		p.syncOff, i32 = i32[:nLocs+1:nLocs+1], i32[nLocs+1:]
		for _, e := range p.Edges {
			if e.Sync.Dir == Tau {
				p.tauOff[e.Src]++
			} else {
				p.syncOff[e.Src]++
			}
		}
		for l := 1; l <= nLocs; l++ {
			p.tauOff[l] += p.tauOff[l-1]
			p.syncOff[l] += p.syncOff[l-1]
		}
		nTau, nSync := p.tauOff[nLocs], p.syncOff[nLocs]
		p.tauIdx, i32 = i32[:nTau:nTau], i32[nTau:]
		p.syncIdx, edges = edges[:nSync:nSync], edges[nSync:]
		// Fill back to front, moving off[l] down to where location l starts:
		// each location's edges land in edge index order.
		for ei := len(p.Edges) - 1; ei >= 0; ei-- {
			e := &p.Edges[ei]
			if e.Sync.Dir == Tau {
				p.tauOff[e.Src]--
				p.tauIdx[p.tauOff[e.Src]] = int32(ei)
			} else {
				p.syncOff[e.Src]--
				p.syncIdx[p.syncOff[e.Src]] = SyncEdge{Chan: e.Sync.Chan, Dir: e.Sync.Dir, Edge: int32(ei)}
			}
		}
		p.committed, flags = flags[:nLocs:nLocs], flags[nLocs:]
		p.noDelay, flags = flags[:nLocs:nLocs], flags[nLocs:]
		for l, loc := range p.Locations {
			p.committed[l] = loc.Kind == Committed
			p.noDelay[l] = loc.Kind == UrgentLoc || loc.Kind == Committed
		}
	}

	// Channel tables, same treatment: count first (the last-proc scratch
	// dedups repeated edges of one process), then carve every participant
	// list out of one flat array.
	nChans := len(n.Chans)
	cnt := make([]int32, 6*nChans)
	n.chanEmitEdges = cnt[0*nChans : 1*nChans : 1*nChans]
	n.chanRecvEdges = cnt[1*nChans : 2*nChans : 2*nChans]
	emitN := cnt[2*nChans : 3*nChans : 3*nChans]
	recvN := cnt[3*nChans : 4*nChans : 4*nChans]
	lastEmit := cnt[4*nChans : 5*nChans : 5*nChans]
	lastRecv := cnt[5*nChans : 6*nChans : 6*nChans]
	for i := 0; i < nChans; i++ {
		lastEmit[i], lastRecv[i] = -1, -1
	}
	for pi, p := range n.Procs {
		for _, e := range p.Edges {
			if e.Sync.Dir == Tau {
				continue
			}
			c := e.Sync.Chan
			if e.Sync.Dir == Recv {
				n.chanRecvEdges[c]++
				if lastRecv[c] != int32(pi) {
					lastRecv[c] = int32(pi)
					recvN[c]++
				}
			} else {
				n.chanEmitEdges[c]++
				if lastEmit[c] != int32(pi) {
					lastEmit[c] = int32(pi)
					emitN[c]++
				}
			}
		}
	}
	totParts := 0
	for c := 0; c < nChans; c++ {
		totParts += int(emitN[c] + recvN[c])
	}
	parts := make([]ProcID, totParts)
	headers := make([][]ProcID, 2*nChans)
	n.chanEmitProcs = headers[:nChans:nChans]
	n.chanRecvProcs = headers[nChans:]
	pos := 0
	for c := 0; c < nChans; c++ {
		n.chanEmitProcs[c] = parts[pos : pos : pos+int(emitN[c])]
		pos += int(emitN[c])
		n.chanRecvProcs[c] = parts[pos : pos : pos+int(recvN[c])]
		pos += int(recvN[c])
	}
	for i := 0; i < nChans; i++ {
		lastEmit[i], lastRecv[i] = -1, -1
	}
	for pi, p := range n.Procs {
		for _, e := range p.Edges {
			if e.Sync.Dir == Tau {
				continue
			}
			// Processes are visited in ascending order, so appending the
			// first occurrence keeps the participant lists sorted.
			c := e.Sync.Chan
			if e.Sync.Dir == Recv {
				if lastRecv[c] != int32(pi) {
					lastRecv[c] = int32(pi)
					n.chanRecvProcs[c] = append(n.chanRecvProcs[c], ProcID(pi))
				}
			} else {
				if lastEmit[c] != int32(pi) {
					lastEmit[c] = int32(pi)
					n.chanEmitProcs[c] = append(n.chanEmitProcs[c], ProcID(pi))
				}
			}
		}
	}
	n.urgentChans = n.urgentChans[:0]
	for ci, ch := range n.Chans {
		if ch.Kind.Urgent() {
			n.urgentChans = append(n.urgentChans, ChanID(ci))
		}
	}
}

// Finalized reports whether Finalize has completed successfully.
func (n *Network) Finalized() bool { return n.finalized }

// clockName names clock c, or gives its index when the network declares no
// such clock (a constant table longer than the clock list).
func (n *Network) clockName(c int) string {
	if c < len(n.Clocks) {
		return n.Clocks[c].Name
	}
	return fmt.Sprintf("#%d", c)
}

func (n *Network) checkConstraint(c Constraint) error {
	if int(c.I) < 0 || int(c.I) >= len(n.Clocks) || int(c.J) < 0 || int(c.J) >= len(n.Clocks) {
		return fmt.Errorf("constraint %s references unknown clock", c)
	}
	if c.I == c.J {
		return fmt.Errorf("constraint %s compares a clock with itself", c)
	}
	return nil
}

// recordConst folds the constraint's constant into the per-clock constant
// table used by extrapolation: a constraint xI - xJ ≺ c bounds xI from above
// and xJ from below, so it counts for both. Dynamic bounds contribute the
// largest magnitude their variable's declared range admits, Coef·v + Offset
// at either end of the range, computed exactly. A constant beyond
// dbm.MaxConstant in magnitude is an error: sums of its bounds would
// overflow.
func (n *Network) recordConst(c Constraint) error {
	var v int64
	if c.VarBound {
		if int(c.Var) < 0 || int(c.Var) >= len(n.Vars) {
			return fmt.Errorf("dynamic bound references unknown variable %d", c.Var)
		}
		d := n.Vars[c.Var]
		for _, x := range [2]int64{d.Min, d.Max} {
			b, ok := mulAdd(c.Coef, x, c.Offset)
			if !ok || b > dbm.MaxConstant || b < -dbm.MaxConstant {
				return fmt.Errorf("dynamic bound %s reaches %d·%d%+d, beyond the largest clock constant %d",
					c, c.Coef, x, c.Offset, int64(dbm.MaxConstant))
			}
			v = max64(v, abs64(b))
		}
	} else if c.Bound != dbm.Infinity {
		v = abs64(c.Bound.Value())
		if v > dbm.MaxConstant {
			return fmt.Errorf("constraint %s has a constant beyond the largest, %d", c, int64(dbm.MaxConstant))
		}
	}
	if c.I != 0 && v > n.MaxConsts[c.I] {
		n.MaxConsts[c.I] = v
	}
	if c.J != 0 && v > n.MaxConsts[c.J] {
		n.MaxConsts[c.J] = v
	}
	return nil
}

// mulAdd returns a·b + c, and false if that overflows int64.
func mulAdd(a, b, c int64) (int64, bool) {
	p := a * b
	if a != 0 && (p/a != b || a == -1 && b == math.MinInt64) {
		return 0, false
	}
	s := p + c
	if c > 0 && s < p || c < 0 && s > p {
		return 0, false
	}
	return s, true
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// CheckVarBounds verifies that valuation v respects every variable's declared
// range, returning a descriptive error for the first violation. The explorer
// calls this after each update so modeling errors (e.g. the unbounded
// preemption accumulation the paper warns about) surface as analysis errors
// rather than silent wraparound.
func (n *Network) CheckVarBounds(v []int64) error {
	for i, d := range n.Vars {
		if v[i] < d.Min || v[i] > d.Max {
			return fmt.Errorf("ta: variable %s = %d outside declared range [%d,%d]",
				d.Name, v[i], d.Min, d.Max)
		}
	}
	return nil
}

package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ta"
)

// The discrete-time oracle: for timed automata whose guards and invariants
// are all closed (only ≤, ≥, ==), dense-time location reachability coincides
// with integer-time reachability. A brute-force explicit-state interpreter
// over integer clock valuations therefore provides an independent ground
// truth for the zone-based engine on small random models.

type concreteState struct {
	locs string // fmt of location vector
	vars string
	clks string
}

// discreteReach explores the integer-time semantics of net up to the given
// clock ceiling (all clocks are capped at ceil, which is sound when ceil
// exceeds every constant in the model) and returns the set of reachable
// discrete projections "locs|vars".
func discreteReach(t *testing.T, net *ta.Network, ceil int64) map[string]bool {
	t.Helper()
	type full struct {
		locs []ta.LocID
		vars []int64
		clks []int64
	}
	key := func(f full) concreteState {
		return concreteState{fmt.Sprint(f.locs), fmt.Sprint(f.vars), fmt.Sprint(f.clks)}
	}
	project := func(f full) string { return fmt.Sprint(f.locs) + "|" + fmt.Sprint(f.vars) }

	satisfied := func(cs []ta.Constraint, clks, vars []int64) bool {
		for _, c := range cs {
			b := c.Resolve(vars)
			vi, vj := int64(0), int64(0)
			if c.I != 0 {
				vi = clks[c.I]
			}
			if c.J != 0 {
				vj = clks[c.J]
			}
			diff := vi - vj
			if b.Weak() {
				if diff > b.Value() {
					return false
				}
			} else if diff >= b.Value() {
				return false
			}
		}
		return true
	}
	invOK := func(locs []ta.LocID, clks, vars []int64) bool {
		for pi, l := range locs {
			if !satisfied(net.Procs[pi].Locations[l].Invariant, clks, vars) {
				return false
			}
		}
		return true
	}
	urgentHere := func(locs []ta.LocID, vars []int64) bool {
		for pi, l := range locs {
			k := net.Procs[pi].Locations[l].Kind
			if k == ta.UrgentLoc || k == ta.Committed {
				return true
			}
		}
		// Urgent channels: enabled emit (broadcast-urgent) forbids delay.
		for ci, ch := range net.Chans {
			if !ch.Kind.Urgent() {
				continue
			}
			for pi, p := range net.Procs {
				for ei := range p.Edges {
					e := &p.Edges[ei]
					if e.Src == locs[pi] && e.Sync.Dir == ta.Emit && e.Sync.Chan == ta.ChanID(ci) &&
						ta.EvalGuard(e.Guard, vars) {
						return true
					}
				}
			}
		}
		return false
	}

	init := full{
		locs: make([]ta.LocID, len(net.Procs)),
		vars: net.InitialVars(),
		clks: make([]int64, net.NumClocks()),
	}
	for i, p := range net.Procs {
		init.locs[i] = p.Init
	}
	seen := map[concreteState]bool{key(init): true}
	out := map[string]bool{project(init): true}
	work := []full{init}
	push := func(f full) {
		k := key(f)
		if !seen[k] {
			seen[k] = true
			out[project(f)] = true
			work = append(work, f)
		}
	}
	clone := func(f full) full {
		return full{
			locs: append([]ta.LocID(nil), f.locs...),
			vars: append([]int64(nil), f.vars...),
			clks: append([]int64(nil), f.clks...),
		}
	}

	for steps := 0; len(work) > 0 && steps < 200000; steps++ {
		cur := work[len(work)-1]
		work = work[:len(work)-1]

		// Unit delay (clocks capped at ceil to keep the space finite).
		if !urgentHere(cur.locs, cur.vars) {
			nxt := clone(cur)
			grown := false
			for c := 1; c < len(nxt.clks); c++ {
				if nxt.clks[c] < ceil {
					nxt.clks[c]++
					grown = true
				}
			}
			if grown && invOK(nxt.locs, nxt.clks, nxt.vars) {
				push(nxt)
			}
		}

		anyCommitted := false
		for pi, l := range cur.locs {
			if net.Procs[pi].Locations[l].Kind == ta.Committed {
				anyCommitted = true
			}
		}
		fire := func(parts [][2]int) { // (proc, edge)
			if anyCommitted {
				ok := false
				for _, pt := range parts {
					if net.Procs[pt[0]].Locations[cur.locs[pt[0]]].Kind == ta.Committed {
						ok = true
					}
				}
				if !ok {
					return
				}
			}
			for _, pt := range parts {
				e := &net.Procs[pt[0]].Edges[pt[1]]
				if !satisfied(e.ClockGuard, cur.clks, cur.vars) {
					return
				}
			}
			nxt := clone(cur)
			for _, pt := range parts {
				e := &net.Procs[pt[0]].Edges[pt[1]]
				ta.ApplyUpdate(e.Update, nxt.vars)
			}
			if net.CheckVarBounds(nxt.vars) != nil {
				return
			}
			for _, pt := range parts {
				e := &net.Procs[pt[0]].Edges[pt[1]]
				nxt.locs[pt[0]] = e.Dst
				for _, r := range e.Resets {
					nxt.clks[r.Clock] = r.Value
				}
				for _, c := range e.Frees {
					_ = c // freeing is a zone-level optimization; value kept
				}
			}
			if invOK(nxt.locs, nxt.clks, nxt.vars) {
				push(nxt)
			}
		}

		for pi, p := range net.Procs {
			for ei := range p.Edges {
				e := &p.Edges[ei]
				if e.Src != cur.locs[pi] || !ta.EvalGuard(e.Guard, cur.vars) {
					continue
				}
				switch e.Sync.Dir {
				case ta.Tau:
					fire([][2]int{{pi, ei}})
				case ta.Emit:
					ch := net.Chans[e.Sync.Chan]
					if ch.Kind.IsBroadcast() {
						// Maximal participation, one enabled receiver each.
						parts := [][2]int{{pi, ei}}
						for qi, q := range net.Procs {
							if qi == pi {
								continue
							}
							for ri := range q.Edges {
								r := &q.Edges[ri]
								if r.Src == cur.locs[qi] && r.Sync.Dir == ta.Recv && r.Sync.Chan == e.Sync.Chan &&
									ta.EvalGuard(r.Guard, cur.vars) {
									parts = append(parts, [2]int{qi, ri})
									break // deterministic receiver choice
								}
							}
						}
						fire(parts)
					} else {
						for qi, q := range net.Procs {
							if qi == pi {
								continue
							}
							for ri := range q.Edges {
								r := &q.Edges[ri]
								if r.Src == cur.locs[qi] && r.Sync.Dir == ta.Recv && r.Sync.Chan == e.Sync.Chan &&
									ta.EvalGuard(r.Guard, cur.vars) {
									fire([][2]int{{pi, ei}, {qi, ri}})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// randomClosedNet builds a small random network with closed constraints only.
func randomClosedNet(r *rand.Rand) *ta.Network {
	n := ta.NewNetwork("oracle")
	x := n.AddClock("x")
	y := n.AddClock("y")
	v := n.AddVar("v", 0, 0, 3)
	ch := n.AddChan("c", ta.Binary)
	clocks := []ta.Clock{x, y}

	for pi := 0; pi < 2; pi++ {
		p := n.AddProcess(fmt.Sprintf("P%d", pi))
		nloc := 2 + r.Intn(2)
		for li := 0; li < nloc; li++ {
			var inv []ta.Constraint
			if r.Intn(2) == 0 {
				inv = append(inv, ta.CLE(clocks[r.Intn(2)], int64(2+r.Intn(4))))
			}
			p.AddLocation(fmt.Sprintf("l%d", li), ta.Normal, inv...)
		}
		nedge := 2 + r.Intn(3)
		for ei := 0; ei < nedge; ei++ {
			e := ta.Edge{
				Src: ta.LocID(r.Intn(nloc)),
				Dst: ta.LocID(r.Intn(nloc)),
			}
			switch r.Intn(3) {
			case 0:
				e.ClockGuard = []ta.Constraint{ta.CGE(clocks[r.Intn(2)], int64(r.Intn(5)))}
			case 1:
				e.ClockGuard = ta.CEq(clocks[r.Intn(2)], int64(r.Intn(5)))
			}
			if r.Intn(2) == 0 {
				e.Resets = []ta.Reset{{Clock: clocks[r.Intn(2)].ID, Value: 0}}
			}
			switch r.Intn(4) {
			case 0:
				e.Guard = ta.VarCmp(v, ta.Lt, 3)
				e.Update = ta.Inc(v, 1)
			case 1:
				e.Guard = ta.VarCmp(v, ta.Gt, 0)
				e.Update = ta.Inc(v, -1)
			}
			if r.Intn(4) == 0 {
				dir := ta.Emit
				if pi == 1 {
					dir = ta.Recv
				}
				e.Sync = ta.Sync{Chan: ch.ID, Dir: dir}
			}
			p.AddEdge(e)
		}
	}
	if err := n.Finalize(); err != nil {
		panic(err)
	}
	return n
}

// TestZoneEngineMatchesDiscreteOracle compares the discrete projections
// (location vector + variable valuation) reachable under the zone engine and
// under brute-force integer-time exploration, on random closed models.
func TestZoneEngineMatchesDiscreteOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is slow")
	}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		net := randomClosedNet(r)
		oracle := discreteReach(t, net, 8)

		c, err := NewChecker(net)
		if err != nil {
			t.Fatal(err)
		}
		zone := map[string]bool{}
		_, err = c.Explore(Options{MaxStates: 100000}, func(s *State) bool {
			zone[fmt.Sprint(s.Locs)+"|"+fmt.Sprint(s.Vars)] = true
			return false
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k := range oracle {
			if !zone[k] {
				t.Errorf("trial %d: oracle state %s missed by the zone engine", trial, k)
			}
		}
		for k := range zone {
			if !oracle[k] {
				t.Errorf("trial %d: zone state %s not reachable in integer time", trial, k)
			}
		}
		if t.Failed() {
			t.Fatalf("trial %d network:\n%s", trial, net.DOT())
		}
	}
}

// TestParallelEngineMatchesSequentialOracle extends the oracle sweep across
// both scheduling paths of the unified engine: on random closed models the
// parallel explorer must reach exactly the discrete projections the
// sequential one reaches, Reachable verdicts must agree, and every parallel
// witness trace must replay through the successor engine (trace validity,
// not trace equality — the parallel path may find a different run).
func TestParallelEngineMatchesSequentialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is slow")
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		net := randomClosedNet(r)
		c, err := NewChecker(net)
		if err != nil {
			t.Fatal(err)
		}
		collect := func(workers int) map[string]bool {
			out := map[string]bool{}
			var mu sync.Mutex
			_, err := c.Explore(Options{MaxStates: 100000, Workers: workers}, func(s *State) bool {
				mu.Lock()
				out[fmt.Sprint(s.Locs)+"|"+fmt.Sprint(s.Vars)] = true
				mu.Unlock()
				return false
			})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			return out
		}
		seq, par := collect(1), collect(4)
		for k := range seq {
			if !par[k] {
				t.Errorf("trial %d: state %s reached sequentially but not in parallel", trial, k)
			}
		}
		for k := range par {
			if !seq[k] {
				t.Errorf("trial %d: state %s reached in parallel but not sequentially", trial, k)
			}
		}
		// Cross-check one Reachable verdict per trial: the last process
		// leaving its initial location (reachable on most random models,
		// unreachable on some — both verdicts must agree either way).
		pred := func(s *State) bool { return s.Locs[1] != net.Procs[1].Init }
		sFound, sTrace, _, err := c.Reachable(pred, Options{MaxStates: 100000})
		if err != nil {
			t.Fatal(err)
		}
		pFound, pTrace, _, err := c.Reachable(pred, Options{MaxStates: 100000, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if sFound != pFound {
			t.Errorf("trial %d: Reachable verdicts disagree: sequential=%v parallel=%v",
				trial, sFound, pFound)
		}
		if sFound {
			assertTraceValid(t, c, sTrace)
			assertTraceValid(t, c, pTrace)
			if !pred(pTrace[len(pTrace)-1].State) {
				t.Errorf("trial %d: parallel witness does not end in the target", trial)
			}
		}
		if t.Failed() {
			t.Fatalf("trial %d network:\n%s", trial, net.DOT())
		}
	}
}

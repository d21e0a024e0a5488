package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ta"
)

// This file is the differential oracle of the compiled successor index: the
// one-pass indexed enumerator (succ.go) must produce a succ stream
// BIT-IDENTICAL to the index-free reference (succ_ref_test.go) — same
// labels, same enumeration order, same successor states, same zones, same
// errors, same urgency verdicts. Enumeration order is load-bearing:
// parent-log records keep only the successor index, so replay selects by
// position; verdict bytes and traces inherit the order.

// randNet builds a small random network from a deterministic seed, exercising
// every synchronization discipline: tau edges, binary/broadcast channels,
// urgent variants, urgent and committed locations, clock guards, invariants,
// resets, data guards and updates. Construction respects the validation
// rules (no clock guards on urgent-channel edges or broadcast receivers;
// invariants are non-negative upper bounds), and variable updates only set
// in-range constants so the reachable state space is finite and CheckVarBounds
// can never fire.
func randNet(seed int64) *ta.Network {
	r := rand.New(rand.NewSource(seed))
	n := ta.NewNetwork("rand")

	nClocks := 1 + r.Intn(2)
	clocks := make([]ta.Clock, nClocks)
	for i := range clocks {
		clocks[i] = n.AddClock("x" + string(rune('0'+i)))
	}
	nVars := r.Intn(3)
	vars := make([]ta.IntVar, nVars)
	for i := range vars {
		vars[i] = n.AddVar("v"+string(rune('0'+i)), 0, 0, 3)
	}
	kinds := []ta.ChanKind{ta.Binary, ta.BinaryUrgent, ta.Broadcast, ta.BroadcastUrgent}
	nChans := 1 + r.Intn(3)
	chans := make([]ta.Channel, nChans)
	for i := range chans {
		chans[i] = n.AddChan("c"+string(rune('0'+i)), kinds[r.Intn(len(kinds))])
	}

	nProcs := 2 + r.Intn(3)
	for pi := 0; pi < nProcs; pi++ {
		p := n.AddProcess("P" + string(rune('0'+pi)))
		nLocs := 2 + r.Intn(3)
		for li := 0; li < nLocs; li++ {
			kind := ta.Normal
			switch r.Intn(8) {
			case 0:
				kind = ta.UrgentLoc
			case 1:
				kind = ta.Committed
			}
			var inv []ta.Constraint
			// Urgent/committed locations forbid delay anyway; give the
			// normal ones an occasional invariant so delay closure is
			// actually constrained.
			if kind == ta.Normal && r.Intn(3) == 0 {
				inv = append(inv, ta.CLE(clocks[r.Intn(nClocks)], int64(1+r.Intn(5))))
			}
			p.AddLocation("l"+string(rune('0'+li)), kind, inv...)
		}
		nEdges := 2 + r.Intn(5)
		for ei := 0; ei < nEdges; ei++ {
			e := ta.Edge{
				Src: ta.LocID(r.Intn(nLocs)),
				Dst: ta.LocID(r.Intn(nLocs)),
			}
			sync := ta.NoSync
			if r.Intn(2) == 0 {
				ch := chans[r.Intn(nChans)]
				dir := ta.Emit
				if r.Intn(2) == 0 {
					dir = ta.Recv
				}
				sync = ta.Sync{Chan: ch.ID, Dir: dir}
				e.Sync = sync
				// Clock guards are forbidden on urgent channels and on
				// broadcast receivers.
				if !ch.Kind.Urgent() && !(ch.Kind.IsBroadcast() && dir == ta.Recv) && r.Intn(2) == 0 {
					e.ClockGuard = append(e.ClockGuard, randClockGuard(r, clocks))
				}
			} else if r.Intn(2) == 0 {
				e.ClockGuard = append(e.ClockGuard, randClockGuard(r, clocks))
			}
			if nVars > 0 && r.Intn(3) == 0 {
				v := vars[r.Intn(nVars)]
				ops := []ta.CmpOp{ta.Lt, ta.Le, ta.Gt, ta.Ge, ta.Eq, ta.Ne}
				e.Guard = ta.VarCmp(v, ops[r.Intn(len(ops))], int64(r.Intn(4)))
			}
			if nVars > 0 && r.Intn(3) == 0 {
				e.Update = ta.SetConst(vars[r.Intn(nVars)], int64(r.Intn(4)))
			}
			if r.Intn(3) == 0 {
				e.Resets = append(e.Resets, ta.Reset{Clock: clocks[r.Intn(nClocks)].ID, Value: 0})
			}
			p.AddEdge(e)
		}
	}
	if err := n.Finalize(); err != nil {
		// The generator respects every validation rule by construction.
		panic("randNet: " + err.Error())
	}
	return n
}

func randClockGuard(r *rand.Rand, clocks []ta.Clock) ta.Constraint {
	c := clocks[r.Intn(len(clocks))]
	k := int64(r.Intn(6))
	if r.Intn(2) == 0 {
		return ta.CLE(c, k)
	}
	return ta.CGE(c, k)
}

// compareSuccessors runs the engine and the reference (succ_ref_test.go) on
// one state and fails unless the two succ streams are bit-identical and the
// urgency tests agree, on s and on every successor's discrete state. It
// returns the engine's stream; the reference's states are recycled.
func compareSuccessors(t testing.TB, net *ta.Network, e *engine, ctxI, ctxR *succCtx, s *State) []succ {
	t.Helper()
	si, errI := e.successors(ctxI, s, nil)
	sr, errR := refSuccessors(e, ctxR, s)
	if (errI == nil) != (errR == nil) {
		t.Fatalf("state %s: indexed err=%v, reference err=%v", s.Format(net), errI, errR)
	}
	if errI != nil && errI.Error() != errR.Error() {
		t.Fatalf("state %s: error mismatch: %q vs %q", s.Format(net), errI, errR)
	}
	if len(si) != len(sr) {
		t.Fatalf("state %s: %d indexed successors, %d reference", s.Format(net), len(si), len(sr))
	}
	for k := range si {
		a, b := si[k], sr[k]
		if a.idx != b.idx {
			t.Fatalf("state %s succ %d: idx %d vs %d", s.Format(net), k, a.idx, b.idx)
		}
		if a.label.Kind != b.label.Kind || a.label.Chan != b.label.Chan {
			t.Fatalf("state %s succ %d: label %s(%s) vs %s(%s)", s.Format(net), k,
				a.label.Kind, a.label.Chan, b.label.Kind, b.label.Chan)
		}
		if len(a.label.Parts) != len(b.label.Parts) {
			t.Fatalf("state %s succ %d: %d parts vs %d", s.Format(net), k,
				len(a.label.Parts), len(b.label.Parts))
		}
		for i := range a.label.Parts {
			if a.label.Parts[i] != b.label.Parts[i] {
				t.Fatalf("state %s succ %d part %d: %+v vs %+v", s.Format(net), k, i,
					a.label.Parts[i], b.label.Parts[i])
			}
		}
		if !slices.Equal(a.state.Locs, b.state.Locs) || !slices.Equal(a.state.Vars, b.state.Vars) {
			t.Fatalf("state %s succ %d: discrete mismatch: %s vs %s", s.Format(net), k,
				a.state.Format(net), b.state.Format(net))
		}
		// Zones must be bit-identical matrices, not merely equivalent sets.
		za, zb := a.state.Zone, b.state.Zone
		for i := 0; i < za.Dim(); i++ {
			for j := 0; j < za.Dim(); j++ {
				if za.At(i, j) != zb.At(i, j) {
					t.Fatalf("state %s succ %d: zone differs at (%d,%d): %s vs %s",
						s.Format(net), k, i, j, za, zb)
				}
			}
		}
		// fire delay-closed the successor under the engine's urgency test.
		if dI, dR := e.delayAllowed(a.state.Locs, a.state.Vars), refDelayAllowed(net, a.state.Locs, a.state.Vars); dI != dR {
			t.Fatalf("state %s succ %d: delayAllowed %v indexed, %v reference", s.Format(net), k, dI, dR)
		}
	}
	if dI, dR := e.delayAllowed(s.Locs, s.Vars), refDelayAllowed(net, s.Locs, s.Vars); dI != dR {
		t.Fatalf("state %s: delayAllowed %v indexed, %v reference", s.Format(net), dI, dR)
	}
	for _, sc := range sr {
		ctxR.putState(sc.state)
	}
	return si
}

// diffTraffic counts how often a diffExplore run took the two forks of the
// enumeration no benchmark workload reaches (see the fork census on
// succCtx): binary-rendezvous successors, and admitted states whose delay an
// enabled urgent binary pair forbids while no location does.
type diffTraffic struct {
	binarySyncs, urgentPairs int
}

// diffExplore walks the reachable zone graph (bounded by maxStates; 0 is the
// whole graph) and compares the engine with the reference on every admitted
// state. Equal streams on every admitted state make the sweeps, their stats,
// suprema and replayed traces equal too.
func diffExplore(t testing.TB, net *ta.Network, maxStates int) diffTraffic {
	t.Helper()
	c, err := NewChecker(net)
	if err != nil {
		t.Fatal(err)
	}
	ctxI, ctxR := c.eng.newCtx(nil), c.eng.newCtx(nil)
	var traffic diffTraffic
	checked := 0
	_, err = c.Explore(Options{MaxStates: maxStates}, func(s *State) bool {
		for _, sc := range compareSuccessors(t, net, c.eng, ctxI, ctxR, s) {
			if sc.label.Kind == LabelSync {
				traffic.binarySyncs++
			}
			ctxI.putState(sc.state)
		}
		if refUrgentPairForbidsDelay(net, s) {
			traffic.urgentPairs++
		}
		checked++
		return false
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if checked == 0 {
		t.Fatal("no states compared")
	}
	return traffic
}

// refUrgentPairForbidsDelay reports whether s lets time pass by its
// locations but an urgent binary channel has an enabled pair.
func refUrgentPairForbidsDelay(net *ta.Network, s *State) bool {
	for pi, l := range s.Locs {
		if k := net.Procs[pi].Locations[l].Kind; k == ta.UrgentLoc || k == ta.Committed {
			return false
		}
	}
	for ci, ch := range net.Chans {
		if ch.Kind == ta.BinaryUrgent && refUrgentPair(net, s.Locs, s.Vars, ta.ChanID(ci)) {
			return true
		}
	}
	return false
}

// TestSuccessorsIndexedMatchesScanRandom runs the comparison over a random
// corpus. It is the only check of the binary-rendezvous and urgent-pair
// forks, so it also fails if the corpus stops reaching either.
func TestSuccessorsIndexedMatchesScanRandom(t *testing.T) {
	var total diffTraffic
	for seed := int64(0); seed < 60; seed++ {
		tr := diffExplore(t, randNet(seed), 400)
		total.binarySyncs += tr.binarySyncs
		total.urgentPairs += tr.urgentPairs
	}
	t.Logf("binary-rendezvous successors: %d, urgent-pair states: %d", total.binarySyncs, total.urgentPairs)
	if total.binarySyncs == 0 || total.urgentPairs == 0 {
		t.Fatalf("the random corpus no longer reaches both forks: %+v", total)
	}
}

// TestSuccessorsIndexedMatchesScanFullRun extends the comparison deeper into
// the first twelve random networks.
func TestSuccessorsIndexedMatchesScanFullRun(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		diffExplore(t, randNet(seed), 3000)
	}
}

// TestUrgentPairNeedsTwoProcesses pins an urgent-pair case the random corpus
// does not reach: a process enabled on both ends of an urgent binary channel
// cannot synchronize with itself, so time may pass.
func TestUrgentPairNeedsTwoProcesses(t *testing.T) {
	n := ta.NewNetwork("selfpair")
	x := n.AddClock("x")
	u := n.AddChan("u", ta.BinaryUrgent)
	p := n.AddProcess("P")
	l0 := p.AddLocation("l0", ta.Normal, ta.CLE(x, 3))
	p.AddEdge(ta.Edge{Src: l0, Dst: l0, Sync: ta.Sync{Chan: u.ID, Dir: ta.Emit}})
	p.AddEdge(ta.Edge{Src: l0, Dst: l0, Sync: ta.Sync{Chan: u.ID, Dir: ta.Recv}})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !refDelayAllowed(n, []ta.LocID{l0}, nil) {
		t.Fatal("the reference forbids delay on a self-pair")
	}
	diffExplore(t, n, 0)
}

// FuzzSuccessorsIndexed fuzzes the comparison over generator seeds: any seed
// whose random network the engine enumerates differently from the reference
// is a counterexample. Committed seeds live in
// testdata/fuzz/FuzzSuccessorsIndexed.
func FuzzSuccessorsIndexed(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1234, 99999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffExplore(t, randNet(seed), 150)
	})
}

// contractNet is a hand-built network stressing the grouped-by-process
// enumeration contract: three processes each owning several enabled edges on
// two shared channels, interleaved so bucket fills interleave too.
func contractNet(t *testing.T, kind ta.ChanKind) *ta.Network {
	t.Helper()
	n := ta.NewNetwork("contract")
	a := n.AddChan("a", kind)
	b := n.AddChan("b", kind)
	for pi := 0; pi < 3; pi++ {
		p := n.AddProcess("P" + string(rune('0'+pi)))
		l0 := p.AddLocation("l0", ta.Normal)
		l1 := p.AddLocation("l1", ta.Normal)
		// Every process: two receive edges on each channel plus, for P0 and
		// P2, an emit edge per channel — multiple enabled parts per (proc,
		// chan, dir) in the initial state.
		p.AddEdge(ta.Edge{Src: l0, Dst: l1, Sync: ta.Sync{Chan: b.ID, Dir: ta.Recv}})
		p.AddEdge(ta.Edge{Src: l0, Dst: l0, Sync: ta.Sync{Chan: a.ID, Dir: ta.Recv}})
		p.AddEdge(ta.Edge{Src: l0, Dst: l1, Sync: ta.Sync{Chan: a.ID, Dir: ta.Recv}})
		p.AddEdge(ta.Edge{Src: l0, Dst: l0, Sync: ta.Sync{Chan: b.ID, Dir: ta.Recv}})
		if pi%2 == 0 {
			p.AddEdge(ta.Edge{Src: l0, Dst: l1, Sync: ta.Sync{Chan: a.ID, Dir: ta.Emit}})
			p.AddEdge(ta.Edge{Src: l0, Dst: l1, Sync: ta.Sync{Chan: b.ID, Dir: ta.Emit}})
		}
	}
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n
}

// assertGrouped fails unless parts are grouped by process with the groups in
// increasing process order — the precondition of broadcastCombos' single-scan
// run-grouping.
func assertGrouped(t *testing.T, what string, parts []LabelPart) {
	t.Helper()
	seen := map[ta.ProcID]bool{}
	for i, pt := range parts {
		if i > 0 && parts[i-1].Proc == pt.Proc {
			continue // same run
		}
		if seen[pt.Proc] {
			t.Fatalf("%s: process %d appears in two separate runs: %+v", what, pt.Proc, parts)
		}
		seen[pt.Proc] = true
		if i > 0 && parts[i-1].Proc > pt.Proc {
			t.Fatalf("%s: process runs not in increasing order: %+v", what, parts)
		}
	}
}

// TestEnumerationOrderContract pins the grouped-by-process bucket order of
// the engine, and that its buckets hold exactly the edges the reference
// finds enabled, channel by channel.
func TestEnumerationOrderContract(t *testing.T) {
	for _, kind := range []ta.ChanKind{ta.Binary, ta.Broadcast} {
		net := contractNet(t, kind)
		c, err := NewChecker(net)
		if err != nil {
			t.Fatal(err)
		}
		e := c.eng
		ctxI, ctxR := e.newCtx(nil), e.newCtx(nil)
		s, err := e.initial(&ctxI.closeScratch)
		if err != nil {
			t.Fatal(err)
		}
		// Run the indexed enumerator once; its per-channel buckets stay
		// inspectable in ctxI until the next call.
		succs := compareSuccessors(t, net, e, ctxI, ctxR, s)
		if len(succs) == 0 {
			t.Fatal("contract network has no successors")
		}
		for _, sc := range succs {
			ctxI.putState(sc.state)
		}
		for ci := range net.Chans {
			em := ctxI.chanBuf[e.emOff[ci] : e.emOff[ci]+ctxI.chanLen[2*ci]]
			rc := ctxI.chanBuf[e.rcOff[ci] : e.rcOff[ci]+ctxI.chanLen[2*ci+1]]
			assertGrouped(t, "indexed emitters", em)
			assertGrouped(t, "indexed receivers", rc)
			rem, rrc := refEnabled(net, s.Locs, s.Vars, ta.ChanID(ci))
			if !slices.Equal(em, rem) || !slices.Equal(rc, rrc) {
				t.Fatalf("chan %d: buckets (%+v, %+v), reference (%+v, %+v)", ci, em, rc, rem, rrc)
			}
		}
	}
}

package core

import (
	"math/rand"
	"testing"

	"repro/internal/ta"
)

// This file is the differential oracle pinning the tentpole invariant of the
// compiled successor index: the one-pass indexed enumerator (succ.go) must
// produce a succ stream BIT-IDENTICAL to the legacy per-channel rescan
// (succ_scan.go) — same labels, same enumeration order, same successor
// states, same zones, same errors. Enumeration order is load-bearing:
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

// enginePair returns indexed and legacy engines over the same network, each
// with its own scratch context.
func enginePair(t testing.TB, net *ta.Network) (eI, eL *engine, ctxI, ctxL *succCtx) {
	t.Helper()
	cI, err := NewChecker(net)
	if err != nil {
		t.Fatal(err)
	}
	cL, err := NewChecker(net)
	if err != nil {
		t.Fatal(err)
	}
	cL.eng.legacyScan = true
	return cI.eng, cL.eng, cI.eng.newCtx(nil), cL.eng.newCtx(nil)
}

// compareSuccessors runs both enumerators on one state and fails unless the
// two succ streams are bit-identical. It also cross-checks the urgency test.
// Returns the indexed stream (legacy states are recycled).
func compareSuccessors(t testing.TB, net *ta.Network, eI, eL *engine, ctxI, ctxL *succCtx, s *State) []succ {
	t.Helper()
	si, errI := eI.successors(ctxI, s, nil)
	sl, errL := eL.successors(ctxL, s, nil)
	if (errI == nil) != (errL == nil) {
		t.Fatalf("state %s: indexed err=%v, legacy err=%v", s.Format(net), errI, errL)
	}
	if errI != nil {
		if errI.Error() != errL.Error() {
			t.Fatalf("state %s: error mismatch: %q vs %q", s.Format(net), errI, errL)
		}
		return nil
	}
	if len(si) != len(sl) {
		t.Fatalf("state %s: %d indexed successors, %d legacy", s.Format(net), len(si), len(sl))
	}
	for k := range si {
		a, b := si[k], sl[k]
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
		sameDiscrete := true
		for i := range a.state.Locs {
			if a.state.Locs[i] != b.state.Locs[i] {
				sameDiscrete = false
			}
		}
		for i := range a.state.Vars {
			if a.state.Vars[i] != b.state.Vars[i] {
				sameDiscrete = false
			}
		}
		if !sameDiscrete {
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
	}
	if dI, dL := eI.delayAllowed(s.Locs, s.Vars), eL.delayAllowed(s.Locs, s.Vars); dI != dL {
		t.Fatalf("state %s: delayAllowed %v indexed, %v legacy", s.Format(net), dI, dL)
	}
	for _, sc := range sl {
		ctxL.putState(sc.state)
	}
	return si
}

// diffExplore walks the reachable zone graph (bounded by maxStates) with the
// indexed enumerator and compares both enumerators on every stored state.
func diffExplore(t testing.TB, net *ta.Network, maxStates int) {
	t.Helper()
	eI, eL, ctxI, ctxL := enginePair(t, net)
	driver, err := NewChecker(net)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	_, err = driver.Explore(Options{MaxStates: maxStates}, func(s *State) bool {
		succs := compareSuccessors(t, net, eI, eL, ctxI, ctxL, s)
		for _, sc := range succs {
			ctxI.putState(sc.state)
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
}

func TestSuccessorsIndexedMatchesScanRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		diffExplore(t, randNet(seed), 400)
	}
}

// TestSuccessorsIndexedMatchesScanFullRun compares whole explorations:
// stats sequentially (the stream order makes them deterministic), deadlock
// verdicts both sequentially and with Workers=4 (run under -race in CI).
func TestSuccessorsIndexedMatchesScanFullRun(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		net := randNet(seed)
		cI, err := NewChecker(net)
		if err != nil {
			t.Fatal(err)
		}
		cL, err := NewChecker(net)
		if err != nil {
			t.Fatal(err)
		}
		cL.eng.legacyScan = true

		rI, errI := cI.Explore(Options{MaxStates: 3000}, nil)
		rL, errL := cL.Explore(Options{MaxStates: 3000}, nil)
		if (errI == nil) != (errL == nil) {
			t.Fatalf("seed %d: err %v vs %v", seed, errI, errL)
		}
		if errI != nil {
			continue
		}
		if rI.Stored != rL.Stored || rI.Popped != rL.Popped ||
			rI.Transitions != rL.Transitions || rI.Deadlocks != rL.Deadlocks {
			t.Fatalf("seed %d: stats differ: indexed %+v, legacy %+v", seed, rI.Stats, rL.Stats)
		}

		dI, errI := cI.CheckDeadlockFree(Options{MaxStates: 3000, Workers: 4})
		dL, errL := cL.CheckDeadlockFree(Options{MaxStates: 3000, Workers: 4})
		if (errI == nil) != (errL == nil) {
			t.Fatalf("seed %d: parallel err %v vs %v", seed, errI, errL)
		}
		if errI == nil && dI.Free != dL.Free {
			t.Fatalf("seed %d: parallel deadlock verdict %v vs %v", seed, dI.Free, dL.Free)
		}
	}
}

// FuzzSuccessorsIndexed fuzzes the differential oracle over generator seeds:
// any seed whose random network enumerates differently under the two
// implementations is a counterexample to the tentpole invariant. Committed
// seeds live in testdata/fuzz/FuzzSuccessorsIndexed.
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

// TestEnumerationOrderContract pins the grouped-by-process bucket order on
// both enumerators, and that the indexed buckets hold exactly what the legacy
// rescan collects, channel by channel.
func TestEnumerationOrderContract(t *testing.T) {
	for _, kind := range []ta.ChanKind{ta.Binary, ta.Broadcast} {
		net := contractNet(t, kind)
		eI, eL, ctxI, ctxL := enginePair(t, net)
		s, err := eI.initial(&ctxI.closeScratch)
		if err != nil {
			t.Fatal(err)
		}
		// Run the indexed enumerator once; its per-channel buckets stay
		// inspectable in ctxI until the next call.
		succs := compareSuccessors(t, net, eI, eL, ctxI, ctxL, s)
		if len(succs) == 0 {
			t.Fatal("contract network has no successors")
		}
		for _, sc := range succs {
			ctxI.putState(sc.state)
		}
		for ci := range net.Chans {
			em := ctxI.chanBuf[eI.emOff[ci] : eI.emOff[ci]+ctxI.chanLen[2*ci]]
			rc := ctxI.chanBuf[eI.rcOff[ci] : eI.rcOff[ci]+ctxI.chanLen[2*ci+1]]
			assertGrouped(t, "indexed emitters", em)
			assertGrouped(t, "indexed receivers", rc)
			lem, lrc := eL.enabledSyncEdges(ctxL, s, ta.ChanID(ci))
			assertGrouped(t, "legacy emitters", lem)
			assertGrouped(t, "legacy receivers", lrc)
			if len(em) != len(lem) || len(rc) != len(lrc) {
				t.Fatalf("chan %d: bucket sizes differ: (%d,%d) indexed vs (%d,%d) legacy",
					ci, len(em), len(rc), len(lem), len(lrc))
			}
			for i := range em {
				if em[i] != lem[i] {
					t.Fatalf("chan %d emitter %d: %+v vs %+v", ci, i, em[i], lem[i])
				}
			}
			for i := range rc {
				if rc[i] != lrc[i] {
					t.Fatalf("chan %d receiver %d: %+v vs %+v", ci, i, rc[i], lrc[i])
				}
			}
		}
	}
}

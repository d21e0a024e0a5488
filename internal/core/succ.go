package core

import (
	"fmt"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// engine computes symbolic initial states and successors following UPPAAL
// semantics: delay closure subject to invariants, urgency (urgent locations,
// urgent channels), committed locations, binary and broadcast
// synchronization. The zones it returns are raw — canonical, not
// extrapolated: maximal-constant extrapolation (bounds) is applied by whoever
// keeps a zone, the passed store on admission and replayTrace per step.
//
// The engine itself is immutable after construction (safe to share between
// goroutines); all mutable scratch state lives in a succCtx, of which the
// admitting loop, its lookahead helper and a trace replay each own one.
type engine struct {
	net *ta.Network
	dim int
	// bounds are the per-clock bounds extrapolation compares zone entries
	// against: Extra_M's, built from the finalized network's constants.
	// Always idempotent (newEngine checks): the store decides on raw zones.
	// Extra_LU gave Fischer-5 the same 46,361 stored / 131,185 fired as
	// Extra_M, inflates clock suprema, and was deleted in PR 28.
	bounds dbm.ExtraBounds
	// keys packs a state's discrete part into the passed store's entry keys
	// and decodes a popped state's back out of them (succCtx.unpark).
	keys discretePacker

	// emOff/rcOff are the per-channel segment starts of the enabled-edge
	// buckets inside succCtx.chanBuf: channel c's enabled emitters occupy
	// chanBuf[emOff[c]:], its receivers chanBuf[rcOff[c]:]. Segment sizes
	// come from the network's per-channel edge counts — an upper bound on
	// simultaneously enabled edges — so one flat buffer of bucketLen parts,
	// allocated once per succCtx, holds every bucket with no per-fire
	// growth.
	emOff, rcOff []int32
	bucketLen    int
}

func newEngine(net *ta.Network) (*engine, error) {
	if !net.Finalized() {
		return nil, fmt.Errorf("core: network %s must be finalized before analysis", net.Name)
	}
	// The one thing admission relies on (store.go, "Admission index"): a
	// stored zone is a fixed point of its extrapolation, which needs every
	// constant to be >= 0. Finalize pads the networks' constant vectors with
	// 0, so only a hand-edited vector fails here.
	bounds := dbm.NewExtraM(net.MaxConsts)
	if !bounds.Idempotent() {
		return nil, fmt.Errorf("core: negative extrapolation constant: a stored zone would not be a fixed point of its own extrapolation")
	}
	e := &engine{net: net, dim: net.NumClocks(), bounds: bounds, keys: newDiscretePacker(net)}
	nChans := len(net.Chans)
	offs := make([]int32, 2*nChans)
	e.emOff = offs[:nChans:nChans]
	e.rcOff = offs[nChans:]
	off := int32(0)
	for c := 0; c < nChans; c++ {
		emit, recv := net.ChanEdgeCounts(ta.ChanID(c))
		e.emOff[c] = off
		off += int32(emit)
		e.rcOff[c] = off
		off += int32(recv)
	}
	e.bucketLen = int(off)
	return e, nil
}

// succCtx is the scratch state of one goroutine of the successor engine. The hot
// path writes candidate successors into these buffers and only materializes
// heap objects once a transition is known to fire, so clock-disabled
// transitions (the common case) allocate nothing.
//
// Zone ownership: zone is the current scratch matrix, owned by the ctx. On
// a successful fire it is detached into the new State (which then owns it)
// and replaced from pool. It goes back into pool with its State when the
// next expansion in the same slot recycles the expansion that fired it
// (recycle; "Frontier" in explore.go), whether the passed store subsumed the
// state or admitted it (see "Zone ownership" in store.go). The zone of a
// fired successor is raw; the store widens it — with this ctx's rows/cols,
// handed to passedSet.add — only if it admits it.
//
// Fork census (continued from the dbm package comment; scripts/traffic.sh
// prints it): a fired transition tightens its zone with ta.ApplyConstraints
// for its guards and with ONE dbm.DelayUnder for the invariants of the whole
// new location vector, delay included (closeInPlace). Two forks of the
// enumeration have no traffic on any workload of BENCHMARK.json — binary
// rendezvous (successors) and urgentPairEnabled (delayAllowed): arch-compiled
// networks declare only broadcast channels, the generated .ta models none.
// Both stay, they are semantics of the .ta language, covered by this
// package's tests.
type succCtx struct {
	// slabs is the sweep's slab set the ctx carves its States and successor
	// lists from (getState, dbm.Grow), and its pool its matrices; nil for a
	// heap ctx, whose States may outlive the sweep (trace replay). The lists —
	// its free list of States, its successor lists — hold pointers only to
	// carved States, so they may be carved under the slab rule.
	slabs *dbm.Slabs
	pool  *dbm.Pool
	zone  *dbm.DBM

	closeScratch

	keys *discretePacker // the engine's, for unpark

	locs  []ta.LocID  // scratch location vector, len = #processes
	vars  []int64     // scratch variable valuation, len = #variables
	parts []LabelPart // scratch label under construction

	// chanBuf/chanLen/active are the per-channel enabled-edge buckets of the
	// one-pass collection (engine.successors): chanBuf is one flat buffer
	// holding channel c's enabled emitters at engine.emOff[c] and receivers
	// at engine.rcOff[c], chanLen[2c]/chanLen[2c+1] are the bucket fills,
	// and active lists the channels touched by the current state. All three
	// are sized once from the compiled index (newCtx) and reused across
	// fires — bucketing allocates nothing, ever.
	chanBuf []LabelPart
	chanLen []int32
	active  []int32

	runs []partRun // broadcast receiver grouping

	// states is a free list of State objects (with their discrete vectors)
	// that this ctx fired or rebuilt and that were put back (putState: an
	// expansion's recycle, or trace replay's unselected successors). Store
	// entries keep packed copies of the discrete parts of admitted states
	// (store.go), so recycling a state can never corrupt the passed store.
	// Every State on the free list of a slab ctx is one getState carved: a
	// heap State there would be referenced from carved memory (a successor
	// list) that does not keep it alive.
	states []*State

	// chunk is a bump allocator for the Label.Parts of fired transitions:
	// stable copies are carved out of large blocks instead of one
	// allocation per transition. Blocks live until the ctx is dropped.
	chunk []LabelPart

	// keepLabels controls whether fired labels are kept, with stable Parts
	// copies. Trace replay needs them; the admitting loop and its helper turn
	// this off (parent-log records keep successor indices, explore.go) and
	// successors zero the labels instead — which also keeps the channel
	// name, a heap string, out of their carved successor lists.
	keepLabels bool
}

// closeScratch is what turning a fired zone into a stored one works in besides
// the zone itself: closeInPlace uses inv, the widening of an admitted zone
// rows and cols. It is owned by one worker (embedded in its succCtx; the
// explorer holds one for the initial state), reused across fires and
// admissions, and never escapes into states or stores — the same recycling
// rules as pooled zones keep the hot path allocation-free.
type closeScratch struct {
	// inv collects the resolved invariant bounds of the new location vector,
	// the tightest per clock, for the one dbm.DelayUnder call that applies
	// them.
	inv *dbm.UpperBounds
	// rows/cols collect the rows and columns extrapolation loosens, so
	// canonicalization after it re-runs Floyd–Warshall only over those
	// (dbm.CloseRows) instead of the full O(n³) pass.
	rows, cols *dbm.Touched
}

// newCloseScratch returns the scratch of one worker, carved from slabs (a nil
// set: the heap).
func (e *engine) newCloseScratch(slabs *dbm.Slabs) closeScratch {
	return closeScratch{
		inv:  slabs.UpperBounds(e.dim),
		rows: slabs.Touched(e.dim),
		cols: slabs.Touched(e.dim),
	}
}

// partRun is a contiguous range of a channel's receiver bucket belonging to
// one process.
type partRun struct{ start, end int }

// newCtx returns a fresh scratch context for one exploration worker, its zone
// pool carving from the sweep's slab set. A nil set gives a ctx on the plain
// heap, for states that outlive the sweep (trace replay).
//
// A slab ctx carves its scratch vectors and closeScratch too: they live as
// long as the ctx and point only into the set, so only the ctx itself and its
// pool are heap objects.
func (e *engine) newCtx(slabs *dbm.Slabs) *succCtx {
	nChans := len(e.net.Chans)
	ints := dbm.CarveSlice[int32](slabs, 3*nChans)
	pool := slabs.Pool(e.dim)
	return &succCtx{
		slabs:        slabs,
		pool:         pool,
		zone:         pool.Get(), // contents unspecified; fire overwrites it
		closeScratch: e.newCloseScratch(slabs),
		keys:         &e.keys,
		locs:         dbm.CarveSlice[ta.LocID](slabs, len(e.net.Procs)),
		vars:         dbm.CarveSlice[int64](slabs, len(e.net.Vars)),
		chanBuf:      dbm.CarveSlice[LabelPart](slabs, e.bucketLen),
		chanLen:      ints[: 2*nChans : 2*nChans],
		active:       ints[2*nChans : 2*nChans : 3*nChans],
		keepLabels:   true,
	}
}

// allocParts returns a stable copy of parts carved from the ctx's chunk
// arena, full-slice-capped so later appends can never bleed into it.
func (ctx *succCtx) allocParts(parts []LabelPart) []LabelPart {
	n := len(parts)
	if cap(ctx.chunk)-len(ctx.chunk) < n {
		ctx.chunk = make([]LabelPart, 0, max(256, n))
	}
	start := len(ctx.chunk)
	ctx.chunk = append(ctx.chunk, parts...)
	return ctx.chunk[start : start+n : start+n]
}

// getState returns a recycled or fresh State with discrete vectors sized
// for the network. The caller must fill Locs, Vars, and Zone. A fresh State
// of a slab ctx is carved (newState), so the sweep's States cost the
// collector nothing — on the loop's ctx and on its lookahead helper's alike.
func (ctx *succCtx) getState() *State {
	if n := len(ctx.states); n > 0 {
		s := ctx.states[n-1]
		ctx.states[n-1] = nil
		ctx.states = ctx.states[:n-1]
		s.ref = noRef
		return s
	}
	return newState(ctx.slabs, len(ctx.locs), len(ctx.vars))
}

// putState releases a state nothing references any more, one this ctx fired
// or rebuilt: its zone goes back to the DBM pool and the struct (with its
// discrete vectors) onto the free list. The caller must guarantee nothing
// else aliases the state — see the ownership protocol in store.go.
func (ctx *succCtx) putState(s *State) {
	ctx.pool.Put(s.Zone)
	s.Zone = nil
	if len(s.Locs) == len(ctx.locs) && len(s.Vars) == len(ctx.vars) {
		if len(ctx.states) == cap(ctx.states) {
			ctx.states = dbm.Grow(ctx.slabs, ctx.states)
		}
		ctx.states = append(ctx.states, s)
	}
}

// recycle puts back the States of the expansion this ctx made before in the
// same slot, once the loop has admitted or discarded all of them: the fired
// successors of out in list order, then prev, the expanded state (nil before
// the first expansion). That is the order a loop that freed each successor
// as it decided it, and the expanded state last, would free them in, so the
// free list hands them out again in the same order.
func (ctx *succCtx) recycle(prev *State, out []succ) {
	for i := range out {
		ctx.putState(out[i].state)
	}
	if prev != nil {
		ctx.putState(prev)
	}
}

// unpark rebuilds the state a popped node waited as: a pooled State with the
// discrete part decoded from the entry's key, the node's ref, and the payload
// decoded into a pooled matrix. It only reads the node; the payload is
// returned for the loop to give back through passedSet.release.
func (ctx *succCtx) unpark(n *waiting) (*State, dbm.Compact) {
	s := ctx.getState()
	ctx.keys.unpack(n.entry.key(ctx.keys.words), s.Locs, s.Vars)
	s.ref = n.ref
	s.Zone = ctx.pool.Get()
	payload := n.packed
	payload.DecodeInto(s.Zone)
	return s, payload
}

// initial computes the initial symbolic state: all processes in their initial
// locations, variables at initial values, all clocks zero, then delay-closed
// — raw, like a fired successor. The returned state owns its zone (it is not
// pooled).
func (e *engine) initial(sc *closeScratch) (*State, error) {
	s := newState(nil, len(e.net.Procs), len(e.net.Vars))
	for i, p := range e.net.Procs {
		s.Locs[i] = p.Init
	}
	for i, d := range e.net.Vars {
		s.Vars[i] = d.Init
	}
	s.Zone = dbm.New(e.dim)
	if !e.closeInPlace(s.Zone, s.Locs, s.Vars, sc) {
		return nil, fmt.Errorf("core: initial state violates an invariant")
	}
	return s, nil
}

// succ is one symbolic successor together with the transition that
// produced it and its index in the deterministic enumeration order of
// successors (before any RDFS shuffle). Parent-log records keep only this
// index — replay re-enumerates the parent's successors and selects by it,
// so logs never need label copies.
type succ struct {
	label Label
	state *State
	idx   int32
}

// successors appends every symbolic action successor of s to out. Delay is
// folded into stored states, so no explicit delay successors are produced.
// Labels passed through the candidate pipeline point at ctx scratch and are
// cloned only when a transition actually fires.
//
// Enumeration is ONE pass over the location vector driven by the compiled
// transition index (ta.Finalize): each location contributes its tau edges
// (fired immediately — they precede every synchronization in the
// deterministic order) and its sync edges, whose data guard is evaluated
// exactly once before the enabled ones are bucketed into the per-channel
// scratch segments of ctx.chanBuf. Rendezvous pairs and broadcast combos are
// then enumerated over only the populated channels, in ascending channel
// order. The enumeration-order contract, which parent logs, traces and
// verdict bytes depend on:
//
//  1. tau fires first, in (process, edge index) order;
//  2. channels fire in ascending channel order;
//  3. within a channel, enabled emitters and receivers are grouped by
//     process in increasing process order, each group in edge index order;
//  4. binary rendezvous enumerate emitter-major, broadcast combos emitter
//     by emitter.
//
// The index-free reference in succ_ref_test.go, which reads only what the
// network declares, pins the stream state by state, together with
// delayAllowed, on every admitted state (diffExplore in succ_index_test.go
// and succ_index_case_test.go, FuzzSuccessorsIndexed).
//
// The index is shared and read-only (ta.Network.buildIndex); the
// per-channel buckets are per-ctx scratch. ctx.chanBuf, segmented by the
// engine's precomputed emOff / rcOff offsets, follows the recycling rules of
// pooled zones: reset per expansion, reused across fires, and never escaping
// into states, labels or stores.
func (e *engine) successors(ctx *succCtx, s *State, out []succ) ([]succ, error) {
	// Reset the buckets the previous enumeration touched. Doing it on entry
	// (rather than exit) keeps the scratch self-healing across error paths.
	for _, ci := range ctx.active {
		ctx.chanLen[2*ci] = 0
		ctx.chanLen[2*ci+1] = 0
	}
	ctx.active = ctx.active[:0]

	anyCommitted := false
	for pi, l := range s.Locs {
		if e.net.Procs[pi].CommittedLoc(l) {
			anyCommitted = true
			break
		}
	}
	// committedOK implements the committed-location rule: when any process
	// is committed, only transitions involving a committed process may fire.
	committedOK := func(parts []LabelPart) bool {
		if !anyCommitted {
			return true
		}
		for _, pt := range parts {
			if e.net.Procs[pt.Proc].CommittedLoc(s.Locs[pt.Proc]) {
				return true
			}
		}
		return false
	}

	base := len(out)
	var err error
	try := func(label Label) {
		if err != nil || !committedOK(label.Parts) {
			return
		}
		var ns *State
		ns, err = e.fire(ctx, s, label)
		if err == nil && ns != nil {
			if ctx.keepLabels {
				label.Parts = ctx.allocParts(label.Parts)
			} else {
				label = Label{} // scratch-backed; caller discards labels
			}
			if len(out) == cap(out) {
				out = dbm.Grow(ctx.slabs, out)
			}
			out = append(out, succ{label, ns, int32(len(out) - base)})
		}
	}

	// The single pass: tau fires and sync bucketing per process. Buckets
	// fill in pass order, so within every channel the parts stay grouped by
	// process in increasing process order — broadcastCombos' run-grouping
	// depends on that.
	for pi, p := range e.net.Procs {
		l := s.Locs[pi]
		for _, ei := range p.TauEdges(l) {
			ed := &p.Edges[ei]
			if !ta.EvalGuard(ed.Guard, s.Vars) {
				continue
			}
			ctx.parts = append(ctx.parts[:0], LabelPart{ta.ProcID(pi), int(ei)})
			try(Label{Kind: LabelTau, Parts: ctx.parts})
		}
		for _, se := range p.SyncEdges(l) {
			if !ta.EvalGuard(p.Edges[se.Edge].Guard, s.Vars) {
				continue
			}
			ci := int32(se.Chan)
			if ctx.chanLen[2*ci] == 0 && ctx.chanLen[2*ci+1] == 0 {
				ctx.active = append(ctx.active, ci)
			}
			part := LabelPart{ta.ProcID(pi), int(se.Edge)}
			if se.Dir == ta.Emit {
				ctx.chanBuf[e.emOff[ci]+ctx.chanLen[2*ci]] = part
				ctx.chanLen[2*ci]++
			} else {
				ctx.chanBuf[e.rcOff[ci]+ctx.chanLen[2*ci+1]] = part
				ctx.chanLen[2*ci+1]++
			}
		}
	}
	if err != nil {
		return out, err
	}

	// Channels were appended in first-touch (location-vector) order; the
	// enumeration contract wants ascending channel order. The populated set
	// is small, so an insertion sort beats anything with allocation.
	act := ctx.active
	for i := 1; i < len(act); i++ {
		for j := i; j > 0 && act[j] < act[j-1]; j-- {
			act[j], act[j-1] = act[j-1], act[j]
		}
	}

	// Synchronizations over only the populated channels.
	for _, ci := range act {
		em := ctx.chanBuf[e.emOff[ci] : e.emOff[ci]+ctx.chanLen[2*ci]]
		if len(em) == 0 {
			continue
		}
		rc := ctx.chanBuf[e.rcOff[ci] : e.rcOff[ci]+ctx.chanLen[2*ci+1]]
		ch := &e.net.Chans[ci]
		if ch.Kind.IsBroadcast() {
			for _, emp := range em {
				e.broadcastCombos(ctx, ch, emp, rc, try)
			}
		} else {
			for _, emp := range em {
				for _, rcp := range rc {
					if rcp.Proc == emp.Proc {
						continue
					}
					ctx.parts = append(ctx.parts[:0], emp, rcp)
					try(Label{Kind: LabelSync, Chan: ch.Name, Parts: ctx.parts})
				}
			}
		}
		if err != nil {
			return out, err
		}
	}
	return out, err
}

// broadcastCombos enumerates the maximal-participation broadcast
// transitions for one emitter: every process with at least one enabled
// receive edge participates with exactly one of them; processes without
// enabled receive edges are skipped. receivers must be grouped by process
// (as the bucketing in successors produces them), so the grouping is a
// single scan over contiguous runs instead of a map.
func (e *engine) broadcastCombos(ctx *succCtx, ch *ta.Channel, em LabelPart,
	receivers []LabelPart, try func(Label)) {
	runs := ctx.runs[:0]
	for i := 0; i < len(receivers); {
		j := i
		for j < len(receivers) && receivers[j].Proc == receivers[i].Proc {
			j++
		}
		if receivers[i].Proc != em.Proc {
			runs = append(runs, partRun{i, j})
		}
		i = j
	}
	ctx.runs = runs
	parts := append(ctx.parts[:0], em)
	var rec func(k int)
	rec = func(k int) {
		if k == len(runs) {
			try(Label{Kind: LabelBroadcast, Chan: ch.Name, Parts: parts})
			return
		}
		for x := runs[k].start; x < runs[k].end; x++ {
			parts = append(parts, receivers[x])
			rec(k + 1)
			parts = parts[:len(parts)-1]
		}
	}
	rec(0)
	ctx.parts = parts
}

// fire executes one transition symbolically. It returns (nil, nil) when the
// transition is clock-disabled or leads to an invariant-violating state —
// paths that touch only ctx scratch and allocate nothing. On success the
// scratch zone — raw, see closeInPlace — is detached into the returned state
// and replaced from the pool, so the per-transition allocation cost is one
// pooled Get (amortized zero) plus the discrete-vector clones.
func (e *engine) fire(ctx *succCtx, s *State, label Label) (*State, error) {
	// Quick reject: a guard constraint that alone contradicts the parent
	// zone disables the transition without copying the matrix. This is the
	// common case on dense interleavings, so it runs before any work.
	for _, pt := range label.Parts {
		ed := &e.net.Procs[pt.Proc].Edges[pt.Edge]
		if !ta.ConstraintsFeasible(s.Zone, ed.ClockGuard, s.Vars) {
			return nil, nil
		}
	}
	z := ctx.zone
	z.CopyFrom(s.Zone)
	// Clock guards are evaluated against the pre-transition valuation.
	if !e.applyGuards(z, label.Parts, s.Vars) {
		return nil, nil
	}
	vars := ctx.vars
	copy(vars, s.Vars)
	for _, pt := range label.Parts {
		ta.ApplyUpdate(e.net.Procs[pt.Proc].Edges[pt.Edge].Update, vars)
	}
	if err := e.net.CheckVarBounds(vars); err != nil {
		return nil, fmt.Errorf("core: on transition %s: %w", label.Format(e.net), err)
	}
	locs := ctx.locs
	copy(locs, s.Locs)
	for _, pt := range label.Parts {
		ed := &e.net.Procs[pt.Proc].Edges[pt.Edge]
		locs[pt.Proc] = ed.Dst
		for _, c := range ed.Frees {
			z.Free(int(c))
		}
		for _, r := range ed.Resets {
			z.Reset(int(r.Clock), r.Value)
		}
	}
	if !e.closeInPlace(z, locs, vars, &ctx.closeScratch) {
		return nil, nil
	}
	ns := ctx.getState()
	copy(ns.Locs, locs)
	copy(ns.Vars, vars)
	ns.Zone = z
	ctx.zone = ctx.pool.Get()
	return ns, nil
}

// applyGuards intersects z with the clock guard of every edge of a label,
// reporting nonemptiness.
func (e *engine) applyGuards(z *dbm.DBM, parts []LabelPart, vars []int64) bool {
	for _, pt := range parts {
		if !ta.ApplyConstraints(z, e.net.Procs[pt.Proc].Edges[pt.Edge].ClockGuard, vars) {
			return false
		}
	}
	return true
}

// closeInPlace turns the zone a transition produced (guards, frees and resets
// applied) into the raw zone of the symbolic state at locs, in place:
// intersected with the invariant of every location of the vector and
// delay-closed under them when urgency permits — canonical, NOT extrapolated.
// It reports false — an invariant-violating state, no successor — when the
// invariants empty the zone.
//
// The invariants are gathered once, resolved under vars and reduced to the
// tightest bound per clock in sc.inv, and a single dbm.DelayUnder applies
// them, delay included: O(k·n + n²) for the vector's k bounded clocks,
// however many of them bite, and exact, so the zone is bit-identical to what
// the full Floyd–Warshall would give. Extrapolation is not this function's
// job: most fired zones are subsumed, which the store can tell from the raw
// zone (storeEntry.admit), so only an admitted zone is widened.
func (e *engine) closeInPlace(z *dbm.DBM, locs []ta.LocID, vars []int64, sc *closeScratch) bool {
	sc.inv.Reset()
	for pi, l := range locs {
		for _, c := range e.net.Procs[pi].Locations[l].Invariant {
			// Finalize admits only xI ≺ bound as an invariant (J is the
			// reference clock).
			sc.inv.Lower(int(c.I), c.Resolve(vars))
		}
	}
	return z.DelayUnder(sc.inv, e.delayAllowed(locs, vars))
}

// delayAllowed implements the urgency rule: no delay while any process is in
// an urgent or committed location, or any urgent-channel synchronization is
// enabled (data-guard-wise; urgent edges carry no clock guards by
// validation). The compiled index narrows the channel test to the urgent
// channels and, per channel, to the processes that actually own edges on it.
func (e *engine) delayAllowed(locs []ta.LocID, vars []int64) bool {
	for pi, l := range locs {
		if e.net.Procs[pi].NoDelayLoc(l) {
			return false
		}
	}
	for _, ci := range e.net.UrgentChans() {
		if e.net.Chans[ci].Kind == ta.BroadcastUrgent {
			// A broadcast sender never blocks: any enabled emitter forbids
			// delay.
			if e.urgentEmitEnabled(locs, vars, ci) {
				return false
			}
		} else if e.urgentPairEnabled(locs, vars, ci) {
			return false
		}
	}
	return true
}

// syncEnabled reports whether process pi, at location l, has a data-guard-
// enabled edge on channel c in direction d.
func (e *engine) syncEnabled(pi ta.ProcID, l ta.LocID, c ta.ChanID, d ta.SyncDir, vars []int64) bool {
	p := e.net.Procs[pi]
	for _, se := range p.SyncEdges(l) {
		if se.Chan == c && se.Dir == d && ta.EvalGuard(p.Edges[se.Edge].Guard, vars) {
			return true
		}
	}
	return false
}

// urgentEmitEnabled reports whether any emit edge on channel c is
// data-guard-enabled, visiting only the processes that own emit edges on c.
func (e *engine) urgentEmitEnabled(locs []ta.LocID, vars []int64, c ta.ChanID) bool {
	for _, pi := range e.net.ChanEmitProcs(c) {
		if e.syncEnabled(pi, locs[pi], c, ta.Emit, vars) {
			return true
		}
	}
	return false
}

// urgentPairEnabled reports whether some emit and receive edge on channel c
// are simultaneously enabled in distinct processes, visiting only the
// channel's participants.
func (e *engine) urgentPairEnabled(locs []ta.LocID, vars []int64, c ta.ChanID) bool {
	emitSeen, emitMany := false, false
	var emitProc ta.ProcID
	for _, pi := range e.net.ChanEmitProcs(c) {
		if !e.syncEnabled(pi, locs[pi], c, ta.Emit, vars) {
			continue
		}
		if emitSeen {
			emitMany = true
			break
		}
		emitSeen, emitProc = true, pi
	}
	if !emitSeen {
		return false
	}
	recvSeen, recvMany := false, false
	var recvProc ta.ProcID
	for _, pi := range e.net.ChanRecvProcs(c) {
		if !e.syncEnabled(pi, locs[pi], c, ta.Recv, vars) {
			continue
		}
		if recvSeen {
			recvMany = true
			break
		}
		recvSeen, recvProc = true, pi
	}
	if !recvSeen {
		return false
	}
	// A pair exists unless every enabled emitter and receiver live in the
	// same single process.
	return emitMany || recvMany || emitProc != recvProc
}

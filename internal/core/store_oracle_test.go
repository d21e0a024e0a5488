package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// This file is the compact-store differential oracle: a full-DBM reference
// implementation of passedSet (the pre-compression store semantics — plain
// copied matrices, entrywise SubsetEq, no signatures, no interning) is run
// against the compact store through the Options.passed injection hook. The
// reference also keeps the admission order the engine had before the store
// decided on raw zones: it extrapolates what it is given FIRST and decides on
// the widened zone. So every differential run below is at the same time the
// engine-level check of E(y) ⊆ r ⟺ y ⊆ r ("Admission index" in store.go).
// Two modes:
//
//   - Shadow mode: one sweep drives BOTH stores behind a serializing mutex
//     and every single admission decision must agree. This works under
//     Workers > 1 too, where comparing two separate runs would be unsound
//     (racy double-admission makes counts scheduling-dependent).
//   - Replacement mode: two sequential sweeps — default compact store vs
//     injected reference — must be bit-identical in verdicts, Stats, and
//     replayed traces, proving the store swap is invisible end to end.

// refStore is the reference passedSet: full-DBM zones, linear subsumption,
// every zone extrapolated before anything is decided about it.
type refStore struct {
	mu      sync.Mutex
	bounds  *dbm.ExtraBounds
	buckets map[uint64][]*refEntry
	zones   int
	zbytes  int64
	pruned  int // stored zones a later admission covered
}

type refEntry struct {
	key  uint64
	locs []ta.LocID
	vars []int64
	zs   []*dbm.DBM
}

func newRefStore(bounds *dbm.ExtraBounds) *refStore {
	return &refStore{bounds: bounds, buckets: make(map[uint64][]*refEntry)}
}

func (st *refStore) add(s *State, sc *closeScratch) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	s.Zone.Extrapolate(st.bounds, sc.rows, sc.cols)
	h := s.discreteKey()
	var e *refEntry
	for _, cand := range st.buckets[h] {
		if cand.key == h && slices.Equal(cand.locs, s.Locs) && slices.Equal(cand.vars, s.Vars) {
			e = cand
			break
		}
	}
	if e == nil {
		e = &refEntry{key: h, locs: slices.Clone(s.Locs), vars: slices.Clone(s.Vars)}
		st.buckets[h] = append(st.buckets[h], e)
	}
	for _, z := range e.zs {
		if s.Zone.SubsetEq(z) {
			return false
		}
	}
	keep := e.zs[:0]
	for _, z := range e.zs {
		if z.SubsetEq(s.Zone) {
			st.zones--
			st.pruned++
			st.zbytes -= dbm.ZoneBytes(z.Dim())
		} else {
			keep = append(keep, z)
		}
	}
	e.zs = append(keep, s.Zone.Copy())
	st.zones++
	st.zbytes += dbm.ZoneBytes(s.Zone.Dim())
	// The waiting state's payload is a heap buffer of its own: the reference
	// never recycles anything, so there is nothing for release to do.
	s.packed = dbm.EncodeCompact(s.Zone, nil)
	return true
}

func (st *refStore) release(s *State) { s.packed = nil }

func (st *refStore) size() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.zones
}

func (st *refStore) bytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.zbytes
}

func (st *refStore) internStats() (hits, misses int64) { return 0, 0 }
func (st *refStore) contention() int64                 { return 0 }

// shadowStore drives the compact store under test and the reference in
// lockstep: the mutex serializes concurrent admissions so both stores see
// the identical sequence, making per-decision equality a sound assertion
// even with Workers > 1. The reference works on a copy of the raw zone, so
// the store under test still gets it raw; when both admit, the zone the store
// left in the state must be the one the reference widened.
type shadowStore struct {
	mu            sync.Mutex
	fast          passedSet
	ref           *refStore
	disagreements atomic.Int64
	// rejectedUnwidened counts the rejections in which the two stores decided
	// on different zones: the raw one was subsumed and extrapolation would
	// have changed it (y ⊆ r and E(y) ≠ y).
	rejectedUnwidened atomic.Int64
}

func (sh *shadowStore) add(s *State, sc *closeScratch) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	widened := &State{Locs: s.Locs, Vars: s.Vars, Zone: s.Zone.Copy()}
	b := sh.ref.add(widened, sc)
	a := sh.fast.add(s, sc)
	if a != b || (a && !s.Zone.Eq(widened.Zone)) {
		sh.disagreements.Add(1)
	}
	if !a && !s.Zone.Eq(widened.Zone) {
		sh.rejectedUnwidened.Add(1)
	}
	return a
}

func (sh *shadowStore) release(s *State) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.fast.release(s)
}

func (sh *shadowStore) size() int                         { return sh.fast.size() }
func (sh *shadowStore) bytes() int64                      { return sh.fast.bytes() }
func (sh *shadowStore) internStats() (hits, misses int64) { return sh.fast.internStats() }
func (sh *shadowStore) contention() int64                 { return sh.fast.contention() }

// storeShapes are the store configurations the store tests cover: the
// unlocked single shard a sequential run gets, driven by one worker, and
// locked stores of few and of many shards driven by racing workers.
var storeShapes = []struct{ shards, workers int }{{1, 1}, {4, 4}, {64, 4}}

// TestCompactStoreShadowMatchesReference asserts every admission decision of
// the compact store (one unlocked shard, and sharded) equals the full-DBM
// reference's on a real exploration, sequentially and with racing workers
// (-race covers the concurrent paths).
func TestCompactStoreShadowMatchesReference(t *testing.T) {
	for _, shape := range storeShapes {
		n, _, _, _ := buildGrid(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		fast := newStore(shape.shards, nil, &c.eng.bounds)
		sh := &shadowStore{fast: fast, ref: newRefStore(&c.eng.bounds)}
		res, err := c.Explore(Options{Workers: shape.workers, passed: sh}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := sh.disagreements.Load(); d != 0 {
			t.Errorf("%+v: %d admission decisions diverged from the reference store", shape, d)
		}
		if fast.size() != sh.ref.size() {
			t.Errorf("%+v: compact store holds %d zones, reference %d", shape, fast.size(), sh.ref.size())
		}
		if res.Stored != sh.ref.size() {
			t.Errorf("%+v: Stats.Stored=%d, stored zones=%d", shape, res.Stored, sh.ref.size())
		}
		checkStoreLayout(t, fast)
	}
}

// buildFischer is Fischer's mutual-exclusion protocol for n processes (write
// bound 2, wait constant 3): high branching, most successors subsumed, and
// nearly every zone changed by extrapolation — the clocks of idle and
// critical processes run far past their constants.
func buildFischer(t *testing.T, n int) *ta.Network {
	t.Helper()
	var b strings.Builder
	b.WriteString("system:fischer\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "clock:x%d\n", i)
	}
	fmt.Fprintf(&b, "int:id:0:0:%d\n", n)
	for i := 1; i <= n; i++ {
		p := fmt.Sprintf("P%d", i)
		fmt.Fprintf(&b, "process:%s\n", p)
		fmt.Fprintf(&b, "location:%s:idle{initial}\n", p)
		fmt.Fprintf(&b, "location:%s:req{invariant: x%d<=2}\n", p, i)
		fmt.Fprintf(&b, "location:%s:wait\n", p)
		fmt.Fprintf(&b, "location:%s:cs\n", p)
		fmt.Fprintf(&b, "edge:%s:idle:req{guard: id==0; do: x%d=0}\n", p, i)
		fmt.Fprintf(&b, "edge:%s:req:wait{guard: x%d<=2; do: id=%d, x%d=0}\n", p, i, i, i)
		fmt.Fprintf(&b, "edge:%s:wait:req{guard: id==0; do: x%d=0}\n", p, i)
		fmt.Fprintf(&b, "edge:%s:wait:cs{guard: x%d>3 && id==%d}\n", p, i, i)
		fmt.Fprintf(&b, "edge:%s:cs:idle{do: id=0}\n", p)
	}
	n2, err := ta.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return n2
}

// TestRawAdmissionMatchesWidenFirst is the engine-level check of the lemma
// admission rests on: the store decides on the raw zone and widens what it
// admits, the reference widens first and decides on the widened zone, and on
// whole sweeps — one worker and four racing ones, one shard, 4 and 64 —
// every decision and every admitted zone must be the same.
// The sweeps must reach the case the lemma is about: a raw zone rejected that
// extrapolation would have changed.
func TestRawAdmissionMatchesWidenFirst(t *testing.T) {
	nets := []*ta.Network{buildFischer(t, 3), buildWidening(t, 6), testRadioNet(t), testDiagNet(t)}
	grid, _, _, _ := buildGrid(t)
	nets = append(nets, grid)
	for _, net := range nets {
		var lemmaCases int64
		for _, shape := range storeShapes {
			c, err := NewChecker(net)
			if err != nil {
				t.Fatal(err)
			}
			fast := newStore(shape.shards, nil, &c.eng.bounds)
			sh := &shadowStore{fast: fast, ref: newRefStore(&c.eng.bounds)}
			if _, err := c.Explore(Options{Workers: shape.workers, MaxStates: 20_000, passed: sh}, nil); err != nil {
				t.Fatal(err)
			}
			if d := sh.disagreements.Load(); d != 0 {
				t.Errorf("%s %+v: %d admissions diverged from widen-first", net.Name, shape, d)
			}
			checkStoreLayout(t, fast)
			lemmaCases += sh.rejectedUnwidened.Load()
		}
		if net.Name == "fischer" && lemmaCases == 0 {
			t.Errorf("fischer: no raw zone was rejected that extrapolation would have changed")
		}
	}
}

// widenSpy checks what add does to the zone it is handed, one sequential
// admission at a time.
type widenSpy struct {
	passedSet
	t      *testing.T
	bounds *dbm.ExtraBounds
	// rejected are the matrices of subsumed states; recycled counts those
	// that came back as a later successor's matrix.
	rejected map[*dbm.DBM]bool
	recycled int
	adds     int
	changed  int // admissions whose zone extrapolation changed
}

func (w *widenSpy) add(s *State, sc *closeScratch) bool {
	w.adds++
	if w.rejected[s.Zone] {
		w.recycled++
		delete(w.rejected, s.Zone)
	}
	matrix, raw := s.Zone, s.Zone.Copy()
	ok := w.passedSet.add(s, sc)
	if s.Zone != matrix {
		w.t.Fatalf("admission %d: add replaced the state's matrix", w.adds)
	}
	if !ok {
		// Left as it came; the worker recycles it wholesale.
		if !s.Zone.Eq(raw) || s.packed != nil {
			w.t.Errorf("admission %d: a subsumed state was modified", w.adds)
		}
		w.rejected[matrix] = true
		return false
	}
	dim := raw.Dim()
	want := raw.Copy()
	if want.Extrapolate(w.bounds, dbm.NewTouched(dim), dbm.NewTouched(dim)) {
		w.changed++
	}
	if !s.Zone.Eq(want) || !s.packed.Decode().Eq(want) {
		w.t.Errorf("admission %d: zone and payload must both be the raw zone extrapolated once", w.adds)
	}
	return true
}

// TestAdmissionWidensOnceAndRecyclesRejects pins what passedSet.add does to
// the zone it is handed, the initial state's included (the first add of a
// sweep): a subsumed state comes back untouched, its matrix goes back to the
// worker's pool and is fired into again; an admitted one comes back holding
// the raw zone extrapolated exactly once, in the same matrix, with the payload
// packed from that. Rejected matrices live in the sweep's slabs, so under the
// package's poisoning all of them read as garbage once the sweep has ended.
func TestAdmissionWidensOnceAndRecyclesRejects(t *testing.T) {
	c, err := NewChecker(buildFischer(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	spy := &widenSpy{passedSet: newStore(1, nil, &c.eng.bounds), t: t, bounds: &c.eng.bounds,
		rejected: map[*dbm.DBM]bool{}}
	res, err := c.Explore(Options{passed: spy}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if spy.adds != res.Transitions+1 {
		t.Errorf("%d adds for %d transitions and the initial state", spy.adds, res.Transitions)
	}
	if spy.changed == 0 || spy.recycled == 0 {
		t.Errorf("%d admissions changed by extrapolation, %d rejected matrices reused: the model no longer reaches the paths under test",
			spy.changed, spy.recycled)
	}
	for z := range spy.rejected {
		if !poisoned(z) {
			t.Fatal("the matrix of a subsumed state does not read as released slab memory")
		}
	}
}

func sameTrace(t *testing.T, kind string, got, want []TraceStep) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: trace length %d != reference %d", kind, len(got), len(want))
		return
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Label.Kind != w.Label.Kind || g.Label.Chan != w.Label.Chan ||
			!slices.Equal(g.Label.Parts, w.Label.Parts) {
			t.Errorf("%s: step %d label %v != reference %v", kind, i, g.Label, w.Label)
		}
		if !slices.Equal(g.State.Locs, w.State.Locs) || !slices.Equal(g.State.Vars, w.State.Vars) ||
			!g.State.Zone.Eq(w.State.Zone) {
			t.Errorf("%s: step %d state diverges from reference", kind, i)
		}
	}
}

// TestCompactStoreSweepBitIdenticalToReference runs whole sequential
// analyses twice — compact store vs injected full-DBM reference — and
// requires bit-identical Stats, verdicts, suprema, and replayed traces.
func TestCompactStoreSweepBitIdenticalToReference(t *testing.T) {
	n, sx, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	atBusy := func(s *State) bool { return s.Locs[3] == busy }
	ref := func() Options { return Options{passed: newRefStore(&c.eng.bounds)} }

	// Plain sweep: full Stats equality.
	cres, err := c.Explore(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := c.Explore(ref(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Stored != rres.Stored || cres.Popped != rres.Popped ||
		cres.Transitions != rres.Transitions || cres.Deadlocks != rres.Deadlocks {
		t.Errorf("sweep stats diverge: compact %+v, reference %+v", cres.Stats, rres.Stats)
	}

	// Reachability with witness trace.
	cfound, err := c.Explore(Options{}, atBusy)
	if err != nil {
		t.Fatal(err)
	}
	rfound, err := c.Explore(ref(), atBusy)
	if err != nil {
		t.Fatal(err)
	}
	if cfound.Found != rfound.Found {
		t.Fatalf("reachability verdict diverges: compact %v, reference %v", cfound.Found, rfound.Found)
	}
	if !cfound.Found {
		t.Fatal("busy location must be reachable in the grid model")
	}
	sameTrace(t, "witness", cfound.Trace, rfound.Trace)

	// Exact clock supremum.
	csup, err := c.SupClock(sx.ID, atBusy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rsup, err := c.SupClock(sx.ID, atBusy, ref())
	if err != nil {
		t.Fatal(err)
	}
	if csup.Max != rsup.Max || csup.Seen != rsup.Seen || csup.Unbounded != rsup.Unbounded {
		t.Errorf("sup diverges: compact (%v,%v,%v), reference (%v,%v,%v)",
			csup.Max, csup.Seen, csup.Unbounded, rsup.Max, rsup.Seen, rsup.Unbounded)
	}
}

// storeParts lists the independently owned parts of a store: its shards.
func storeParts(st *store) []*shard {
	parts := make([]*shard, len(st.shards))
	for i := range parts {
		parts[i] = st.shards.at(i)
	}
	return parts
}

// checkStoreLayout asserts the record-list invariants of every entry of a
// quiescent compact store: the first n slots of an entry hold live records
// whose signature is the signature of the zone they reference, every slot
// past them holds no payload reference, segment capacities follow the
// doubling rule, no two records share a buffer, and the live records add up
// to size().
func checkStoreLayout(t *testing.T, st *store) {
	t.Helper()
	live := 0
	for _, part := range storeParts(st) {
		owned := map[*byte]bool{}
		for _, e := range entriesOf(part.buckets) {
			slots := e.slots()
			if e.n < 1 || e.n > len(slots) {
				t.Fatalf("entry holds n=%d records in %d slots", e.n, len(slots))
			}
			total := 1
			for seg := e.more; seg != nil; seg = seg.next {
				if want := min(total, maxSegRecs); len(seg.recs) != want {
					t.Errorf("segment after %d slots has %d, want %d", total, len(seg.recs), want)
				}
				total += len(seg.recs)
			}
			for i, r := range slots {
				if i >= e.n {
					if r.z != nil {
						t.Errorf("slot %d past the %d live records still references a buffer", i, e.n)
					}
					continue
				}
				if r.z == nil {
					t.Fatalf("live record %d of %d has no payload", i, e.n)
				}
				if sig := dbm.SignatureOf(r.z.Decode()); r.sig != sig {
					t.Errorf("record %d: stored signature %x, zone's is %x", i, r.sig, sig)
				}
				if owned[&r.z[0]] {
					t.Errorf("record %d shares its buffer with another record", i)
				}
				owned[&r.z[0]] = true
			}
			live += e.n
		}
	}
	if live != st.size() {
		t.Errorf("entries hold %d live records, size() = %d", live, st.size())
	}
}

// checkPoolDisjoint asserts that no slot of any entry — live or spare —
// references a buffer that sits in its part's CompactPool. The pool has no
// listing, so it is drained instead: every buffer it ever allocated is
// either referenced by exactly one live record or free, so packing sample
// (a zone of the one buffer size the store holds) must be served by reuse
// exactly allocated − live times, and none of the buffers that come back
// may be one a record still points to.
func checkPoolDisjoint(t *testing.T, st *store, sample *dbm.DBM) {
	t.Helper()
	for _, part := range storeParts(st) {
		held := map[*byte]bool{}
		live := 0
		for _, e := range entriesOf(part.buckets) {
			live += e.n
			for _, r := range e.slots() {
				if r.z != nil {
					held[&r.z[0]] = true
				}
			}
		}
		gets, reuses := part.cpool.Stats()
		free := gets - reuses - live
		for i := 0; i < free; i++ {
			c := dbm.EncodeCompact(sample, part.cpool)
			if held[&c[0]] {
				t.Fatalf("a record references a buffer that was returned to the pool")
			}
		}
		if _, after := part.cpool.Stats(); after-reuses != free {
			t.Errorf("pool served %d of %d expected reuses: a pruned buffer was not returned", after-reuses, free)
		}
		dbm.EncodeCompact(sample, part.cpool)
		if _, after := part.cpool.Stats(); after-reuses != free {
			t.Errorf("pool held more than the %d buffers pruning released", free)
		}
	}
}

// TestSegmentedListLockstep drives one discrete state's zone list through
// the shapes the segmented layout has to survive, in lockstep with the
// full-DBM reference: grow an antichain across many segments, prune runs of
// it at the head, inside a segment, across segment boundaries and across
// several segments at once, grow again into the freed slots and beyond,
// collapse the whole list into one zone, and grow once more. Every decision
// must equal the reference's; after every phase the list must hold exactly
// the reference's zones in the reference's order, and the layout invariants
// must hold. Sequentially the slot each zone occupies is known, so the prune
// runs are aimed; with four racing adders (serialized by the shadow, -race
// covers the shard paths) on four shards and on 64 the same zones arrive in
// arbitrary order.
func TestSegmentedListLockstep(t *testing.T) {
	const n = 200 // antichain size: slots 0 | 1 | 2-3 | 4-7 | 8-15 | 16-31 | 32-47 | … | 192-207
	locs, vars := []ta.LocID{0}, []int64{0}
	box := func(x1, x2 int64) *State {
		z := dbm.Universe(3)
		z.Constrain(1, 0, dbm.LE(x1))
		z.Constrain(2, 0, dbm.LE(x2))
		return &State{Locs: locs, Vars: vars, Zone: z}
	}
	// even(k) are pairwise incomparable, and so are odd(k), and no even box
	// is comparable to an odd one; cover(a, b) includes exactly the even
	// boxes a..b (and the odd ones a..b-1).
	even := func(k int) *State { return box(int64(2*k), int64(2*(n-k))) }
	odd := func(k int) *State { return box(int64(2*k+1), int64(2*(n-k)-1)) }
	cover := func(a, b int) *State { return box(int64(2*b), int64(2*(n-a))) }

	for _, shape := range storeShapes {
		workers := shape.workers
		fast := testStore(shape.shards)
		sh := &shadowStore{fast: fast, ref: newRefStore(&keepAll)}
		phase := func(name string, states ...*State) {
			t.Helper()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(states); i += workers {
						if admit(sh, states[i]) {
							sh.release(states[i])
						}
					}
				}(w)
			}
			wg.Wait()
			if d := sh.disagreements.Load(); d != 0 {
				t.Fatalf("%+v %s: %d decisions diverged from the reference", shape, name, d)
			}
			checkStoreLayout(t, fast)
			var got []dbm.Compact
			for _, part := range storeParts(fast) {
				for _, e := range entriesOf(part.buckets) {
					got = append(got, e.liveZones()...)
				}
			}
			want := sh.ref.buckets[states[0].discreteKey()][0].zs
			if len(got) != len(want) {
				t.Fatalf("%+v %s: %d zones stored, reference %d", shape, name, len(got), len(want))
			}
			for i := range got {
				if !got[i].Decode().Eq(want[i]) {
					t.Fatalf("%+v %s: record %d is not the reference's zone %d", shape, name, i, i)
				}
			}
		}
		seq := func(f func(int) *State, lo, hi int) (out []*State) {
			for k := lo; k < hi; k++ {
				out = append(out, f(k))
			}
			return out
		}

		phase("grow", seq(even, 0, n)...)
		if fast.size() != n {
			t.Fatalf("%+v: antichain of %d stored as %d zones", shape, n, fast.size())
		}
		// Aimed from the tail down, so that an earlier prune does not move a
		// later one's targets: each cover is appended past slot 128.
		phase("prune across the 127|128 boundary", cover(120, 135))
		phase("prune inside a segment", cover(70, 75))
		phase("prune across the 7|8 boundary", cover(6, 9))
		phase("prune the inline record and the two segments after it", cover(0, 2))
		phase("prune across several segments", cover(20, 110))
		phase("re-add what the covers subsume", seq(even, 0, n)...)
		phase("re-grow", seq(odd, 0, n)...)
		phase("collapse", cover(0, n))
		if fast.size() != 1 {
			t.Fatalf("%+v: a zone covering everything left %d zones", shape, fast.size())
		}
		phase("re-grow from one", seq(func(k int) *State { return box(int64(2*n+1+k), int64(3*n-k)) }, 0, n/2)...)
		checkPoolDisjoint(t, fast, even(0).Zone)
	}
}

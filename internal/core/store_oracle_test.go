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
// copied matrices, entrywise SubsetEq, no signatures, discrete parts compared
// as slices) is run against the compact store through the Options.passed
// injection hook. The reference also keeps the admission order the engine
// had before the store decided on raw zones: it extrapolates what it is given
// FIRST and decides on the widened zone. So every differential run below is
// at the same time the engine-level check of E(y) ⊆ r ⟺ y ⊆ r ("Admission
// index" in store.go). Two modes:
//
//   - Shadow mode: one sweep drives BOTH stores behind a serializing mutex
//     and every single admission decision must agree. The mutex also lets
//     racing adders drive one store directly (TestSegmentedListLockstep).
//   - Replacement mode: two sequential sweeps — default compact store vs
//     injected reference — must be bit-identical in verdicts, Stats, and
//     replayed traces, proving the store swap is invisible end to end.

// refStore is the reference passedSet: full-DBM zones, linear subsumption,
// every zone extrapolated before anything is decided about it.
type refStore struct {
	mu      sync.Mutex
	bounds  *dbm.ExtraBounds
	keys    *discretePacker
	buckets map[uint64][]*refEntry
	zones   int
	zbytes  int64
	pruned  int // stored zones a later admission covered
	// handed keeps every payload add hands out alive: a waiting node, which
	// holds it until its pop, lives in carved frontier memory the collector
	// does not scan.
	handed []dbm.Compact
}

type refEntry struct {
	key  uint64
	locs []ta.LocID
	vars []int64
	zs   []*dbm.DBM
	// packed is what add hands back for a waiting node: an entry holding
	// only the discrete hash and part, packed into a key as the store's are.
	packed *storeEntry
}

// newRefStore returns a reference store whose waiting entries are keyed by
// keys — the engine's, or the one the store under test packs with.
func newRefStore(bounds *dbm.ExtraBounds, keys *discretePacker) *refStore {
	return &refStore{bounds: bounds, keys: keys, buckets: make(map[uint64][]*refEntry)}
}

func (st *refStore) add(s *State, sc *closeScratch) (*storeEntry, dbm.Compact) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s.Zone.Extrapolate(st.bounds, sc.rows, sc.cols)
	h := packedHash(st.keys, s)
	var e *refEntry
	for _, cand := range st.buckets[h] {
		if cand.key == h && slices.Equal(cand.locs, s.Locs) && slices.Equal(cand.vars, s.Vars) {
			e = cand
			break
		}
	}
	if e == nil {
		packed := newEntry(nil, st.keys.words)
		packed.hash = h
		st.keys.pack(s.Locs, s.Vars, packed.key(st.keys.words))
		e = &refEntry{key: h, locs: slices.Clone(s.Locs), vars: slices.Clone(s.Vars), packed: packed}
		st.buckets[h] = append(st.buckets[h], e)
	}
	for _, z := range e.zs {
		if s.Zone.SubsetEq(z) {
			return nil, nil
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
	// The waiting node's payload is a heap buffer of its own: the reference
	// never recycles anything, so there is nothing for release to do.
	payload := dbm.EncodeCompact(s.Zone, nil)
	st.handed = append(st.handed, payload)
	return e.packed, payload
}

func (st *refStore) release(*State, dbm.Compact) {}

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

// shadowStore drives the compact store under test and the reference in
// lockstep: the mutex serializes concurrent admissions so both stores see
// the identical sequence, making per-decision equality a sound assertion
// even with racing adders. The reference works on a copy of the raw zone, so
// the store under test still gets it raw; when both admit, the zone the store
// left in the state must be the one the reference widened, and the entry it
// handed back must decode to the state's discrete part.
type shadowStore struct {
	mu            sync.Mutex
	fast          passedSet
	ref           *refStore
	disagreements atomic.Int64
	// rejectedUnwidened counts the rejections in which the two stores decided
	// on different zones: the raw one was subsumed and extrapolation would
	// have changed it (y ⊆ r and E(y) ≠ y).
	rejectedUnwidened atomic.Int64
	// decoded counts the admissions whose entry key was decoded and
	// compared with the admitted state's vectors.
	decoded atomic.Int64
}

// decodesTo reports whether the entry's key decodes, with keys, to exactly
// the discrete part of s, and its hash is the state's.
func decodesTo(keys *discretePacker, e *storeEntry, s *State) bool {
	locs, vars := make([]ta.LocID, len(s.Locs)), make([]int64, len(s.Vars))
	keys.unpack(e.key(keys.words), locs, vars)
	return slices.Equal(locs, s.Locs) && slices.Equal(vars, s.Vars) && e.hash == packedHash(keys, s)
}

func (sh *shadowStore) add(s *State, sc *closeScratch) (*storeEntry, dbm.Compact) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	widened := &State{Locs: s.Locs, Vars: s.Vars, Zone: s.Zone.Copy()}
	b, _ := sh.ref.add(widened, sc)
	entry, payload := sh.fast.add(s, sc)
	a := entry != nil
	if a != (b != nil) || (a && (!s.Zone.Eq(widened.Zone) || !decodesTo(sh.ref.keys, entry, s))) {
		sh.disagreements.Add(1)
	}
	if a {
		sh.decoded.Add(1)
	}
	if !a && !s.Zone.Eq(widened.Zone) {
		sh.rejectedUnwidened.Add(1)
	}
	return entry, payload
}

func (sh *shadowStore) release(s *State, c dbm.Compact) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.fast.release(s, c)
}

func (sh *shadowStore) size() int                         { return sh.fast.size() }
func (sh *shadowStore) bytes() int64                      { return sh.fast.bytes() }
func (sh *shadowStore) internStats() (hits, misses int64) { return sh.fast.internStats() }

// TestCompactStoreShadowMatchesReference asserts every admission decision of
// the compact store equals the full-DBM reference's on a real exploration,
// with successors fired inline and on the lookahead helper (-race covers the
// helper's reads of entries and payloads the store owns).
func TestCompactStoreShadowMatchesReference(t *testing.T) {
	for _, mode := range lookaheadModes {
		n, _, _, _ := buildGrid(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		fast := newStore(nil, &c.eng.bounds, &c.eng.keys)
		sh := &shadowStore{fast: fast, ref: newRefStore(&c.eng.bounds, &c.eng.keys)}
		res, err := c.Explore(Options{lookahead: mode, passed: sh}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := sh.disagreements.Load(); d != 0 {
			t.Errorf("lookahead mode %d: %d admission decisions diverged from the reference store", mode, d)
		}
		if got := sh.decoded.Load(); got != int64(res.Stored) {
			t.Errorf("lookahead mode %d: %d entry keys decoded for %d admissions", mode, got, res.Stored)
		}
		if fast.size() != sh.ref.size() {
			t.Errorf("lookahead mode %d: compact store holds %d zones, reference %d", mode, fast.size(), sh.ref.size())
		}
		if res.Stored != sh.ref.size() {
			t.Errorf("lookahead mode %d: Stats.Stored=%d, stored zones=%d", mode, res.Stored, sh.ref.size())
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
// whole sweeps — successors fired inline and on the lookahead helper —
// every decision and every admitted zone must be the same.
// The sweeps must reach the case the lemma is about: a raw zone rejected that
// extrapolation would have changed.
func TestRawAdmissionMatchesWidenFirst(t *testing.T) {
	nets := []*ta.Network{buildFischer(t, 3), buildWidening(t, 6), testRadioNet(t), testDiagNet(t)}
	grid, _, _, _ := buildGrid(t)
	nets = append(nets, grid)
	for _, net := range nets {
		var lemmaCases int64
		for _, mode := range lookaheadModes {
			c, err := NewChecker(net)
			if err != nil {
				t.Fatal(err)
			}
			fast := newStore(nil, &c.eng.bounds, &c.eng.keys)
			sh := &shadowStore{fast: fast, ref: newRefStore(&c.eng.bounds, &c.eng.keys)}
			if _, err := c.Explore(Options{lookahead: mode, MaxStates: 20_000, passed: sh}, nil); err != nil {
				t.Fatal(err)
			}
			if d := sh.disagreements.Load(); d != 0 {
				t.Errorf("%s lookahead mode %d: %d admissions diverged from widen-first", net.Name, mode, d)
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

func (w *widenSpy) add(s *State, sc *closeScratch) (*storeEntry, dbm.Compact) {
	w.adds++
	if w.rejected[s.Zone] {
		w.recycled++
		delete(w.rejected, s.Zone)
	}
	matrix, raw := s.Zone, s.Zone.Copy()
	entry, payload := w.passedSet.add(s, sc)
	if s.Zone != matrix {
		w.t.Fatalf("admission %d: add replaced the state's matrix", w.adds)
	}
	if entry == nil {
		// Left as it came; the worker recycles it wholesale.
		if !s.Zone.Eq(raw) || payload != nil {
			w.t.Errorf("admission %d: a subsumed state was modified", w.adds)
		}
		w.rejected[matrix] = true
		return nil, nil
	}
	dim := raw.Dim()
	want := raw.Copy()
	if want.Extrapolate(w.bounds, dbm.NewTouched(dim), dbm.NewTouched(dim)) {
		w.changed++
	}
	if !s.Zone.Eq(want) || !payload.Decode().Eq(want) {
		w.t.Errorf("admission %d: zone and payload must both be the raw zone extrapolated once", w.adds)
	}
	return entry, payload
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
	spy := &widenSpy{passedSet: newStore(nil, &c.eng.bounds, &c.eng.keys), t: t, bounds: &c.eng.bounds,
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
	ref := func() Options { return Options{passed: newRefStore(&c.eng.bounds, &c.eng.keys)} }

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
	csupQ := NewSupClockQuery(sx.ID, atBusy)
	if _, err := c.RunQueries(Options{}, csupQ); err != nil {
		t.Fatal(err)
	}
	csup := csupQ.Result
	rsupQ := NewSupClockQuery(sx.ID, atBusy)
	if _, err := c.RunQueries(ref(), rsupQ); err != nil {
		t.Fatal(err)
	}
	rsup := rsupQ.Result
	if csup.Max != rsup.Max || csup.Seen != rsup.Seen || csup.Unbounded != rsup.Unbounded {
		t.Errorf("sup diverges: compact (%v,%v,%v), reference (%v,%v,%v)",
			csup.Max, csup.Seen, csup.Unbounded, rsup.Max, rsup.Seen, rsup.Unbounded)
	}
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
	owned := map[*byte]bool{}
	for _, e := range entriesOf(st) {
		slots := e.slots()
		if e.n < 1 || int(e.n) > len(slots) {
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
			if i >= int(e.n) {
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
		live += int(e.n)
	}
	if live != st.size() {
		t.Errorf("entries hold %d live records, size() = %d", live, st.size())
	}
}

// checkPoolDisjoint asserts that no slot of any entry — live or spare —
// references a buffer that sits in the store's CompactPool. The pool has no
// listing, so it is drained instead: every buffer it ever allocated is
// either referenced by exactly one live record or free, so packing sample
// (a zone of the one buffer size the store holds) must be served by reuse
// exactly allocated − live times, and none of the buffers that come back
// may be one a record still points to.
func checkPoolDisjoint(t *testing.T, st *store, sample *dbm.DBM) {
	t.Helper()
	held := map[*byte]bool{}
	live := 0
	for _, e := range entriesOf(st) {
		live += int(e.n)
		for _, r := range e.slots() {
			if r.z != nil {
				held[&r.z[0]] = true
			}
		}
	}
	gets, reuses := st.cpool.Stats()
	free := gets - reuses - live
	for i := 0; i < free; i++ {
		c := dbm.EncodeCompact(sample, st.cpool)
		if held[&c[0]] {
			t.Fatalf("a record references a buffer that was returned to the pool")
		}
	}
	if _, after := st.cpool.Stats(); after-reuses != free {
		t.Errorf("pool served %d of %d expected reuses: a pruned buffer was not returned", after-reuses, free)
	}
	dbm.EncodeCompact(sample, st.cpool)
	if _, after := st.cpool.Stats(); after-reuses != free {
		t.Errorf("pool held more than the %d buffers pruning released", free)
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
// runs are aimed; with four racing adders (serialized by the shadow) the same
// zones arrive in arbitrary order.
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

	for _, workers := range []int{1, 4} {
		shape := fmt.Sprintf("%d adders", workers)
		fast := testStore()
		sh := &shadowStore{fast: fast, ref: newRefStore(&keepAll, &testKeys)}
		phase := func(name string, states ...*State) {
			t.Helper()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(states); i += workers {
						if c := admit(sh, states[i]); c != nil {
							sh.release(states[i], c)
						}
					}
				}(w)
			}
			wg.Wait()
			if d := sh.disagreements.Load(); d != 0 {
				t.Fatalf("%s %s: %d decisions diverged from the reference", shape, name, d)
			}
			checkStoreLayout(t, fast)
			var got []dbm.Compact
			for _, e := range entriesOf(fast) {
				got = append(got, e.liveZones()...)
			}
			want := sh.ref.buckets[packedHash(sh.ref.keys, states[0])][0].zs
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d zones stored, reference %d", shape, name, len(got), len(want))
			}
			for i := range got {
				if !got[i].Decode().Eq(want[i]) {
					t.Fatalf("%s %s: record %d is not the reference's zone %d", shape, name, i, i)
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
			t.Fatalf("%s: antichain of %d stored as %d zones", shape, n, fast.size())
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
			t.Fatalf("%s: a zone covering everything left %d zones", shape, fast.size())
		}
		phase("re-grow from one", seq(func(k int) *State { return box(int64(2*n+1+k), int64(3*n-k)) }, 0, n/2)...)
		checkPoolDisjoint(t, fast, even(0).Zone)
	}
}

package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// This file is the compact-store differential oracle: a full-DBM reference
// implementation of passedSet (the pre-compression store semantics — plain
// copied matrices, entrywise SubsetEq, no signatures, no interning) is run
// against the compact store through the Options.passed injection hook. Two
// modes:
//
//   - Shadow mode: one sweep drives BOTH stores behind a serializing mutex
//     and every single admission decision must agree. This works under
//     Workers > 1 too, where comparing two separate runs would be unsound
//     (racy double-admission makes counts scheduling-dependent).
//   - Replacement mode: two sequential sweeps — default compact store vs
//     injected reference — must be bit-identical in verdicts, Stats, and
//     replayed traces, proving the store swap is invisible end to end.

// refStore is the reference passedSet: full-DBM zones, linear subsumption.
type refStore struct {
	mu      sync.Mutex
	buckets map[uint64][]*refEntry
	zones   int
	zbytes  int64
}

type refEntry struct {
	key  uint64
	locs []ta.LocID
	vars []int64
	zs   []*dbm.DBM
}

func newRefStore() *refStore {
	return &refStore{buckets: make(map[uint64][]*refEntry)}
}

func (st *refStore) add(s *State) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
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
// even with Workers > 1.
type shadowStore struct {
	mu            sync.Mutex
	fast          passedSet
	ref           *refStore
	disagreements atomic.Int64
}

func (sh *shadowStore) add(s *State) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// The reference goes first, so that the payload an admitted state leaves
	// with is the one of the store under test.
	b := sh.ref.add(s)
	a := sh.fast.add(s)
	if a != b {
		sh.disagreements.Add(1)
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
		fast := newStore(shape.shards, nil)
		sh := &shadowStore{fast: fast, ref: newRefStore()}
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
	ref := func() Options { return Options{passed: newRefStore()} }

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
		fast := newStore(shape.shards, nil)
		sh := &shadowStore{fast: fast, ref: newRefStore()}
		phase := func(name string, states ...*State) {
			t.Helper()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(states); i += workers {
						if sh.add(states[i]) {
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

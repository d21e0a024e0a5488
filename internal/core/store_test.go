package core

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/dbm"
	"repro/internal/ta"
)

func mkState(locs []ta.LocID, vars []int64, hi int64) *State {
	z := dbm.New(2)
	z.Up()
	z.Constrain(1, 0, dbm.LE(hi))
	return &State{Locs: locs, Vars: vars, Zone: z}
}

// keepAll are extrapolation bounds beyond every zone the store tests build by
// hand (at most three clocks): a store with them keeps what it is given.
var keepAll = func() dbm.ExtraBounds {
	const far = 1 << 40
	return dbm.NewExtraM([]int64{0, far, far, far})
}()

// testKeys packs the discrete parts the store tests build by hand: one
// process of up to 1<<16 locations and one variable of the full int64 range,
// two words whose variable field straddles them.
var testKeys = packerFor([]int{1 << 16}, []ta.VarDecl{{Name: "v", Min: math.MinInt64, Max: math.MaxInt64}})

// testStore returns a heap-backed store for tests that drive it directly.
func testStore() *store { return newStore(nil, &keepAll, &testKeys) }

// admit is add with a scratch of its own, for callers outside a sweep.
// It returns the payload an admitted state waits with, nil when s is
// subsumed.
func admit(st passedSet, s *State) dbm.Compact {
	dim := s.Zone.Dim()
	_, payload := st.add(s, &closeScratch{rows: dbm.NewTouched(dim), cols: dbm.NewTouched(dim)})
	return payload
}

// entriesOf returns every entry of a store's bucket index, chains included.
func entriesOf(st *store) []*storeEntry {
	var out []*storeEntry
	for _, heads := range st.index.dir {
		for _, e := range heads {
			for ; e != nil; e = e.next {
				out = append(out, e)
			}
		}
	}
	return out
}

// slots returns every record slot the entry has allocated, in list order:
// the first e.n are the live records, the rest are spare capacity.
func (e *storeEntry) slots() []*zoneRec {
	out := []*zoneRec{&e.first[0]}
	for seg := e.more; seg != nil; seg = seg.next {
		for i := range seg.recs {
			out = append(out, &seg.recs[i])
		}
	}
	return out
}

// liveZones returns the entry's stored zones in list order.
func (e *storeEntry) liveZones() []dbm.Compact {
	var out []dbm.Compact
	for _, r := range e.slots()[:e.n] {
		out = append(out, r.z)
	}
	return out
}

func TestStoreSubsumption(t *testing.T) {
	st := testStore()
	locs := []ta.LocID{0}
	vars := []int64{0}
	if admit(st, mkState(locs, vars, 10)) == nil {
		t.Fatal("first state must be new")
	}
	if admit(st, mkState(locs, vars, 5)) != nil {
		t.Error("included zone must be subsumed")
	}
	if st.size() != 1 {
		t.Errorf("store length = %d, want 1", st.size())
	}
	if admit(st, mkState(locs, vars, 20)) == nil {
		t.Error("larger zone must be admitted")
	}
	// The larger zone covers the earlier one, which must have been pruned.
	if st.size() != 1 {
		t.Errorf("store length after covering add = %d, want 1 (pruned)", st.size())
	}
}

func TestStoreDistinguishesDiscreteParts(t *testing.T) {
	st := testStore()
	if admit(st, mkState([]ta.LocID{0}, []int64{0}, 10)) == nil ||
		admit(st, mkState([]ta.LocID{1}, []int64{0}, 10)) == nil ||
		admit(st, mkState([]ta.LocID{0}, []int64{1}, 10)) == nil {
		t.Fatal("distinct discrete parts must all be admitted")
	}
	if st.size() != 3 {
		t.Errorf("store length = %d, want 3", st.size())
	}
}

func TestStoreIncomparableZonesCoexist(t *testing.T) {
	st := testStore()
	locs := []ta.LocID{0}
	vars := []int64{0}
	// x <= 10 and x >= 5 (upper bound infinity) are incomparable.
	a := mkState(locs, vars, 10)
	b := &State{Locs: locs, Vars: vars, Zone: dbm.Universe(2)}
	b.Zone.Constrain(0, 1, dbm.LE(-5))
	if admit(st, a) == nil || admit(st, b) == nil {
		t.Fatal("incomparable zones must both be admitted")
	}
	if st.size() != 2 {
		t.Errorf("store length = %d, want 2", st.size())
	}
}

// TestStoreTracksStoredBytes pins the actual-footprint accounting: bytes()
// must grow on admission, shrink when a covering zone prunes a stored one,
// and stay put on subsumption.
func TestStoreTracksStoredBytes(t *testing.T) {
	st := testStore()
	locs := []ta.LocID{3}
	vars := []int64{0}
	if st.bytes() != 0 {
		t.Fatalf("empty store bytes = %d, want 0", st.bytes())
	}
	first := mkState(locs, vars, 10)
	st.release(first, admit(st, first))
	after1 := st.bytes()
	if after1 <= 0 {
		t.Fatalf("bytes after one admission = %d, want > 0", after1)
	}
	// The packed zone, whatever the layout makes of it, plus the entry that
	// holds the zone's record inline and its key.
	packed := func(s *State) int64 { return int64(len(dbm.EncodeCompact(s.Zone, nil))) }
	if want := packed(first) + entryBytes + 8*int64(testKeys.words); after1 != want {
		t.Errorf("bytes after one admission = %d, want %d", after1, want)
	}
	admit(st, mkState(locs, vars, 5)) // subsumed
	if st.bytes() != after1 {
		t.Errorf("bytes changed on subsumed add: %d -> %d", after1, st.bytes())
	}
	second := mkState(locs, vars, 20)
	held := admit(st, second) // prunes the x<=10 zone
	if st.bytes() != after1 {
		t.Errorf("bytes after prune+admit = %d, want %d (same-size swap)", st.bytes(), after1)
	}
	// Pruned while its state still waits, a payload stays charged until the
	// state releases it.
	admit(st, mkState(locs, vars, 30)) // orphans the x<=20 payload
	if want := after1 + packed(second); st.bytes() != want {
		t.Errorf("bytes with an orphaned payload = %d, want %d", st.bytes(), want)
	}
	st.release(second, held)
	if st.bytes() != after1 {
		t.Errorf("bytes after the orphan's release = %d, want %d", st.bytes(), after1)
	}
	// An incomparable zone needs a second record: one more payload — a
	// shorter one, no row is stored for a clock nothing bounds from above —
	// plus the entry's first overflow segment, which holds a single slot.
	b := &State{Locs: locs, Vars: vars, Zone: dbm.Universe(2)}
	b.Zone.Constrain(0, 1, dbm.LE(-25))
	if packed(b) >= packed(first) {
		t.Fatalf("setup: the unbounded zone packs to %d bytes, the bounded one to %d", packed(b), packed(first))
	}
	admit(st, b)
	if want := after1 + packed(b) + segBytes + recBytes; st.bytes() != want {
		t.Errorf("bytes after a second zone = %d, want %d", st.bytes(), want)
	}
}

// TestStoreLookupCounts pins what internStats counts: every admission
// looks its discrete state's entry up, and hits are lookups that found the
// entry, subsumed states included; misses are the entries created.
func TestStoreLookupCounts(t *testing.T) {
	st := testStore()
	admit(st, mkState([]ta.LocID{7}, []int64{0}, 10))
	admit(st, mkState([]ta.LocID{7}, []int64{0}, 5)) // subsumed: a hit
	admit(st, mkState([]ta.LocID{7}, []int64{1}, 10))
	admit(st, mkState([]ta.LocID{7}, []int64{1}, 20)) // prunes: a hit
	admit(st, mkState([]ta.LocID{8}, []int64{1}, 10))
	if hits, misses := st.internStats(); hits != 2 || misses != 3 {
		t.Errorf("lookups: %d hits, %d misses; want 2, 3", hits, misses)
	}
	if entries := entriesOf(st); len(entries) != 3 {
		t.Errorf("entries = %d, want 3", len(entries))
	}
}

// TestStoreNewEntryAllocs pins what a new discrete state costs the heap:
// nothing. Its entry with its key, its bucket head — the index's growth
// included — and its payload are carved from the run's slabs.
func TestStoreNewEntryAllocs(t *testing.T) {
	const n = 2000
	keys := packerFor([]int{5}, []ta.VarDecl{{Name: "v", Min: -n, Max: n}})
	var slabs dbm.Slabs
	defer slabs.Release()
	st := newStore(&slabs, &keepAll, &keys)
	states := make([]*State, n+1) // AllocsPerRun calls once more to warm up
	for i := range states {
		states[i] = mkState([]ta.LocID{ta.LocID(i % 5)}, []int64{int64(n - 2*i)}, 10)
	}
	sc := &closeScratch{rows: dbm.NewTouched(2), cols: dbm.NewTouched(2)}
	next := 0
	allocs := testing.AllocsPerRun(n, func() {
		if e, _ := st.add(states[next], sc); e == nil {
			t.Fatalf("state %d was subsumed", next)
		}
		next++
	})
	if allocs > 0.2 {
		t.Errorf("%.2f allocations per new discrete state, want <= 0.2", allocs)
	}
	if _, misses := st.internStats(); misses != n+1 {
		t.Errorf("%d entries created for %d distinct discrete states", misses, n+1)
	}
}

// TestStoreEntryFits88Bytes pins the entry's size: its key carved inline
// after it, a 32-bit zone count beside it and its discrete hash in it. The
// key follows at entryBytes, so that must keep the words 8-byte aligned.
func TestStoreEntryFits88Bytes(t *testing.T) {
	if size := unsafe.Sizeof(storeEntry{}); size > 88 || size%8 != 0 {
		t.Errorf("a store entry is %d bytes, want at most 88 and a multiple of 8", size)
	}
	if size := unsafe.Sizeof(waiting{}); size > 40 {
		t.Errorf("a waiting node is %d bytes, want at most 40", size)
	}
}

// TestBucketIndexSplitsInPlace inserts entries whose hashes all start in
// three buckets and grows the index through three doublings: every entry
// must stay in the chain of its hash's bucket under the current mask, each
// chain newest first, and no entry may be lost or duplicated.
func TestBucketIndexSplitsInPlace(t *testing.T) {
	const n = 3 * headBlock * 2
	var slabs dbm.Slabs
	defer slabs.Release()
	st := newStore(&slabs, &keepAll, &testKeys)
	order := map[*storeEntry]int{}
	for i := range n {
		e := newEntry(&slabs, testKeys.words)
		e.hash = uint64(i)<<headShift | uint64(i%3)
		st.index.insert(st.index.head(e.hash), e, &slabs)
		order[e] = i
	}
	if got, want := len(st.index.dir), 8; got != want {
		t.Fatalf("%d entries grew the index to %d head blocks, want %d", n, got, want)
	}
	mask := uint64(len(st.index.dir))<<headShift - 1
	seen := 0
	for b := uint64(0); b <= mask; b++ {
		last := n
		for e := *st.index.head(b); e != nil; e = e.next {
			if e.hash&mask != b {
				t.Fatalf("hash %#x sits in bucket %d", e.hash, b)
			}
			if order[e] >= last {
				t.Fatalf("bucket %d chains entry %d after entry %d", b, order[e], last)
			}
			last = order[e]
			seen++
		}
	}
	if seen != n || len(entriesOf(st)) != n {
		t.Errorf("the chains hold %d entries (%d walked), want %d", seen, len(entriesOf(st)), n)
	}
}

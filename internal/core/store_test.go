package core

import (
	"testing"

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

// testStore returns a heap-backed store for tests that drive it directly.
func testStore(shards int) *store { return newStore(shards, nil, &keepAll) }

// admit is add with a scratch of its own, for callers that are not workers.
// It returns the payload an admitted state waits with, nil when s is
// subsumed.
func admit(st passedSet, s *State) dbm.Compact {
	dim := s.Zone.Dim()
	_, payload := st.add(s, &closeScratch{rows: dbm.NewTouched(dim), cols: dbm.NewTouched(dim)})
	return payload
}

// entriesOf returns every entry of a bucket map, collision chains included.
func entriesOf(buckets map[uint64]*storeEntry) []*storeEntry {
	var out []*storeEntry
	for _, e := range buckets {
		for ; e != nil; e = e.next {
			out = append(out, e)
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
	st := testStore(1)
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
	st := testStore(1)
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
	st := testStore(1)
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

// TestPStoreMatchesStore feeds the same states to the unlocked one-shard
// store and to locked stores of 4 and 64 shards: sharding and locking must
// not change a decision or a stored byte.
func TestPStoreMatchesStore(t *testing.T) {
	states := []*State{
		mkState([]ta.LocID{0}, []int64{0}, 10),
		mkState([]ta.LocID{0}, []int64{0}, 5),
		mkState([]ta.LocID{0}, []int64{0}, 20),
		mkState([]ta.LocID{1}, []int64{0}, 7),
		mkState([]ta.LocID{1}, []int64{0}, 7),
	}
	for _, shards := range []int{4, 64} {
		seq := testStore(1)
		par := testStore(shards)
		if seq.locked || !par.locked {
			t.Fatalf("locked: 1 shard %v, %d shards %v; want false, true", seq.locked, shards, par.locked)
		}
		for i, s := range states {
			a := admit(seq, &State{Locs: s.Locs, Vars: s.Vars, Zone: s.Zone.Copy()}) != nil
			b := admit(par, &State{Locs: s.Locs, Vars: s.Vars, Zone: s.Zone.Copy()}) != nil
			if a != b {
				t.Errorf("%d shards, state %d: one-shard add=%v sharded add=%v", shards, i, a, b)
			}
		}
		if seq.size() != par.size() {
			t.Errorf("%d shards: zone counts differ: %d vs %d", shards, seq.size(), par.size())
		}
		// Entry, record and packed zone bytes agree exactly; intern bytes may
		// differ (each shard interns for itself, so cross-shard repeats are
		// stored once per shard).
		if seq.zoneBytes.Load() != par.zoneBytes.Load() {
			t.Errorf("%d shards: zone bytes differ: %d vs %d", shards, seq.zoneBytes.Load(), par.zoneBytes.Load())
		}
		if seq.bytes() <= 0 || par.bytes() < seq.bytes() {
			t.Errorf("%d shards: stored bytes implausible: one shard %d, sharded %d", shards, seq.bytes(), par.bytes())
		}
		checkStoreLayout(t, seq)
		checkStoreLayout(t, par)
	}
}

// TestStoreTracksStoredBytes pins the actual-footprint accounting: bytes()
// must grow on admission, shrink when a covering zone prunes a stored one,
// and stay put on subsumption.
func TestStoreTracksStoredBytes(t *testing.T) {
	st := testStore(1)
	// Distinct contents so the locs and vars vectors intern separately (the
	// table is content-addressed across both kinds).
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
	// holds the zone's record inline and the two interned vectors (one word
	// each).
	packed := func(s *State) int64 { return int64(len(dbm.EncodeCompact(s.Zone, nil))) }
	if want := packed(first) + entryBytes + 16; after1 != want {
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

// TestStoreInternsDiscreteVectors pins the intern table: repeats of a
// location vector or variable valuation across distinct discrete states must
// collapse to one shared slice each.
func TestStoreInternsDiscreteVectors(t *testing.T) {
	st := testStore(1)
	// Same locs, three different vars: locs interned once, hit twice.
	admit(st, mkState([]ta.LocID{7}, []int64{0}, 10))
	admit(st, mkState([]ta.LocID{7}, []int64{1}, 10))
	admit(st, mkState([]ta.LocID{7}, []int64{2}, 10))
	hits, misses := st.internStats()
	if hits != 2 {
		t.Errorf("intern hits = %d, want 2 (repeated location vector)", hits)
	}
	// Misses: locs{7}, vars{0}, vars{1}, vars{2}.
	if misses != 4 {
		t.Errorf("intern misses = %d, want 4", misses)
	}
	entries := entriesOf(st.shards.at(0).buckets)
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
	for _, e := range entries[1:] {
		if &e.locs[0] != &entries[0].locs[0] {
			t.Error("repeated location vectors not shared between entries")
		}
	}
}

package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/dbm"
	"repro/internal/faultinject"
	"repro/internal/ta"
)

// passedSet is the passed-state interface of the unified explorer; the worker
// loop only ever talks to this. bytes and internStats are live views for the
// memory budget and progress monitor; both are safe to call from other
// goroutines while workers add. The engine has one implementation (store);
// the interface is what the tests' reference and shadow stores substitute
// through (Options.passed).
type passedSet interface {
	// add admits s, whose zone is raw (canonical, not extrapolated), unless
	// it is subsumed. An admitted state leaves with its zone extrapolated in
	// place — sc is the calling worker's scratch for that — and s.packed
	// referencing the packed copy of it, a reference the caller gives back
	// with exactly one release. A subsumed state is left as it came.
	add(s *State, sc *closeScratch) bool
	// release gives back the payload reference add handed s, once the caller
	// has decoded it.
	release(s *State)
	size() int
	// bytes reports the actual stored footprint: entries, zone records,
	// packed zone buffers and interned discrete vectors.
	bytes() int64
	// internStats reports discrete-vector intern-table hits and misses.
	internStats() (hits, misses int64)
	// contention counts admissions that found their shard lock held and had
	// to wait (always 0 for a sequential run).
	contention() int64
}

// store is the passed-state list: per discrete state (location vector plus
// variable valuation) it keeps a list of maximal zones. A new state is
// admitted only when its zone is not included in any stored zone; on
// admission, stored zones included in the new one are pruned. This is the
// standard inclusion-checking subsumption that makes zone-graph exploration
// terminate.
//
// # Shards, and who guards an entry
//
// The bucket space is split over a power-of-two number of shards by the low
// bits of the discrete hash, and each shard owns its bucket map, compact
// pool and intern table outright — a discrete state always hashes to the
// same shard, so repeats of its vectors intern within that shard. A
// sequential run (Workers <= 1) has one shard and a single worker, which is
// the guard: add takes no lock. A parallel run has parallelShards of them,
// each behind its own mutex, so workers exploring disjoint regions of the
// zone graph rarely contend. Everything below that says "whoever holds the
// entry" means exactly that: the one sequential worker, or the holder of
// the shard lock.
//
// # Keys
//
// Discrete hashes are cached per State (State.key); the bucket maps are keyed
// by that hash and a storeEntry does not repeat it — entries whose hashes
// collide chain through storeEntry.next and are told apart by their discrete
// vectors. Entries intern those vectors (see internTable): location vectors
// and variable valuations repeat heavily across entries, so each unique
// vector is stored once per shard — never an alias of a state's slices,
// since states recycle and entries do not.
//
// # Admission index
//
// Admission walks every stored zone of the state's entry, and almost every
// visit ends in "not included". The walk is therefore laid out for the
// common case: an entry keeps one fixed-size record per stored zone — the
// zone's dbm.Signature beside the reference to its packed payload — and the
// records sit contiguously, the first inline in the entry and the rest in
// overflow segments (see zoneSeg). Both scans, reject and prune, compare
// signatures record after record and dereference a payload only when every
// lane passes; the exact ContainsDBM/SubsetEqDBM check on the payload then
// decides, so the signature can only skip work, never change a decision:
// state counts, traces and verdict bytes do not depend on it
// (store_oracle_test.go, FuzzSignatureMonotone).
//
// Records and signatures are owned by their entry, read or written only by
// whoever holds the entry, and never alias a State. Segments are never
// reallocated, copied or freed: a list grows by linking a new segment and
// shrinks by moving later records down over pruned ones, and a slot no
// longer in use holds no payload reference.
//
// # Zone ownership
//
// An admitted zone has ONE long-lived copy: the payload the store packs on
// admission (dbm.EncodeCompact into a buffer from the shard-owned
// dbm.CompactPool). The store never aliases a state's matrix, and full
// matrices live only in the workers' pools as scratch; what a waiting state
// keeps of its zone is a reference to the store's payload. So a payload has
// up to two holders — its record and its waiting state — and the holder mark
// in its header (dbm.Compact byte [1]) says which: held by both, held by the
// record alone (zero, the state was popped), or orphaned (the record was
// pruned while the state still waits). The mark is read and written only by
// whoever holds the entry; the payload behind it is immutable until the
// buffer is recycled, which happens only when the last holder lets go. The
// full protocol:
//
//   - engine.fire materializes successors from a per-worker succCtx (pooled
//     scratch DBM, scratch locs/vars/parts, and the dbm.Touched sets the
//     incremental canonicalization records into — all reused across fires,
//     none escaping into states or stores); clock-disabled transitions
//     allocate nothing. A fresh successor owns its matrix, which holds the
//     raw zone.
//   - store.add(s, sc) receives that raw zone. On admission it extrapolates
//     s.Zone in place (the one place a sweep widens a zone; sc is the calling
//     worker's scratch, so under a shard lock nothing shared is written but
//     the entry), packs it, marks the payload held by both and points
//     s.packed at it: the caller gets back the stored zone in s.Zone. If add
//     reports false (subsumed), s.Zone is still the raw zone and the caller
//     recycles s wholesale via succCtx.putState — nothing else references it.
//   - explorer.run feeds the admitted state to the queries, which read
//     s.Zone, and then parks it: succCtx.releaseZone puts the matrix back
//     into the worker's pool and the state waits in the frontier with
//     Zone == nil (explore does the same to the initial state, whose heap
//     matrix goes to the collector). Those two are the only hand-offs; no
//     state waits with a matrix.
//   - A stored zone covered by a later admission is pruned inside add
//     whether or not its state was expanded — exploration order, and with it
//     every count and trace, does not depend on the store's bookkeeping. If
//     the record was the payload's only holder the buffer goes back to the
//     compact pool at once; if the state still waits the payload is marked
//     orphaned and stays charged to bytes() until it is released.
//   - The worker that pops a state decodes s.packed into a matrix from its
//     own pool — without holding the entry: the payload cannot change while
//     the state holds it, and no dbm kernel touches the mark — and then calls
//     release, which takes the entry (for a parallel run, the shard lock):
//     an orphaned buffer goes back to the shard's compact pool, any other is
//     marked as the record's alone. The expanded state is recycled via
//     succCtx.putState like a subsumed one.
//   - A run that stops early (visitor, MaxStates, cancel, budget, panic)
//     leaves waiting states holding payloads; nothing releases them, and
//     nothing has to: states, records and pools die with the run.
//
// Fork census (continued from the dbm package comment; scripts/traffic.sh
// prints it): a successor is subsumed on its raw zone — 65% of fischer's
// (84,825 of 131,186 per sweep), 28% of archchain's (30,060 of 107,673), 23%
// of table1's — or admitted and widened, the dbm comment's Extrapolate row.
// A prune meets a payload whose state still waits, and release
// later recycles the orphan, on table1 and variants (about half their
// prunes) and on archchain (every prune there: 6,836 of 77,613 admissions);
// fischer and serve_cold prune nothing at all.
//
// Where the bytes come from, and when they go back: the matrices of the
// workers' pools and the payloads of the shards' compact pools are carved
// from one dbm.Slabs set per run (explorer.slabs), and explore releases the
// set to a process-wide cache exactly once per run — after the worker
// barrier, after every Query.finish and every replayTrace, and also when the
// run was canceled, ran out of budget or contained a panic. From then on a
// later sweep overwrites that memory, and the release after next unmaps it
// (slabs are mappings, not Go memory: a reference into one keeps nothing
// alive, see dbm.Slabs), so the rules above have one more clause: nothing a
// caller can see may alias slab memory. Today that holds
// because every such value is a heap copy — a completing query captures
// cloneState(s), never s (explorer.completeQuery), at a point where s has its
// matrix (just admitted, or just decoded); trace replay runs on a heap ctx
// (newCtx(nil)) from a heap initial state (engine.initial), so every
// TraceStep owns plain heap zones; SupResult carries bounds, not zones; a
// visitor may not retain a state beyond the call.
// The one place this changes is a new kind of result: if it holds a *State,
// a *dbm.DBM or a dbm.Compact, it must copy before explore returns. The
// package's tests run with released slabs and recycled payloads poisoned
// (slab_test.go), so an alias — a result into a slab, or a waiting state into
// a payload the store already recycled — shows up as garbage in the first
// test that looks, or as a fault if the slab is gone by then.
type store struct {
	shards perWorker[shard]
	mask   uint64 // len(shards)-1; the count is a power of two
	// bounds are what an admitted zone is extrapolated against: the engine's,
	// idempotent (see "Admission index").
	bounds *dbm.ExtraBounds
	// locked is false for the single-shard store of a sequential run, whose
	// one worker needs no lock.
	locked bool
	zones  atomic.Int64
	// zoneBytes tracks the bytes currently held for stored zones — entries,
	// record segments and packed payloads, orphaned ones included until their
	// waiting state releases them; a Monitor samples bytes() while workers
	// add.
	zoneBytes atomic.Int64
	// contended counts adds that found their shard lock held (TryLock
	// failed) and had to block — the sweep profile's store-contention total.
	contended atomic.Int64
}

// parallelShards is the shard count of a parallel run's store. Every
// measurement so far ran on one or two cores; if a multi-core one wants
// another value, change this or derive it from Workers.
const parallelShards = 64

// shard is one independently owned part of the store.
type shard struct {
	mu sync.Mutex
	// buckets maps a discrete hash (State.discreteKey) to its entry; the
	// rare entries whose hashes collide chain through storeEntry.next.
	buckets map[uint64]*storeEntry
	cpool   *dbm.CompactPool
	intern  internTable
}

// zoneRec is one stored zone in an entry's admission index.
type zoneRec struct {
	sig dbm.Signature
	// z is the packed zone, a buffer from the shard's compact pool that goes
	// back there when its last holder lets go (see heldByBoth); nil in a
	// slot not in use.
	z dbm.Compact
}

// Holder marks of a payload (dbm.Compact.Holder; "Zone ownership" above).
// Zero, the mark a fresh payload has, means the record is the only holder.
const (
	// heldByBoth: the record and the admitted state, which still waits.
	heldByBoth = 1
	// orphaned: the record was pruned; the waiting state is the only holder
	// and its release recycles the buffer.
	orphaned = 2
)

// zoneSeg is an overflow segment of an entry's record list. Each new segment
// doubles the capacity of the list until segments reach maxSegRecs slots, so
// short lists stay as tight as an append-grown slice, long ones carry at most
// maxSegRecs-1 spare slots, and — unlike a slice grown by append — growth
// never leaves a copied-from array behind.
type zoneSeg struct {
	next *zoneSeg
	recs []zoneRec
}

const (
	// maxSegRecs trades spare slots against pointer hops: 16 records are 14
	// cache lines of sequential scan per hop. (Measured on the benchmark's
	// fischer workload, 64 cost +7% peak RSS in spare slots for no faster
	// verdict.)
	maxSegRecs = 16

	entryBytes = int64(unsafe.Sizeof(storeEntry{}))
	recBytes   = int64(unsafe.Sizeof(zoneRec{}))
	segBytes   = int64(unsafe.Sizeof(zoneSeg{}))
)

type storeEntry struct {
	// next chains the entries of one bucket.
	next *storeEntry
	// locs and vrs are the interned location vector and variable valuation:
	// shared with every other entry (and log, in principle) holding the same
	// vector, owned by the store's intern table, immutable once published.
	locs []uint64
	vrs  []uint64
	// n counts the stored maximal zones. Their records occupy the first n
	// slots of the list: first, then the segments of more in chain order.
	// Most entries hold a single zone and never grow a segment.
	n     int
	first [1]zoneRec
	more  *zoneSeg
}

// recCursor walks the record slots of one entry in list order.
type recCursor struct {
	recs []zoneRec // segment being walked
	i    int       // slots of recs already handed out
	seen int       // slots of the segments before recs
	// link is where the segment after recs hangs, or will hang.
	link **zoneSeg
	// grown is the bytes of the segments this cursor had to allocate.
	grown int64
}

func (e *storeEntry) cursor() recCursor { return recCursor{recs: e.first[:], link: &e.more} }

// chunk hands out the next run of slots that are contiguous in memory, at
// most max of them, stepping into the following segment — allocating it at
// the end of the chain — once the current one is used up.
func (c *recCursor) chunk(max int) []zoneRec {
	if c.i == len(c.recs) {
		seg := *c.link
		if seg == nil {
			seg = &zoneSeg{recs: make([]zoneRec, min(c.seen+len(c.recs), maxSegRecs))}
			*c.link = seg
			c.grown += segBytes + int64(len(seg.recs))*recBytes
		}
		c.seen += len(c.recs)
		c.recs, c.i, c.link = seg.recs, 0, &seg.next
	}
	out := c.recs[c.i:min(c.i+max, len(c.recs))]
	c.i += len(out)
	return out
}

// compact closes the holes a prune left in the list — slots whose payload
// reference was dropped — by moving the live records that remain down over
// them in list order, and returns the cursor just past the last one.
func (e *storeEntry) compact(live int) recCursor {
	from, to := e.cursor(), e.cursor()
	for kept := 0; kept < live; {
		src := &from.chunk(1)[0]
		if src.z == nil {
			continue
		}
		if dst := &to.chunk(1)[0]; dst != src {
			*dst = *src
			src.z = nil
		}
		kept++
	}
	return to
}

// matches reports whether the entry represents the discrete state (locs,
// vars): one slices.Equal-style scan.
func (e *storeEntry) matches(locs []ta.LocID, vars []int64) bool {
	if len(e.locs) != len(locs) || len(e.vrs) != len(vars) {
		return false
	}
	for i, l := range locs {
		if e.locs[i] != uint64(l) {
			return false
		}
	}
	for i, v := range vars {
		if e.vrs[i] != uint64(v) {
			return false
		}
	}
	return true
}

// newStore returns a store with the given shard count, a power of two; one
// shard means one worker and no locking. Packed payloads are carved from
// slabs (nil: from the heap); admitted zones are extrapolated against bounds.
func newStore(shards int, slabs *dbm.Slabs, bounds *dbm.ExtraBounds) *store {
	st := &store{shards: make(perWorker[shard], shards), mask: uint64(shards - 1), locked: shards > 1, bounds: bounds}
	for i := range st.shards {
		sh := st.shards.at(i)
		sh.buckets = make(map[uint64]*storeEntry)
		sh.cpool = slabs.CompactPool()
		sh.intern.m = make(map[uint64][][]uint64)
	}
	return st
}

// lookupEntry finds or creates the bucket entry for s's discrete state.
// Entry creation interns the discrete vectors through it: repeats across
// entries collapse to one shared slice each, and states stay recyclable
// (succCtx.putState) because the interned copies never alias s.
func lookupEntry(buckets map[uint64]*storeEntry, s *State, it *internTable) *storeEntry {
	h := s.discreteKey()
	head := buckets[h]
	for e := head; e != nil; e = e.next {
		if e.matches(s.Locs, s.Vars) {
			return e
		}
	}
	e := &storeEntry{next: head, locs: intern(it, s.Locs), vrs: intern(it, s.Vars)}
	buckets[h] = e
	return e
}

// admit implements the subsumption protocol on one entry: reject s if a
// stored zone includes its raw zone, otherwise extrapolate s.Zone in place
// against x (scratch: sc.rows, sc.cols), prune stored zones covered by it
// (recycling into pool the buffers no waiting state holds, orphaning the
// others) and store a packed copy of s.Zone, which s.packed then references.
// It returns the change in the number of stored zones (0 when s was
// subsumed; any admission nets at least +1 minus prunes) and the change in
// stored bytes — payloads, record segments, and the entry itself when this
// is its first zone. The caller must hold the entry (see the store comment).
//
// Both inclusion directions are pre-filtered by the signature: d ⊆ z forces
// sig(d) ≤ sig(z) in every lane, so a non-inclusion usually costs a compare
// of two records that are already in cache instead of a dim² scan of a
// payload that is not. The raw zone's signature is at most the widened one's,
// so the reject pre-filter passes a little more often than it would on the
// widened zone; the exact check still decides.
func (e *storeEntry) admit(s *State, pool *dbm.CompactPool, x *dbm.ExtraBounds, sc *closeScratch) (delta int, bytesDelta int64, admitted bool) {
	if faultinject.Enabled {
		// Chaos site inside compact admission: an injected error escalates to
		// a panic so containment takes the exact path a real encoder or
		// inclusion-scan crash would — explorer.runContained for the worker,
		// the deferred unlock for a locked shard.
		if err := faultinject.Fire("core/store"); err != nil {
			panic(err)
		}
	}
	if e.n == 0 {
		// An entry without zones is one lookupEntry just made for s.
		bytesDelta = entryBytes
	}
	zone := s.Zone
	sig := dbm.SignatureOf(zone)
	// First pass: pure subsumption check on the raw zone, no mutation. It
	// leaves tail just past the last record, where an admission appends.
	tail := e.cursor()
	for rem := e.n; rem > 0; {
		recs := tail.chunk(rem)
		for i := range recs {
			if r := &recs[i]; sig.Leq(&r.sig) && r.z.ContainsDBM(zone) {
				return 0, 0, false
			}
		}
		rem -= len(recs)
	}
	// A survivor becomes the zone the store keeps; its signature moves only
	// if widening changed it (how often is the model's: the dbm fork census).
	if zone.Extrapolate(x, sc.rows, sc.cols) {
		sig = dbm.SignatureOf(zone)
	}
	// Second pass: release the stored zones the new one covers.
	pruned := 0
	scan := e.cursor()
	for rem := e.n; rem > 0; {
		recs := scan.chunk(rem)
		for i := range recs {
			if r := &recs[i]; r.sig.Leq(&sig) && r.z.SubsetEqDBM(zone) {
				if r.z.Holder() == heldByBoth {
					r.z.SetHolder(orphaned)
				} else {
					bytesDelta -= int64(len(r.z))
					pool.Put(r.z)
				}
				r.z = nil
				pruned++
			}
		}
		rem -= len(recs)
	}
	if pruned > 0 {
		tail = e.compact(e.n - pruned)
	}
	r := &tail.chunk(1)[0]
	r.sig, r.z = sig, dbm.EncodeCompact(zone, pool)
	r.z.SetHolder(heldByBoth)
	s.packed = r.z
	e.n += 1 - pruned
	return 1 - pruned, bytesDelta + int64(len(r.z)) + tail.grown, true
}

// add inserts the state unless it is subsumed, reporting whether it is new.
// See the type comment for the zone-ownership protocol.
func (st *store) add(s *State, sc *closeScratch) bool {
	sh := st.shards.at(int(s.discreteKey() & st.mask))
	if st.locked {
		// The unlock is deferred so a panic inside the admission (contained
		// per worker by explorer.runContained) releases the shard instead of
		// hanging every other worker that hashes to it; the open-coded defer
		// costs no allocation. The run is failing at that point, so the
		// possibly half-admitted entry is only ever read by workers about to
		// observe the stop flag — and the store's entries, like the pools'
		// free lists, die with the run; only raw slab bytes outlive it.
		if !sh.mu.TryLock() {
			st.contended.Add(1)
			sh.mu.Lock()
		}
		defer sh.mu.Unlock()
	}
	delta, bytesDelta, admitted := lookupEntry(sh.buckets, s, &sh.intern).admit(s, sh.cpool, st.bounds, sc)
	if delta != 0 {
		st.zones.Add(int64(delta))
	}
	if bytesDelta != 0 {
		st.zoneBytes.Add(bytesDelta)
	}
	return admitted
}

// release gives back the payload reference of a state add admitted, after
// the caller has decoded it: an orphaned buffer is recycled, any other stays
// with its record.
func (st *store) release(s *State) {
	c := s.packed
	s.packed = nil
	sh := st.shards.at(int(s.discreteKey() & st.mask))
	if st.locked {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	if c.Holder() == orphaned {
		sh.cpool.Put(c)
		st.zoneBytes.Add(-int64(len(c)))
	} else {
		c.SetHolder(0)
	}
}

// size returns the number of stored maximal zones.
func (st *store) size() int { return int(st.zones.Load()) }

// bytes returns the stored footprint: entries, zone records, packed zones
// and interned vectors.
func (st *store) bytes() int64 {
	total := st.zoneBytes.Load()
	for i := range st.shards {
		total += st.shards.at(i).intern.bytes.Load()
	}
	return total
}

func (st *store) internStats() (hits, misses int64) {
	for i := range st.shards {
		hits += st.shards.at(i).intern.hits.Load()
		misses += st.shards.at(i).intern.misses.Load()
	}
	return hits, misses
}

// contention counts adds that had to wait for a shard lock.
func (st *store) contention() int64 { return st.contended.Load() }

// internTable deduplicates the discrete vectors held by a shard's entries:
// location vectors and variable valuations are interned separately (each
// repeats across many entries even though their combination is unique per
// entry), content-addressed by a word-wise hash with full collision
// comparison. Lookups and inserts happen under whatever guards the shard;
// the counters are atomics because the Monitor and the memory budget read
// them while workers add.
type internTable struct {
	m      map[uint64][][]uint64
	hits   atomic.Int64
	misses atomic.Int64
	bytes  atomic.Int64
}

const (
	internOffset = 14695981039346656037
	internPrime  = 0x9E3779B97F4A7C15
)

// intern returns the canonical interned copy of a location vector or a
// variable valuation, allocating only on first sight of the content.
func intern[T ~int | ~int64](t *internTable, xs []T) []uint64 {
	h := uint64(internOffset) ^ uint64(len(xs))
	for _, x := range xs {
		h = (h ^ uint64(x)) * internPrime
	}
	for _, cand := range t.m[h] {
		if len(cand) != len(xs) {
			continue
		}
		eq := true
		for i, x := range xs {
			if cand[i] != uint64(x) {
				eq = false
				break
			}
		}
		if eq {
			t.hits.Add(1)
			return cand
		}
	}
	v := make([]uint64, len(xs))
	for i, x := range xs {
		v[i] = uint64(x)
	}
	t.m[h] = append(t.m[h], v)
	t.misses.Add(1)
	t.bytes.Add(int64(len(v)) * 8)
	return v
}

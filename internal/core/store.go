package core

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/dbm"
	"repro/internal/faultinject"
)

// passedSet is the passed-state interface of the explorer; the admitting
// loop only ever talks to this. bytes and internStats are live views for the
// memory budget and progress monitor; both are safe to call from other
// goroutines while the loop adds. The engine has one implementation (store);
// the interface is what the tests' reference and shadow stores substitute
// through (Options.passed).
type passedSet interface {
	// add admits s, whose zone is raw (canonical, not extrapolated), unless
	// it is subsumed. An admitted state leaves with its zone extrapolated in
	// place — sc is the caller's scratch for that — and add returns
	// the entry that admitted it, whose key is the state's discrete part,
	// and a reference to the packed copy of the zone, which the caller gives
	// back with exactly one release. A subsumed state is left as it came,
	// and add returns a nil entry.
	add(s *State, sc *closeScratch) (*storeEntry, dbm.Compact)
	// release gives back a payload reference add handed out, once the caller
	// has decoded it into s — the state rebuilt from its waiting node.
	release(s *State, payload dbm.Compact)
	size() int
	// bytes reports the actual stored footprint: entries, zone records,
	// packed zone buffers and the entries' discrete keys.
	bytes() int64
	// internStats reports the entry lookups of admission: hits found the
	// discrete state's entry, misses created it.
	internStats() (hits, misses int64)
}

// store is the passed-state list: per discrete state (location vector plus
// variable valuation) it keeps a list of maximal zones. A new state is
// admitted only when its zone is not included in any stored zone; on
// admission, stored zones included in the new one are pruned. This is the
// standard inclusion-checking subsumption that makes zone-graph exploration
// terminate.
//
// # Who guards an entry
//
// The store has one owner, the admitting loop (explore.go), which is the
// guard: add and release take no lock. Everything below that says "whoever
// holds the entry" means that loop. The lookahead helper reads an entry's
// key and a payload it was handed, both immutable while it reads them, and
// writes neither. The counters are atomics only because a Monitor reads
// them from another goroutine.
//
// # Keys
//
// A state's discrete part has one encoding, its entry's key: the discrete
// state bit-packed by the engine's discretePacker (discrete.go), in which
// every location and variable is a field just wide enough for its declared
// range, so table1's 19 variables and the locations of its processes fit in 3
// words. Packing is exact, not a hash: a field holds every value of its range,
// and no state outside the ranges ever reaches the store — Finalize checks
// initial values and location references, and engine.fire checks every
// variable after every update (ta.Network.CheckVarBounds) — so two states
// share a key exactly when they share their discrete part. The key is carved
// inline, right after its entry (dbm.CarveTail: discretePacker.words words,
// the same for every entry of a store), so an entry and its key are one piece
// and the entry spends no slice header on it. Its one hash is the hash of
// those words (discretePacker.hash), kept in the entry: the bucket index is
// keyed by it (see below), and the parent log records it for trace replay to
// check against. A lookup packs the state into the key of the store's spare
// entry, hashes it, and compares hashes, then keys word by word, along its
// bucket's chain; a match leaves the spare for the next lookup, a miss
// publishes the spare itself as the new entry. A key never aliases a state's
// slices, since states recycle and entries do not. A waiting node keeps its
// entry, not vectors of its own: the state's discrete part is decoded from the
// key when its node is popped. A State carries no hash or key of its own.
//
// # Bucket index
//
// The index is a chained hash table: a power-of-two number of bucket heads,
// in blocks of 4 KiB carved from the run's slabs and reached through a
// carved directory, and chains linked through storeEntry.next. A hash's
// bucket is its low bits. The table doubles when it holds more entries than
// buckets: it carves head blocks for the new upper half only, and splits each
// old chain in place on the hash bit the doubling adds — no entry moves, no
// hash is recomputed, and no dead table is left behind (only the directory,
// 8 bytes per block, is copied). So the index costs 8 to 16 bytes per entry,
// where the Go map from hash to entry it replaced cost 20 to 36 and sat on
// the collector's heap.
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
// whoever holds the entry, and never alias a State. Segments are carved from
// the run's slabs and never reallocated, copied or freed: a list grows by
// linking a new segment and shrinks by moving later records down over pruned
// ones, and a slot no longer in use holds no payload reference.
//
// # Zone ownership
//
// An admitted zone has ONE long-lived copy: the payload the store packs on
// admission (dbm.EncodeCompact into a buffer from the store's
// dbm.CompactPool). The store never aliases a state's matrix, and full
// matrices live only in the loop's and the helper's pools as scratch; what a waiting state
// keeps of its zone is its waiting node's reference to the store's payload
// (waiting.packed, explore.go). So a payload has up to two holders — its
// record and the waiting node — and the holder mark in its header
// (dbm.Compact byte [1]) says which: held by both, held by the record alone
// (zero, the node was popped), or orphaned (the record was pruned while the
// node still waits). The mark is read and written only by whoever holds the
// entry; the payload behind it is immutable until the buffer is recycled,
// which happens only when the last holder lets go. The full protocol:
//
//   - engine.fire materializes successors from a succCtx (pooled
//     scratch DBM, scratch locs/vars/parts, and the dbm.Touched sets the
//     incremental canonicalization records into — all reused across fires,
//     none escaping into states or stores); clock-disabled transitions
//     allocate nothing. A fresh successor owns its matrix, which holds the
//     raw zone.
//   - store.add(s, sc) receives that raw zone. On admission it extrapolates
//     s.Zone in place (the one place a sweep widens a zone; sc is the
//     caller's scratch), packs it, marks the payload held by both and hands back
//     the entry and the payload: the caller keeps the stored zone in s.Zone.
//     If add returns a nil entry (subsumed), s.Zone is still the raw zone,
//     and nothing else references s.
//   - explorer.run feeds the admitted state to the queries, which read
//     s.Zone, and then parks it: it writes a waiting node of the entry, the
//     payload reference and the ref into the frontier's tail slot. A node
//     has no field for a matrix, so no state waits with one. Subsumed or
//     parked, s and its matrix stay with their expansion until the next
//     expansion in the same slot recycles them (explorer.expand; the initial
//     state's heap matrix goes to the collector instead).
//   - A stored zone covered by a later admission is pruned inside add
//     whether or not its state was expanded — exploration order, and with it
//     every count and trace, does not depend on the store's bookkeeping. If
//     the record was the payload's only holder the buffer goes back to the
//     compact pool at once; if the node still waits the payload is marked
//     orphaned and stays charged to bytes() until it is released.
//   - A popped node's state is rebuilt (succCtx.unpark, inline or on the
//     lookahead helper): the entry's key decoded, and the payload decoded
//     into a matrix from the rebuilding ctx's pool — without holding the
//     entry: the key never changes once the entry is published, the payload
//     cannot change while the node holds it, and no dbm kernel touches the
//     mark. Then the loop calls release: an orphaned buffer goes back to the
//     store's compact pool, any other is marked as the record's alone. The
//     expanded state is recycled with its successors.
//   - A run that stops early (visitor, MaxStates, cancel, budget, panic)
//     leaves waiting nodes holding payloads; nothing releases them, and
//     nothing has to: pools die with the run, and nodes, entries, records
//     and payloads go back with its slabs.
//
// Fork census (continued from the dbm package comment; scripts/traffic.sh
// prints it): a successor is subsumed on its raw zone — 65% of fischer's
// (84,825 of 131,186 per sweep), 28% of archchain's (30,060 of 107,673), 23%
// of table1's — or admitted and widened, the dbm comment's Extrapolate row.
// A prune meets a payload whose node still waits, and release
// later recycles the orphan, on table1 and variants (about half their
// prunes) and on archchain (every prune there: 6,836 of 77,613 admissions);
// fischer and serve_cold prune nothing at all.
//
// # Where the bytes come from
//
// The matrices of the ctxs' pools, and everything the store keeps — entries
// with their keys, the bucket index, record segments and the payloads of its
// compact pool — are carved from one dbm.Slabs set per run (explorer.slabs),
// as are the frontier's node blocks and the parent log's record blocks
// (explore.go, "Frontier" and "Trace reconstruction"), and so are the States
// the ctxs fire and rebuild with their vectors (newState), and every list that
// doubles with the sweep — the ctxs' free lists of States and successor lists,
// the compact pool's free lists of pruned payloads, the parent log's list of
// blocks — is carved by dbm.Grow, as are the ctxs' scratch vectors and
// closeScratch; a store built with a nil set (the tests' standalone stores)
// takes each from the heap instead. So a sweep's bookkeeping costs the
// collector nothing: no object to allocate per state or per prune, none to
// scan, nothing counted towards the heap goal, and the helper allocates on the
// heap only what it is — its goroutine, its ring, its ctx and pool — and the
// matrix headers of the states it has in flight. What a sweep still allocates
// on the heap is sized by the model, not by the states it stores or prunes:
// its ctxs and their pools, the zone pools' free lists and blocks of matrix
// headers, the compact pool's map of free lists, and the slab set's own lists.
// Carved memory is invisible to the collector, so it obeys dbm.Carve's rule: it
// points only into its own set — an entry at its next entry and its segments,
// a record at its payload, a segment at the next, a head at its entry, a
// waiting node at its entry and payload, a State at its vectors, a successor
// list at its States, a free list at payloads the pool carved, the log's list
// at its blocks — never at a heap object, which nothing would keep alive. A payload too large for a slab piece is such a
// heap object, and so is the matrix header a State points at; the set itself
// keeps both until Release. A carved successor holds no label: its channel
// name is a heap string (succCtx.keepLabels), so only a heap ctx, which trace
// replay runs on, keeps labels. A test store behind Options.passed hands the
// carved frontier heap entries and heap payloads, so it must keep every one of
// them alive itself until the sweep is over: a standalone store's entries hang
// in its heap index, and its standalone compact pool keeps every buffer it
// allocated (dbm.CompactPool); the reference store keeps the entries and
// payloads it hands out.
//
// explore releases the set to a process-wide cache exactly once per run —
// after the loop has returned, after every Query.finish and every
// replayTrace, and also when the run was canceled, ran out of budget or
// contained a panic. From then on a later sweep overwrites that memory, and
// the release after next unmaps it (slabs are mappings, not Go memory: a
// reference into one keeps nothing alive, see dbm.Slabs), so the rules above
// have one more clause: nothing a caller can see may alias slab memory. Today
// that holds because every such value is a heap copy — a completing query
// captures cloneState(s), never s (explorer.completeQuery), at a point where
// s has its matrix (just admitted, or just decoded); trace replay runs on a
// heap ctx (newCtx(nil)) from a heap initial state (engine.initial), so every
// TraceStep owns plain heap zones; SupResult carries bounds, not zones; a
// visitor may not retain a state beyond the call. The one place this changes
// is a new kind of result: if it holds a *State, a *dbm.DBM or a dbm.Compact,
// it must copy before explore returns. The package's tests run with released
// slabs and recycled payloads poisoned (slab_test.go), so an alias — a result
// into a slab, or a waiting node into a payload the store already recycled —
// shows up as garbage in the first test that looks, or as a fault if the slab
// is gone by then; carve_test.go walks a finished store to check that it
// points only into its own slabs.
type store struct {
	// index finds the entry of a discrete hash ("Bucket index" above).
	index bucketIndex
	// spare is the entry the next lookup packs its key into: a miss
	// publishes it, a hit leaves it for the next lookup; nil until needed.
	spare *storeEntry
	// slabs is what entries with their keys, the index, record segments and
	// (through cpool) payloads are carved from: the run's set, or nil for the
	// heap.
	slabs *dbm.Slabs
	cpool *dbm.CompactPool
	// bounds are what an admitted zone is extrapolated against: the engine's,
	// idempotent (see "Admission index").
	bounds *dbm.ExtraBounds
	// keys packs a state's discrete part into its entry's key: the engine's.
	keys *discretePacker
	// zones counts the stored maximal zones; read once the loop has
	// returned (size).
	zones int64
	// zoneBytes tracks the bytes currently held for stored zones — entries
	// with their keys, record segments and packed payloads, orphaned ones
	// included until the loop releases their waiting node's reference; a
	// Monitor samples bytes() while the loop adds.
	zoneBytes atomic.Int64
	// found and created count the entry lookups that found the discrete
	// state's entry and that created it (internStats). Atomics: the Monitor
	// reads them while the loop adds.
	found, created atomic.Int64
}

// A head block is 4 KiB of bucket heads.
const (
	headShift = 9
	headBlock = 1 << headShift
)

// bucketIndex is the store's chained hash table ("Bucket index" above).
type bucketIndex struct {
	// dir holds the head blocks in bucket order: bucket b's head is
	// dir[b>>headShift][b%headBlock].
	dir     []*[headBlock]*storeEntry
	entries int
}

// newBucketIndex returns an index of one head block carved from slabs.
func newBucketIndex(slabs *dbm.Slabs) bucketIndex {
	dir := dbm.CarveSlice[*[headBlock]*storeEntry](slabs, 1)
	dir[0] = dbm.Carve[[headBlock]*storeEntry](slabs)
	return bucketIndex{dir: dir}
}

// head returns the head of hash h's bucket.
func (x *bucketIndex) head(h uint64) **storeEntry {
	b := h & (uint64(len(x.dir))<<headShift - 1)
	return &x.dir[b>>headShift][b%headBlock]
}

// insert links e, whose hash is set, at the front of its bucket — head is
// what head(e.hash) returned — and doubles the table once it holds more
// entries than buckets.
func (x *bucketIndex) insert(head **storeEntry, e *storeEntry, slabs *dbm.Slabs) {
	e.next, *head = *head, e
	x.entries++
	if x.entries > len(x.dir)*headBlock {
		x.grow(slabs)
	}
}

// grow doubles the buckets: it carves the upper half's head blocks and a
// directory twice as long, and splits every chain in place on the hash bit
// the doubling adds, keeping the order within each half.
func (x *bucketIndex) grow(slabs *dbm.Slabs) {
	old := len(x.dir)
	dir := dbm.CarveSlice[*[headBlock]*storeEntry](slabs, 2*old)
	copy(dir, x.dir)
	for i := old; i < 2*old; i++ {
		dir[i] = dbm.Carve[[headBlock]*storeEntry](slabs)
	}
	x.dir = dir
	bit := uint64(old) << headShift
	for i, lo := range dir[:old] {
		hi := dir[old+i]
		for j, e := range lo {
			loTail, hiTail := &lo[j], &hi[j]
			for ; e != nil; e = e.next {
				if e.hash&bit == 0 {
					*loTail, loTail = e, &e.next
				} else {
					*hiTail, hiTail = e, &e.next
				}
			}
			*loTail, *hiTail = nil, nil
		}
	}
}

// zoneRec is one stored zone in an entry's admission index.
type zoneRec struct {
	sig dbm.Signature
	// z is the packed zone, a buffer from the store's compact pool that goes
	// back there when its last holder lets go (see heldByBoth); nil in a
	// slot not in use.
	z dbm.Compact
}

// Holder marks of a payload (dbm.Compact.Holder; "Zone ownership" above).
// Zero, the mark a fresh payload has, means the record is the only holder.
const (
	// heldByBoth: the record and the admitted state's waiting node.
	heldByBoth = 1
	// orphaned: the record was pruned; the waiting node is the only holder
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

// storeEntry is one discrete state of the store. Its key follows it in
// memory (see "Keys" above).
type storeEntry struct {
	// next chains the entries of one bucket.
	next *storeEntry
	// hash is the hash of the key (discretePacker.hash), immutable once the
	// entry is published.
	hash uint64
	// n counts the stored maximal zones. Their records occupy the first n
	// slots of the list: first, then the segments of more in chain order.
	// Most entries hold a single zone and never grow a segment.
	n     int32
	first [1]zoneRec
	more  *zoneSeg
}

// key returns the entry's packed discrete state ("Keys" above): the words
// words carved right after it. It never changes once the entry is published,
// so the lookahead helper decodes it without the store.
func (e *storeEntry) key(words int) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Add(unsafe.Pointer(e), entryBytes)), words)
}

// recCursor walks the record slots of one entry in list order.
type recCursor struct {
	recs []zoneRec // segment being walked
	i    int       // slots of recs already handed out
	seen int       // slots of the segments before recs
	// link is where the segment after recs hangs, or will hang.
	link **zoneSeg
	// slabs is what a segment the cursor appends is carved from; grown is
	// the bytes of the segments it carved.
	slabs *dbm.Slabs
	grown int64
}

func (e *storeEntry) cursor(slabs *dbm.Slabs) recCursor {
	return recCursor{recs: e.first[:], link: &e.more, slabs: slabs}
}

// chunk hands out the next run of slots that are contiguous in memory, at
// most max of them, stepping into the following segment — carving it at the
// end of the chain — once the current one is used up.
func (c *recCursor) chunk(max int) []zoneRec {
	if c.i == len(c.recs) {
		seg := *c.link
		if seg == nil {
			seg = dbm.Carve[zoneSeg](c.slabs)
			seg.recs = dbm.CarveSlice[zoneRec](c.slabs, min(c.seen+len(c.recs), maxSegRecs))
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
// them in list order, and returns the cursor just past the last one, which
// carves from slabs.
func (e *storeEntry) compact(live int, slabs *dbm.Slabs) recCursor {
	from, to := e.cursor(slabs), e.cursor(slabs)
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

// newStore returns an empty store. Entries with their keys, the index,
// records and packed payloads are carved from slabs (nil: from the heap);
// admitted zones are extrapolated against bounds; entry keys are packed by
// keys.
func newStore(slabs *dbm.Slabs, bounds *dbm.ExtraBounds, keys *discretePacker) *store {
	return &store{index: newBucketIndex(slabs), slabs: slabs, cpool: slabs.CompactPool(), bounds: bounds, keys: keys}
}

// newEntry returns a zeroed entry followed by room for a key of words words,
// carved from slabs (nil: one heap object).
func newEntry(slabs *dbm.Slabs, words int) *storeEntry {
	return dbm.CarveTail[storeEntry](slabs, words)
}

// lookupEntry finds or creates the entry for s's discrete state. It packs s
// into the spare entry's key and hashes those words: a new entry is the spare
// itself, a found one leaves it for the next lookup. Either way the key is a
// copy, so states stay recyclable. A new entry is charged to zoneBytes with
// its key; add admits its state, since it has no zone to be subsumed by.
func (st *store) lookupEntry(s *State) *storeEntry {
	n := st.keys.words
	if st.spare == nil {
		st.spare = newEntry(st.slabs, n)
	}
	key := st.spare.key(n)
	st.keys.pack(s.Locs, s.Vars, key)
	h := st.keys.hash(key)
	head := st.index.head(h)
	for e := *head; e != nil; e = e.next {
		if e.hash == h && slices.Equal(e.key(n), key) {
			st.found.Add(1)
			return e
		}
	}
	e := st.spare
	st.spare = nil
	e.hash = h
	st.index.insert(head, e, st.slabs)
	st.created.Add(1)
	st.zoneBytes.Add(entryBytes + 8*int64(n))
	return e
}

// admit implements the subsumption protocol on one entry: reject s if a
// stored zone includes its raw zone, otherwise extrapolate s.Zone in place
// against x (scratch: sc.rows, sc.cols), prune stored zones covered by it
// (recycling into pool the buffers no waiting state holds, orphaning the
// others) and store a packed copy of s.Zone, which it returns for the
// state's waiting node to hold (nil when s was subsumed). It also returns
// the change in the number of stored zones (0 when s was subsumed; any
// admission nets at least +1 minus prunes) and the change in stored bytes —
// payloads and record segments. The caller must hold the entry (see the
// store comment).
//
// Both inclusion directions are pre-filtered by the signature: d ⊆ z forces
// sig(d) ≤ sig(z) in every lane, so a non-inclusion usually costs a compare
// of two records that are already in cache instead of a dim² scan of a
// payload that is not. The raw zone's signature is at most the widened one's,
// so the reject pre-filter passes a little more often than it would on the
// widened zone; the exact check still decides.
func (e *storeEntry) admit(s *State, slabs *dbm.Slabs, pool *dbm.CompactPool, x *dbm.ExtraBounds, sc *closeScratch) (delta int, bytesDelta int64, payload dbm.Compact) {
	if faultinject.Enabled {
		// Chaos site inside compact admission: an injected error escalates to
		// a panic so containment takes the exact path a real encoder or
		// inclusion-scan crash would — explorer.runContained.
		if err := faultinject.Fire("core/store"); err != nil {
			panic(err)
		}
	}
	zone := s.Zone
	sig := dbm.SignatureOf(zone)
	// First pass: pure subsumption check on the raw zone, no mutation. It
	// leaves tail just past the last record, where an admission appends.
	tail := e.cursor(slabs)
	for rem := int(e.n); rem > 0; {
		recs := tail.chunk(rem)
		for i := range recs {
			if r := &recs[i]; sig.Leq(&r.sig) && r.z.ContainsDBM(zone) {
				return 0, 0, nil
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
	scan := e.cursor(slabs)
	for rem := int(e.n); rem > 0; {
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
		tail = e.compact(int(e.n)-pruned, slabs)
	}
	r := &tail.chunk(1)[0]
	r.sig, r.z = sig, dbm.EncodeCompact(zone, pool)
	r.z.SetHolder(heldByBoth)
	e.n += int32(1 - pruned)
	return 1 - pruned, bytesDelta + int64(len(r.z)) + tail.grown, r.z
}

// add inserts the state unless it is subsumed, handing back the entry and
// the payload a new state waits with (nil, nil when it is subsumed). See the
// type comment for the zone-ownership protocol.
func (st *store) add(s *State, sc *closeScratch) (*storeEntry, dbm.Compact) {
	e := st.lookupEntry(s)
	delta, bytesDelta, payload := e.admit(s, st.slabs, st.cpool, st.bounds, sc)
	if delta != 0 {
		st.zones += int64(delta)
	}
	if bytesDelta != 0 {
		st.zoneBytes.Add(bytesDelta)
	}
	if payload == nil {
		return nil, nil
	}
	return e, payload
}

// release gives back the payload reference c of the state s was rebuilt
// from, after the caller has decoded it: an orphaned buffer is recycled, any
// other stays with its record.
func (st *store) release(_ *State, c dbm.Compact) {
	if c.Holder() == orphaned {
		st.cpool.Put(c)
		st.zoneBytes.Add(-int64(len(c)))
	} else {
		c.SetHolder(0)
	}
}

// size returns the number of stored maximal zones.
func (st *store) size() int { return int(st.zones) }

// bytes returns the stored footprint: entries with their keys, zone
// records and packed zones.
func (st *store) bytes() int64 { return st.zoneBytes.Load() }

func (st *store) internStats() (hits, misses int64) { return st.found.Load(), st.created.Load() }

package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/dbm"
	"repro/internal/faultinject"
)

// ErrCanceled reports an exploration stopped early because Options.Context
// was canceled. The accompanying Stats are the partial effort up to the
// abort.
var ErrCanceled = errors.New("core: exploration canceled")

// ErrDeadlineExceeded reports an exploration stopped early because the
// deadline of Options.Context passed. The accompanying Stats are the partial
// effort up to the abort.
var ErrDeadlineExceeded = errors.New("core: exploration deadline exceeded")

// AbortErr is the one rule for why a context stops work: ErrDeadlineExceeded
// once its deadline has passed, whether or not it was also canceled (so a
// canceled-because-expired context reports the more specific expiry),
// ErrCanceled when it is done for any other reason, and nil while it is live
// or when it is nil. The sweep's checkpoint and every wait of a served job
// (internal/serve) answer with it.
func AbortErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return ErrDeadlineExceeded
	}
	if ctx.Err() != nil {
		return ErrCanceled
	}
	return nil
}

// abortCheckMask throttles the cancellation/deadline check in the admitting
// loop: every (mask+1)-th expansion polls Options.Context (AbortErr), so an
// abort lands within a bounded number of expansions while the hot path stays
// branch-cheap when no context can be done.
const abortCheckMask = 31

// This file is the exploration engine: one admitting loop (explorer.run) on
// the calling goroutine over one waiting list (frontier), one passed store
// (store.go), one statistics path and one trace mechanism. The waiting list
// is BFS, DFS or RDFS; a large breadth-first sweep moves the firing of
// successors to a lookahead helper goroutine and keeps everything else —
// admission included — on the calling one, in the same order ("Lookahead",
// below). Options.Workers selects nothing here: every count, trace and
// verdict is the one this loop makes.
//
// # Trace reconstruction
//
// When a trace can be requested — the query set is non-empty — every
// admitted state gets one 20-byte record (parent ref, its entry's hash,
// successor index) appended to the run's parent log, and the state is stamped
// with the record's ref in State.ref (the record's block and offset), which
// its waiting node carries to its expansion (the node's one word the store
// does not keep, "Frontier" below). Records hold three packed integers
// only — NEVER zone pointers, State pointers, or label copies — so recycling
// States (explorer.expand) stays sound and the zone-ownership protocol of
// store.go is untouched. Packing a record into 20 bytes, instead of one
// 80-byte record struct with a retained label, is what makes always-on trace
// logging cheap enough for the big sweeps. The log is a list of
// logBlockSize-record blocks carved from the run's slabs (explorer.slabs), so
// it costs the collector nothing per record — no allocation, no scan — and a
// sweep of a few dozen states logs into the one slab it already holds. The
// list of blocks is carved too (dbm.Grow), doubling once per doubling of the
// sweep, so the log allocates nothing on the heap but its own header. The
// blocks and their list go back with the slabs at explore's one Release,
// after the last replay has read them.
//
// When a run stops at a state (visitor match or deadlock), the trace is
// stitched back from the log: parent refs are followed from the stop record
// to the root, and the path is re-fired from the initial state by
// re-enumerating each parent's successors through the deterministic engine
// and selecting the recorded index, materializing a fresh, caller-owned
// symbolic state (and label) for every step. Replay is exact: enumeration
// order is a pure function of the parent state, each recorded index was
// captured before any RDFS shuffle, and each parent replayed is bit-identical
// to the original — so the stitched trace is the very path the exploration
// took.
//
// Log ownership rule: only the admitting goroutine appends, and stitch-up
// happens strictly after the loop has returned. No locks are needed.

// noRef marks "no record": the parent of the initial state, or any state's
// ref when parent logging is off.
const noRef int64 = -1

// A ref is block<<logShift | offset, so resolving it is a shift, a mask and
// two loads.
const (
	logShift     = 10
	logBlockSize = 1 << logShift
	logMask      = logBlockSize - 1
)

// logLink is the parent ref and discrete hash of one record.
type logLink struct {
	// parent is the ref of the record the state was fired from; noRef for
	// the initial state.
	parent int64
	// key is the admitted state's discrete hash — its entry's, the hash of
	// its packed key (discretePacker.hash) — which replay checks each
	// re-fired state against.
	key uint64
}

// logBlock is one block of admission records as parallel arrays: links and
// successor indices pack to 20 bytes per record with no per-record struct
// padding or label retention. steps holds the index of the fired transition
// in the parent's deterministic successor enumeration (succ.idx).
type logBlock struct {
	links [logBlockSize]logLink
	steps [logBlockSize]int32
}

// parentLogs is the run's trace arena: an append-only record log, grown
// block by block.
type parentLogs struct {
	slabs *dbm.Slabs // what blocks are carved from; nil: the heap
	// blocks is the directory of blocks, carved and doubled by dbm.Grow: it
	// points only at blocks of its own set.
	blocks []*logBlock
	n      int // records in the last block
}

// record appends an admission record and returns its ref.
func (l *parentLogs) record(parent int64, key uint64, step int32) int64 {
	if len(l.blocks) == 0 || l.n == logBlockSize {
		if len(l.blocks) == cap(l.blocks) {
			l.blocks = dbm.Grow(l.slabs, l.blocks)
		}
		l.blocks = append(l.blocks, dbm.Carve[logBlock](l.slabs))
		l.n = 0
	}
	b, i := l.blocks[len(l.blocks)-1], l.n
	b.links[i] = logLink{parent, key}
	b.steps[i] = step
	l.n = i + 1
	return int64(len(l.blocks)-1)<<logShift | int64(i)
}

// at resolves a ref. Only sound after the loop has returned.
func (l *parentLogs) at(ref int64) (parent int64, key uint64, step int32) {
	b, i := l.blocks[ref>>logShift], ref&logMask
	return b.links[i].parent, b.links[i].key, b.steps[i]
}

// # Frontier
//
// The waiting list (frontier) holds waiting nodes, not States. The node of
// an admitted state references what the store already keeps of it — the
// entry, whose key is its discrete part, packed, and whose hash is that
// key's, and the packed payload of its zone — plus the one word the store
// does not keep, its parent-log ref. So a waiting state costs one 40-byte
// node whatever the dimension and the process count, and it cannot hold a
// matrix: the store owns the only copy of its zone until it is popped.
//
// A State is an expansion's scratch. An expansion is one popped node: the
// State rebuilt from it and the States of the successors fired from that,
// all taken from the expanding ctx's free list (succCtx.getState) or carved
// from the sweep's slabs (newState), each owning its matrix for life: a
// matrix is recycled with the State that owns it, so a ctx keeps one free
// list, of States. The life of a state:
//
//   - popped: the node is copied out of its slot, and succCtx.unpark
//     rebuilds a State from it — the entry's key decoded, the node's ref,
//     the payload decoded into the State's matrix — and passedSet.release gives
//     the payload back;
//   - fired: engine.fire materializes each successor, raw zone and all;
//   - decided: passedSet.add either subsumes a successor, which the loop then
//     leaves alone, or admits it, widening the zone in place and handing
//     back the entry and a payload reference;
//   - visited: the queries see the admitted State with its matrix;
//   - parked: the loop writes its node — entry, payload and ref — into the
//     frontier's tail slot;
//   - recycled: the next expansion in the same slot puts the whole
//     expansion back into its ctx (succCtx.recycle) before it rebuilds its
//     own state — successors in list order, then the expanded State,
//     matrices and all. The loop itself never frees a State.
//
// Inline, the loop has one slot: it keeps its last expansion (s, succs)
// until its next one recycles it. Under the lookahead helper each ring slot
// is one, on the helper's ctx ("Lookahead" below). So a sweep carves States
// in proportion to its widest expansion times its slots, not to its widest
// frontier (TestPooledMatricesFlatInStates). The only heap States are the
// initial one, which goes to the collector once it waits, and the
// caller-owned clones and trace steps.
//
// The frontier keeps its nodes by value in blocks of frontBlockNodes, 4 KiB
// each, carved from the run's slabs: a FIFO queue of blocks for BFS, a stack
// of them for DFS and RDFS (successor shuffling happens in the loop). A block
// emptied by pops goes onto a free list, and the next block a push needs
// comes from there before anything is carved, so a sweep carves blocks in
// proportion to its widest frontier, a sweep of a few dozen states one
// block, and the collector sees none of it: a node points only at its entry
// and payload, both the run's carved memory or, behind a test store, heap
// objects that store keeps alive ("Where the bytes come from" in store.go).
//
// Visitors run on the calling goroutine and must not retain a state beyond
// the call: the State they see, admitted or deadlocked, is recycled with its
// matrix by the next expansion in its slot. FoundState and replayed trace
// states are exempt: both are caller-owned clones (explorer.completeQuery,
// replayTrace).

// waiting is a node of the frontier: an admitted state between its push and
// its pop.
type waiting struct {
	// entry is the store entry that admitted the state. Its key is the
	// state's discrete part, packed, and its hash that key's; neither changes
	// once the entry is published, so the lookahead helper reads the key
	// without the store.
	entry *storeEntry
	// packed references the payload the store packed of the admitted zone —
	// the store's buffer, not a copy — until the state has been rebuilt from
	// it and the loop has released it (passedSet.release; "Zone ownership"
	// in store.go).
	packed dbm.Compact
	ref    int64 // the state's parent-log ref (State.ref)
}

// frontBlockNodes is how many nodes one frontier block holds: as many as fit
// in 4 KiB beside the block's 8-byte link.
const frontBlockNodes = (4096 - 8) / unsafe.Sizeof(waiting{})

// frontBlock is a block of the frontier.
type frontBlock struct {
	// link is, under BFS, the next block towards the tail, and under DFS and
	// RDFS the block below; on the free list, the next free block.
	link  *frontBlock
	nodes [frontBlockNodes]waiting
}

// frontier is the waiting list: FIFO for BFS, LIFO for DFS/RDFS. pop reports
// false when the list is empty.
type frontier struct {
	order Order
	slabs *dbm.Slabs // what blocks are carved from
	// head is the block BFS pops from, at slot hi; tail the block pushes go
	// to, at slot ti — the top of the stack under DFS and RDFS, where only
	// the bottom block may be empty.
	head, tail *frontBlock
	hi, ti     int
	free       *frontBlock // emptied blocks
}

// push returns the tail slot the next node is written into.
func (f *frontier) push() *waiting {
	if f.tail == nil || f.ti == len(f.tail.nodes) {
		b := f.free
		if b != nil {
			f.free, b.link = b.link, nil
		} else {
			b = dbm.Carve[frontBlock](f.slabs)
		}
		switch {
		case f.order != BFS:
			b.link = f.tail
		case f.tail == nil:
			f.head, f.hi = b, 0
		default:
			f.tail.link = b
		}
		f.tail, f.ti = b, 0
	}
	n := &f.tail.nodes[f.ti]
	f.ti++
	return n
}

// pop copies the next node into n.
func (f *frontier) pop(n *waiting) bool {
	if f.tail == nil {
		return false
	}
	if f.order != BFS {
		if f.ti == 0 {
			return false
		}
		f.ti--
		*n = f.tail.nodes[f.ti]
		if b := f.tail; f.ti == 0 && b.link != nil {
			f.tail, f.ti = b.link, len(b.nodes)
			f.free, b.link = b, f.free
		}
		return true
	}
	if f.head == f.tail && f.hi == f.ti {
		return false
	}
	*n = f.head.nodes[f.hi]
	f.hi++
	switch b := f.head; {
	case b == f.tail && f.hi == f.ti:
		// Empty: the one block starts over.
		f.hi, f.ti = 0, 0
	case f.hi == len(b.nodes):
		f.head, f.hi = b.link, 0
		f.free, b.link = b, f.free
	}
	return true
}

// explorer carries the mutable state of one exploration run. It belongs to
// the admitting loop, which runs on the goroutine that called explore: the
// loop returns how it ended — drained, completed, truncated or with an error —
// and its run state is plain data. An atomic in this package exists only for
// a reader or writer on another goroutine, and names it: here stored and the
// cell, which a Monitor's Snapshot reads while the run is live, beside the
// store's counters (store.go) and the lookahead's hand-off (lookahead). The
// helper reads only what it is handed and the explorer's immutable fields.
type explorer struct {
	c       *Checker
	opts    Options
	queries []Query // the attached query set (may be empty: plain sweep)
	passed  passedSet
	front   frontier
	logs    *parentLogs // nil when no trace can be requested
	mon     *monView    // nil when no Monitor is attached
	prof    *profRun    // nil unless the Monitor has profiling enabled

	// cell is where the loop publishes its counts, read by Stats, the
	// Monitor, the memory budget and the profile alike.
	cell workerCell

	// slabs is the sweep's slab set: the loop's and the helper's States and
	// matrices, the store (entries with their keys, index, records,
	// payloads), the frontier and the parent log carve from it, and explore
	// releases it (see there). Nothing caller-visible may alias it:
	// FoundState is a cloneState copy, trace replay runs on a heap ctx
	// (newCtx(nil)) from the heap initial state, and results carry bounds
	// and integers. A new result kind that holds a *State, *dbm.DBM or
	// dbm.Compact must copy before explore returns. The package's tests run
	// with released slabs and recycled payloads poisoned (TestMain in
	// slab_test.go), so an alias reads as garbage in whichever test looks at
	// it.
	slabs dbm.Slabs
	// initScratch is what the initial state is closed and admitted with,
	// before the loop has a succCtx; carved from slabs.
	initScratch closeScratch

	// hasCheck caches "an abortable Context or MaxBytes configured" so the
	// loop pays a single predictable branch when none is.
	hasCheck bool

	// live counts queries that have not yet completed; the completion that
	// drops it to zero (completeQuery) ends the sweep. A query-less sweep
	// keeps it at zero and never stops early: the visit path guards on
	// len(queries), and only completeQuery reads the decremented count.
	live int
	// truncated records that the sweep stopped at Options.MaxStates.
	truncated bool
	// stored counts admitted states; a Monitor's Snapshot reads it from its
	// own goroutine while the loop adds.
	stored atomic.Int64
}

// completeQuery marks the live query q done on state s: it captures a
// caller-owned clone of s plus its parent-log ref — a query set has a log —
// and decrements the live count. It reports whether this completion drained
// the query set, which ends the sweep.
func (e *explorer) completeQuery(q Query, s *State) (drained bool) {
	qs := q.state()
	qs.done = true
	qs.found = cloneState(s)
	qs.ref = s.ref
	e.live--
	return e.live == 0
}

// visitAdmitted feeds one newly admitted state to every live query; it
// reports whether the sweep is over (all queries completed).
func (e *explorer) visitAdmitted(s *State) (drained bool) {
	for _, q := range e.queries {
		if q.state().done {
			continue
		}
		if q.visit(s) && e.completeQuery(q, s) {
			return true
		}
	}
	return false
}

// contained runs f with panic containment: a crash anywhere in it — engine
// bug, panicking visitor predicate, injected fault — becomes the run's
// *PanicError, an error like cancellation's, instead of killing the process.
// Containment honors the zone ownership protocol by doing nothing: the
// loop simply abandons its succCtx (scratch zone, free list of States) to
// the garbage collector along with the rest of the run's pools, so a
// possibly-corrupt state is never recycled — only the raw slab bytes
// underneath are, after the loop has returned, by explore. The deferred
// publish inside run still lands during unwinding, so partial Stats stay
// accurate.
func contained(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// run is the admitting loop: take the next expanded state — pop a node,
// rebuild its state and fire its successors, inline or, once it engages, on
// the lookahead helper — then admit the successors, feed the query set and
// park what was admitted. It frees no State: the next expansion in the same
// slot recycles this one's (explorer.expand). It returns when the
// frontier is empty, the query set has completed or MaxStates truncates the
// sweep (nil), or with the error that ends the run. Statistics accumulate in
// locals, published into the run's cell at each checkpoint and once more on
// exit.
//
// Cooperative abort: Options.Context is polled here, through AbortErr, every
// abortCheckMask+1 expansions, strictly between expansions. The loop
// never aborts while it holds a popped state mid-fire, so every state is
// either recycled by a later expansion or abandoned with the run's pools, and
// a canceled sweep leaves the checker reusable
// (TestCancelLeavesEngineReusable). Aborts surface as AbortErr names them,
// ErrCanceled or ErrDeadlineExceeded, with partial Stats. A run explore
// refuses before it starts (its Context already done) does not mark its
// queries used.
func (e *explorer) run() error {
	ctx := e.c.eng.newCtx(&e.slabs)
	// Parent-log records hold successor indices, not labels, so the loop
	// never needs stable label copies — replay rebuilds them on demand.
	ctx.keepLabels = false
	var shuffle *rand.Rand
	if e.opts.Order == RDFS {
		shuffle = rand.New(rand.NewSource(e.opts.Seed))
	}
	// s and succs are the expansion the loop admits, and until the next one
	// the slot an inline expansion recycles (explorer.expand).
	var s *State
	var succs []succ
	var node waiting // what an inline expansion pops into
	var nPopped, nTransitions, nDeadlocks int64
	cell := &e.cell
	zoneBytes := dbm.ZoneBytes(e.c.eng.dim)
	// ahead is the lookahead helper once it has engaged, after aheadFrom
	// expansions, and nil while expansions run inline; its matrix counts are
	// the loop's too.
	var ahead *lookahead
	aheadFrom := e.opts.lookaheadFrom()
	matrices := func() (gets, reuses int) {
		gets, reuses = ctx.gets, ctx.reuses
		if ahead != nil {
			gets, reuses = gets+ahead.own.v.gets, reuses+ahead.own.v.reuses
		}
		return gets, reuses
	}
	publish := func() {
		gets, reuses := matrices()
		cell.publish(nPopped, nTransitions, nDeadlocks, int64(gets-reuses)*zoneBytes)
	}
	// The exit publish makes the cell exact however the loop leaves:
	// drained, completed, truncated, aborted, failed, or unwinding from a
	// panic. Before it, the helper is stopped and waited for: explore
	// releases the slabs its expansions carve from once run has returned.
	defer publish()
	defer func() {
		if ahead != nil {
			ahead.stop()
		}
	}()
	for {
		if nPopped&abortCheckMask == 0 {
			// The between-expansions checkpoint: four single-writer stores
			// into the run's cell, then the abort and budget checks when any
			// is configured.
			publish()
			if e.hasCheck {
				if err := AbortErr(e.opts.Context); err != nil {
					return err
				}
				// The passed store adds its actual packed footprint.
				if e.opts.MaxBytes > 0 && cell.zoneBytes.Load()+e.passed.bytes() > e.opts.MaxBytes {
					return ErrMemoryBudget
				}
			}
		}
		if e.prof != nil && nPopped&e.prof.mask == 0 {
			// Sweep-profile sampling: every (mask+1)-th expansion the loop
			// appends one point to its cell's ring — loop locals, the cell,
			// and a few shared atomics. The disabled path is the nil check
			// alone, and only this branch grows a ring, so an unprofiled
			// sweep provably gains zero allocations.
			gets, reuses := matrices()
			e.sampleProfile(nPopped, nTransitions, gets, reuses)
		}
		if nPopped == aheadFrom {
			ahead = e.startLookahead(ctx, s, succs)
		}
		var popped bool
		var payload dbm.Compact
		var err error
		if ahead != nil {
			popped, s, payload, succs, err = ahead.next(&e.front)
		} else if popped = e.front.pop(&node); popped {
			s, payload, succs, err = e.expand(ctx, &node, s, succs)
		}
		if !popped {
			return err
		}
		nPopped++
		e.passed.release(s, payload)
		if err != nil {
			return err
		}
		if len(succs) == 0 {
			nDeadlocks++
			for _, q := range e.queries {
				if q.state().done {
					continue
				}
				if q.onDeadlock(s) && e.completeQuery(q, s) {
					return nil
				}
			}
		}
		if shuffle != nil {
			shuffle.Shuffle(len(succs), func(i, j int) { succs[i], succs[j] = succs[j], succs[i] })
		}
		for _, sc := range succs {
			nTransitions++
			entry, payload := e.passed.add(sc.state, &ctx.closeScratch)
			if entry == nil {
				// Subsumed: the next expansion in this slot recycles it.
				continue
			}
			n := e.stored.Add(1)
			if e.logs != nil {
				sc.state.ref = e.logs.record(s.ref, entry.hash, sc.idx)
			}
			if len(e.queries) > 0 && e.visitAdmitted(sc.state) {
				return nil
			}
			// The hard state budget is checked at admission — the point the
			// count is already in hand — and fails the run; the soft MaxStates
			// below merely truncates it.
			if e.opts.StateBudget > 0 && n > int64(e.opts.StateBudget) {
				return ErrStateBudget
			}
			if e.opts.MaxStates > 0 && n >= int64(e.opts.MaxStates) {
				e.truncated = true
				return nil
			}
			// The queries have seen the state; it waits as a node, and its
			// State is recycled with the rest of the expansion.
			*e.front.push() = waiting{entry: entry, packed: payload, ref: sc.state.ref}
		}
	}
}

// expand recycles the expansion before it in the same slot — prev, the
// state it expanded, and out, its successors, all of which the loop has
// admitted or discarded (succCtx.recycle) — then rebuilds the state a popped
// node waited as and fires its successors into out. Apart from recycling, it
// is a pure function of the node — it reads the node, its entry's key and
// its payload, and writes only ctx — so the lookahead helper can run it
// ahead of the loop that admits. The payload is the loop's to release, the
// error its to fail the run with; a state whose expansion failed has been
// rebuilt.
func (e *explorer) expand(ctx *succCtx, n *waiting, prev *State, out []succ) (*State, dbm.Compact, []succ, error) {
	ctx.recycle(prev, out)
	out = out[:0]
	s, payload := ctx.unpark(n)
	if faultinject.Enabled {
		if err := faultinject.Fire("core/worker"); err != nil {
			return s, payload, out, err
		}
	}
	out, err := e.c.eng.successors(ctx, s, out)
	return s, payload, out, err
}

// # Lookahead
//
// A breadth-first sweep splits its loop over two goroutines once it has
// expanded lookaheadAfter states, when GOMAXPROCS allows two to run,
// whatever Options.Workers says. The calling goroutine keeps everything that
// reads or writes shared run state, in the order of an inline run: the
// frontier, the store's add and release, the parent log, the query visits,
// the run's cell and the abort and budget checks. A helper goroutine runs
// expand, the part of an expansion that is a pure function of the popped
// node. FIFO pushes go to the tail of the list, so the caller may pop up to
// lookaheadDepth nodes beyond the one it admits and hand them to the helper;
// their expansions come back in pop order, and every admission, prune,
// visit, log record and count happens exactly as it would inline. DFS and
// RDFS never engage it: under LIFO order the next pop depends on the
// current expansion's pushes.
//
// One helper, not several: the admitting goroutine is the critical path of
// every large sweep measured (it waits for the helper at most 4% of its time
// on archchain, fischer and table1), so a second helper would only idle. A
// multi-core host would need the admission itself split — per-shard
// admitting stages fed in global successor order — to use more cores
// without changing an answer.
//
// Nor is no helper better than one. With lookaheadFrom always -1 (5
// alternating pairs of benchmark/run.sh, 10 s runs, 2-core host), archchain
// read 892 ms verdict_ms_p50 against 607 (+47%, slower in 5 of 5 pairs) and
// 0.89 s setup_s against 0.61, for 2.5% less alloc_mb_per_verdict (0.1795
// against 0.1841 MB) and 1% less peak_rss_mb (60.4 against 61.0 MB). So the
// helper stays.
//
// The two meet in a ring of lookaheadDepth+1 slots, one per expansion in
// flight — the one the caller admits among them — indexed by two counters,
// sent (written by the caller) and done (written by the helper). A slot
// carries a node in — by value: the caller pops the node straight into the
// slot, so the frontier block it came from may be reused at once — and its
// rebuilt state, payload and fired successors back. Neither side blocks: a
// caller ahead of the helper, or a helper with nothing to expand, yields. Each
// ring slot is an expansion slot ("Frontier" above): the helper expands a
// slot's node on its own ctx, and first recycles the slot's previous
// expansion, which is ring hand-overs old. The caller has admitted all of it
// by then: it hands a slot over only after it has taken every older one, and
// it takes an expansion only after it has admitted the one before. So every
// State the helper rebuilds or fires goes back to the helper's ctx without
// passing through the caller's, and nothing is handed back but the slot. When
// the helper engages, the caller recycles its own last inline expansion once
// (startLookahead) and fires no State after that. The helper reads a payload
// before the caller releases it, and writes none: a prune the caller makes
// meanwhile changes only the holder mark, which decoding does not read.
//
// The helper carves from the sweep's slab set as the loop does: its ctx's
// scratch, the States it fires and rebuilds with their matrices, and its
// slots' successor lists (dbm.Grow). On the heap it costs its goroutine, its
// ring (the lookahead struct, which holds errors and so may not be carved),
// its ctx, and its share of the set's blocks of matrix headers for the
// states in flight: a Fischer-5 sweep makes at most a few dozen more heap
// allocations with the helper than inline, whatever its size
// (TestSweepHeapAllocsFlatInStates).
//
// The helper never parks: both sides poll with runtime.Gosched, so one sweep
// keeps two cores busy for one CPU token. Parking an idle helper on a
// one-slot channel, woken by the caller's next hand-over, was measured
// (Fischer-5, two cores, median of 8 alternating rounds, wall / CPU ms per
// sweep, and per pair of sweeps run at once): polling 190–205 / 295–354
// alone, 319–358 / 630–707 as a pair; helper off 190–205 / 190–205 alone,
// 223–239 / 384–408 as a pair. Parking after 256 or 1,024 idle polls, or after
// 20 or 50 µs idle, parked a few times per single sweep and a few dozen per
// pair, and stayed within the spread of polling in both regimes (pairs
// 290–380 / 573–749). Parking at the first idle poll made pairs faster
// (258–299 ms) and single sweeps 45% slower (285–321 ms against 186–223).
// Parking the waiting caller as well changed nothing. Two sweeps at once are
// slow because four goroutines hand work across two cores, not because a
// helper spins while it waits; BenchmarkTwoSweepsAtOnce (bench_test.go)
// measures that regime.
//
// The helper's matrix counts, as of the last expansion the caller has taken,
// join the caller's in its cell. So do the two stage-bound counts, once the
// helper has stopped: the caller's polls for an expansion the helper has not
// finished, and the helper's polls for a node to expand. Many of the first
// mean the sweep is bound by expansion, many of the second by admission
// (SweepProfile.CallerWaits, HelperIdle). A helper panic comes back in its
// slot, and next returns it as the run's error when the caller takes it,
// where an inline run would have panicked. The caller stops the helper and
// waits for it to exit before run returns, however it returns.

const (
	// lookaheadDepth is how many nodes the helper may expand beyond the one
	// the caller admits.
	lookaheadDepth = 8
	// lookaheadAfter is how many states a sweep expands inline before the
	// helper engages, so that the small sweeps of a design study, a few
	// hundred states at most, never pay for starting it.
	lookaheadAfter = 1024
)

// lookaheadMode is the test seam Options.lookahead.
type lookaheadMode uint8

const (
	lookaheadAuto lookaheadMode = iota // as lookaheadFrom decides
	lookaheadOn                        // from the first expansion, whatever GOMAXPROCS
	lookaheadOff                       // never
)

// lookaheadFrom returns after how many expansions a run's loop engages the
// lookahead helper, or -1 for never.
func (o Options) lookaheadFrom() int64 {
	if o.Order != BFS || o.lookahead == lookaheadOff {
		return -1
	}
	if o.lookahead == lookaheadOn {
		return 0
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return -1
	}
	return lookaheadAfter
}

// expansion is one slot of the lookahead ring.
type expansion struct {
	node waiting // in: the popped node
	// out: what expand returned, the helper's matrix counts after it, and a
	// helper panic. s and succs stay in the slot until its next expansion
	// recycles them.
	s            *State
	payload      dbm.Compact
	succs        []succ
	err          error
	gets, reuses int
	crash        *PanicError
}

// lookahead is the helper of one run's loop. Each side polls the counter
// the other writes, so the two counters, and the caller's own tally, sit in
// slots of a cache line each (perworker.go).
type lookahead struct {
	slots [lookaheadDepth + 1]expansion
	e     *explorer
	ctx   *succCtx // the helper's own
	// quit is the caller's word to the helper goroutine to exit.
	quit   atomic.Bool
	exited chan struct{}
	// sent counts the slots the caller has handed over, which the helper
	// goroutine polls; done those the helper has expanded, which the caller
	// polls.
	sent, done slot[atomic.Int64]
	own        slot[aheadTally]
}

// aheadTally is the caller's own: the slots it has taken, the helper's matrix
// counts as of the last one, and its polls for an expansion not yet done.
type aheadTally struct {
	taken        int64
	gets, reuses int
	waits        int64
}

// startLookahead starts the helper for the loop whose ctx is ctx, between
// two of its expansions, and recycles the last inline one, prev and succs,
// which no later expansion on ctx would.
func (e *explorer) startLookahead(ctx *succCtx, prev *State, succs []succ) *lookahead {
	ctx.recycle(prev, succs)
	la := &lookahead{e: e, ctx: e.c.eng.newCtx(&e.slabs), exited: make(chan struct{})}
	la.ctx.keepLabels = false
	go la.serve()
	return la
}

// next hands the helper every node the frontier has, up to the ring's
// capacity, and returns what expand returned for the oldest expansion in
// flight. It reports false when the frontier is empty with nothing in
// flight, or, with the crash as its error, when the helper crashed.
func (la *lookahead) next(front *frontier) (bool, *State, dbm.Compact, []succ, error) {
	ring := int64(len(la.slots))
	own := &la.own.v
	sent := la.sent.v.Load()
	for ; sent-own.taken < ring; sent++ {
		if !front.pop(&la.slots[sent%ring].node) {
			break
		}
		la.sent.v.Store(sent + 1)
	}
	if own.taken == sent {
		return false, nil, nil, nil, nil
	}
	for la.done.v.Load() <= own.taken {
		own.waits++
		runtime.Gosched()
	}
	x := &la.slots[own.taken%ring]
	own.taken++
	if x.crash != nil {
		return false, nil, nil, nil, x.crash
	}
	own.gets, own.reuses = x.gets, x.reuses
	return true, x.s, x.payload, x.succs, x.err
}

// serve is the helper goroutine: expand each slot the caller hands over, in
// order, until told to quit or crashed, and publish how often it polled for a
// node to expand.
func (la *lookahead) serve() {
	defer close(la.exited)
	ring := int64(len(la.slots))
	var idle int64
	for i := int64(0); ; i++ {
		for la.sent.v.Load() <= i && !la.quit.Load() {
			idle++
			runtime.Gosched()
		}
		if la.quit.Load() {
			break
		}
		crashed := la.expand(&la.slots[i%ring])
		la.done.v.Store(i + 1)
		if crashed {
			break
		}
	}
	la.e.cell.helperIdle.Store(idle)
}

// expand expands a slot's node, recycling the slot's previous expansion,
// and contains a panic in the slot: the helper's ctx is then abandoned with
// the run's pools, as a crashed loop's is (contained).
func (la *lookahead) expand(x *expansion) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			x.crash = &PanicError{Value: r, Stack: debug.Stack()}
			crashed = true
		}
	}()
	x.s, x.payload, x.succs, x.err = la.e.expand(la.ctx, &x.node, x.s, x.succs)
	x.gets, x.reuses = la.ctx.gets, la.ctx.reuses
	return false
}

// stop tells the helper to quit, waits until it has, and publishes the
// caller's waits for it.
func (la *lookahead) stop() {
	la.quit.Store(true)
	<-la.exited
	la.e.cell.callerWaits.Store(la.own.v.waits)
}

// explore runs the engine over one query set (possibly empty: a plain
// sweep). Every query attaches its reduction state to the single run;
// queries complete independently and the sweep short-circuits when the last
// one does.
func (c *Checker) explore(opts Options, queries []Query) (ExploreResult, error) {
	start := time.Now()
	var res ExploreResult
	e := &explorer{c: c, opts: opts, queries: queries}
	// The sweep's slabs go back to the process-wide cache once per run, on
	// every way out of this function: strictly after the loop has returned
	// (and with it the helper) and after every Query.finish and replayTrace
	// below, when the frontier's nodes, the store's payloads and the ctxs
	// are referenced by nothing that survives the return (see "Zone
	// ownership" in store.go). Canceled, budget-failed and panic-contained
	// runs release too: a slab is raw bytes, and whoever carves it next
	// initializes what it carves. The order is load-bearing: a goroutine
	// still touching carved memory after this point does not read garbage,
	// it faults once the next release has unmapped the slab.
	defer e.slabs.Release()
	e.initScratch = c.eng.newCloseScratch(&e.slabs)
	init, err := c.eng.initial(&e.initScratch)
	if err != nil {
		return res, err
	}
	// A context that can never be done (context.Background) costs the loop
	// nothing, like none at all.
	hasAbort := opts.Context != nil && opts.Context.Done() != nil
	e.hasCheck = hasAbort || opts.MaxBytes > 0
	if hasAbort {
		// Refuse to start an already-aborted run: a done Context returns
		// immediately with zero Stats, before any query is marked used.
		if aerr := AbortErr(opts.Context); aerr != nil {
			res.Duration = time.Since(start)
			return res, aerr
		}
	}
	e.live = len(queries)
	for _, q := range queries {
		qs := q.state()
		qs.used = true
		qs.ref = noRef
	}
	// Parent logs exist exactly when a trace can be requested: every query
	// kind may complete with a witness, a query-less sweep has none.
	if len(queries) > 0 {
		e.logs = &parentLogs{slabs: &e.slabs}
	}

	// Test hook: a caller-supplied passed set replaces the store, so the
	// compact store can be differentially checked against a reference
	// (store_oracle_test.go).
	e.passed = opts.passed
	if e.passed == nil {
		e.passed = newStore(&e.slabs, &c.eng.bounds, &c.eng.keys)
	}
	entry, payload := e.passed.add(init, &e.initScratch)
	e.stored.Store(1)
	init.ref = noRef
	if e.logs != nil {
		init.ref = e.logs.record(noRef, entry.hash, 0)
	}

	// The initial state is admitted like any other; if it already completes
	// the whole query set, or its visit fails the run, the sweep is skipped.
	// The visit runs contained like the loop — it executes the same
	// caller-supplied predicates, and a crash here must fail the run, not the
	// process.
	var runErr error
	drained := false
	if len(queries) > 0 {
		runErr = contained(func() error {
			drained = e.visitAdmitted(init)
			return nil
		})
	}
	sweep := !drained && runErr == nil
	if sweep {
		e.front = frontier{order: opts.Order, slabs: &e.slabs}
		// init waits like any admitted state, as a node. Its State is a heap
		// one and goes to the collector: the free list of the loop's ctx
		// holds carved States only (succCtx.states).
		*e.front.push() = waiting{entry: entry, packed: payload, ref: init.ref}
	}
	// Attach the monitor strictly after e.front is in place: the atomic
	// publication inside attach orders the frontier write before any
	// Snapshot reads it.
	endExplore := noopEnd
	if opts.Monitor != nil {
		e.mon = opts.Monitor.attach(e)
		e.prof = e.mon.prof
		endExplore = opts.Monitor.BeginPhase("explore")
	}
	if sweep {
		runErr = contained(e.run)
	}
	endExplore()
	if e.mon != nil {
		// The loop is done and its exit publish has landed in the cell;
		// later Snapshots read those exact totals.
		e.mon.setDone()
	}

	res.Duration = time.Since(start)
	res.Stored = int(e.stored.Load())
	res.Live = e.passed.size()
	res.Popped = int(e.cell.popped.Load())
	res.Transitions = int(e.cell.transitions.Load())
	res.Deadlocks = int(e.cell.deadlocks.Load())
	res.Truncated = e.truncated
	if runErr != nil {
		// Finish the queries anyway so partial reductions remain readable,
		// but the run error wins.
		for _, q := range queries {
			_ = q.finish(c, e.logs, res.Stats)
		}
		return res, runErr
	}
	if opts.Monitor != nil && e.logs != nil {
		// The trace-replay phase covers everything after the sweep that may
		// re-fire transitions: each query's finish (result materialization +
		// completion-trace replay).
		defer opts.Monitor.BeginPhase("trace-replay")()
	}
	// Materialize results and replay completion traces strictly after the
	// loop has returned.
	for _, q := range queries {
		if err := q.finish(c, e.logs, res.Stats); err != nil {
			return res, err
		}
	}
	return res, nil
}

// replayTrace stitches the path to ref back from the parent log — none for
// noRef — and re-fires it from the initial state: each step re-enumerates the
// parent's successors through the deterministic engine and selects the
// recorded index. Every returned TraceStep owns a freshly materialized
// state, zone, and label (chunk-backed Parts stay alive through the Label
// references after the replay ctx is dropped), so the trace stays valid
// after the exploration's pools are gone. The engine fires raw zones, and
// what the sweep expanded was the zone the store had widened, so replay
// widens — with the same bounds — the initial state and the one successor it
// selects per step, exactly where the sweep did; the siblings are recycled
// into the replay ctx as they are. The selected states are never put back,
// so their zones are safe to retain. The replay double-checks each step
// against the recorded discrete key and fails loudly on any divergence — by
// construction there is none, since enumeration is a pure function of the
// parent state, indices were captured before any RDFS shuffle, and each
// replayed parent is bit-identical to the original.
func (c *Checker) replayTrace(logs *parentLogs, ref int64) ([]TraceStep, error) {
	if ref == noRef {
		return nil, nil
	}
	type chainStep struct {
		key uint64
		idx int32
	}
	var chain []chainStep
	for r := ref; r != noRef; {
		parent, key, idx := logs.at(r)
		chain = append(chain, chainStep{key, idx})
		r = parent
	}
	slices.Reverse(chain)

	ctx := c.eng.newCtx(nil) // keepLabels: replay materializes the labels
	cur, err := c.eng.initial(&ctx.closeScratch)
	if err != nil {
		return nil, err
	}
	cur.Zone.Extrapolate(&c.eng.bounds, ctx.rows, ctx.cols)
	// key is the scratch each replayed state is packed into, to be hashed as
	// the store hashed it.
	key := dbm.CarveSlice[uint64](nil, c.eng.keys.words)
	hash := func(s *State) uint64 {
		c.eng.keys.pack(s.Locs, s.Vars, key)
		return c.eng.keys.hash(key)
	}
	if hash(cur) != chain[0].key {
		return nil, fmt.Errorf("core: internal: trace log root does not match the initial state")
	}
	steps := make([]TraceStep, 0, len(chain))
	steps = append(steps, TraceStep{State: cur})
	var succs []succ
	for _, st := range chain[1:] {
		succs, err = c.eng.successors(ctx, cur, succs[:0])
		if err != nil {
			return nil, fmt.Errorf("core: internal: trace replay: %w", err)
		}
		chosen := -1
		for i := range succs {
			if succs[i].idx == st.idx {
				chosen = i
			} else {
				ctx.putState(succs[i].state)
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("core: internal: trace replay: recorded successor %d not enabled", st.idx)
		}
		ns := succs[chosen].state
		if hash(ns) != st.key {
			return nil, fmt.Errorf("core: internal: trace replay diverged after %s",
				succs[chosen].label.Format(c.net))
		}
		ns.Zone.Extrapolate(&c.eng.bounds, ctx.rows, ctx.cols)
		steps = append(steps, TraceStep{Label: succs[chosen].label, State: ns})
		cur = ns
	}
	return steps, nil
}

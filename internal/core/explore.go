package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dbm"
	"repro/internal/faultinject"
)

// ErrCanceled reports an exploration stopped early through Options.Cancel.
// The accompanying Stats are the partial effort up to the abort.
var ErrCanceled = errors.New("core: exploration canceled")

// ErrDeadlineExceeded reports an exploration stopped early because
// Options.Deadline passed. The accompanying Stats are the partial effort up
// to the abort.
var ErrDeadlineExceeded = errors.New("core: exploration deadline exceeded")

// abortCheckMask throttles the cancellation/deadline check in the worker
// loop: every (mask+1)-th expansion polls the cancel channel and the clock,
// so an abort lands within a bounded number of expansions while the hot path
// stays branch-cheap when neither is configured.
const abortCheckMask = 31

// This file is the unified exploration engine. Sequential and parallel runs
// share one worker loop (explorer.run), one passed store (store.go), one
// statistics path, and one trace mechanism; they differ only in the frontier
// that schedules waiting states:
//
//   - Workers <= 1: a listFrontier (BFS/DFS/RDFS discipline), executed on
//     the calling goroutine; the store has one unlocked shard. A large
//     breadth-first sweep moves the firing of successors to a lookahead
//     helper goroutine, and keeps everything else — admission included —
//     on the calling one, in the same order ("Lookahead", below).
//   - Workers > 1: a dequeFrontier of Chase–Lev work-stealing deques
//     (wsqueue.go), executed by that many worker goroutines; the store's
//     shards are locked.
//
// # Parallel trace reconstruction
//
// Trace queries used to be pinned to the sequential explorer because only it
// kept an arena of live parent states. The unified engine instead keeps a
// shared trace arena of per-worker append-only parent logs, so every query
// kind honors Options.Workers (Options.parallelism routes them all). When a
// trace can be requested — the query set is non-empty — every admitted state
// gets one 20-byte record (parent ref, discrete key, successor index)
// appended to its admitting worker's log, and the state is stamped with the
// record's ref in State.ref (worker index in the high bits, the record's
// segment and offset in the low bits), which its waiting node carries to the
// expanding worker; the frontier's atomics order the two accesses. Records
// hold three packed integers only — NEVER zone pointers, State pointers, or
// label copies — so state recycling (succCtx.putState) stays sound and the
// zone-ownership protocol of store.go is untouched. Packing a record into 20
// bytes, instead of one 80-byte record struct with a retained label, is what
// makes always-on trace logging cheap enough for the big sweeps; segments
// that grow with the log (logSeg) are what make it cheap for the many small
// sweeps of a design study, a few dozen states each, which log into a few
// hundred bytes rather than a big sweep's block.
//
// When a run stops at a state (visitor match or deadlock), the trace is
// stitched back across the logs: parent refs are followed from the stop
// record to the root, and the path is re-fired from the initial state by
// re-enumerating each parent's successors through the deterministic engine
// and selecting the recorded index, materializing a fresh, caller-owned
// symbolic state (and label) for every step. Replay is exact: enumeration
// order is a pure function of the parent state, each recorded index was
// captured before any RDFS shuffle, and each parent replayed is bit-identical
// to the original — so the stitched trace is the very path the exploration
// took.
//
// Log ownership rule: worker w appends only to logs[w] while the run is
// live; stitch-up happens strictly after the worker barrier (or, for the
// initial state, before workers start). No locks are needed.

const (
	// refWorkerShift packs a parent-log reference as
	// worker<<refWorkerShift | segment<<logSegShift | offset.
	refWorkerShift = 40
	refIndexMask   = 1<<refWorkerShift - 1
	// noRef marks "no record": the parent of the initial state, or any
	// state's ref when parent logging is off.
	noRef int64 = -1
)

// Parent-log segments grow with the log: segment k holds
// 1<<min(logSegFirstShift+k, logSegShift) records — 32, 64, …, 512 for the
// first 992 admissions, 1024 for every later segment. A short log wastes at
// most as many slots as it holds (a 3-state sweep logs into 32 slots, 640
// bytes); a long one fills 1024-record blocks as before, so a big sweep logs
// into the same bytes. No segment is ever copied or moved, and a ref carries
// its (segment, offset) pair, so resolving it is two shifts, a mask and one
// branch whatever the segment sizes.
const (
	logSegFirstShift = 5
	logSegShift      = 10
	logSegSize       = 1 << logSegShift
	logSegMask       = logSegSize - 1
	// logSmallSegs counts the growing segments before the full blocks.
	logSmallSegs = logSegShift - logSegFirstShift
)

// logLink is the parent ref and discrete key of one record.
type logLink struct {
	// parent is the ref of the record the state was fired from; noRef for
	// the initial state.
	parent int64
	// key is the admitted state's discrete key, used as a consistency check
	// during replay.
	key uint64
}

// logSeg is one segment of admission records as parallel slices of one
// length: links and successor indices pack to 20 bytes per record with no
// per-record struct padding or label retention. steps holds the index of the
// fired transition in the parent's deterministic successor enumeration
// (succ.idx).
type logSeg struct {
	links []logLink
	steps []int32
}

// logBlock is the storage of one full segment, reached through an 8-byte
// pointer. The growing segments keep their headers inline in workerLog, and
// each of their slices is an exact allocation size class, so the segments
// before the first block cost less than the one block they replace. A long
// log's directory is one pointer per block, as it always was.
type logBlock struct {
	links [logSegSize]logLink
	steps [logSegSize]int32
}

// workerLog is one worker's append-only record log, grown segment by
// segment.
type workerLog struct {
	cur    logSeg // the segment being filled
	n      int    // records in cur
	segs   int    // segments opened so far
	small  [logSmallSegs]logSeg
	blocks []*logBlock // segments logSmallSegs, logSmallSegs+1, …
}

// open starts the log's next segment.
func (l *workerLog) open() {
	if k := l.segs; k < logSmallSegs {
		size := 1 << (logSegFirstShift + k)
		l.small[k] = logSeg{make([]logLink, size), make([]int32, size)}
		l.cur = l.small[k]
	} else {
		b := new(logBlock)
		l.blocks = append(l.blocks, b)
		l.cur = logSeg{b.links[:], b.steps[:]}
	}
	l.segs++
	l.n = 0
}

// seg returns segment k.
func (l *workerLog) seg(k int) logSeg {
	if k < logSmallSegs {
		return l.small[k]
	}
	b := l.blocks[k-logSmallSegs]
	return logSeg{b.links[:], b.steps[:]}
}

// parentLogs is the shared trace arena: one append-only log per worker.
type parentLogs struct {
	logs perWorker[workerLog]
}

func newParentLogs(workers int) *parentLogs {
	return &parentLogs{logs: make(perWorker[workerLog], workers)}
}

// record appends an admission record to worker w's log and returns its ref.
// Owner only.
func (t *parentLogs) record(w int, parent int64, key uint64, step int32) int64 {
	l := t.logs.at(w)
	if l.n == len(l.cur.steps) {
		l.open()
	}
	i := l.n
	l.cur.links[i] = logLink{parent, key}
	l.cur.steps[i] = step
	l.n = i + 1
	return int64(w)<<refWorkerShift | int64(l.segs-1)<<logSegShift | int64(i)
}

// at resolves a ref. Only sound after the worker barrier.
func (t *parentLogs) at(ref int64) (parent int64, key uint64, step int32) {
	i := ref & refIndexMask
	sg := t.logs.at(int(ref >> refWorkerShift)).seg(int(i >> logSegShift))
	ln := sg.links[i&logSegMask]
	return ln.parent, ln.key, sg.steps[i&logSegMask]
}

// # Frontier
//
// One engine, two frontiers: explorer.run is the single worker loop.
// Workers <= 1 runs it on the calling goroutine over a listFrontier
// (BFS/DFS/RDFS) — a breadth-first sweep past lookaheadAfter expansions with
// its expansions fired ahead on a helper goroutine ("Lookahead"); Workers > 1
// runs it on goroutines over a dequeFrontier of Chase–Lev deques (wsqueue.go)
// with randomized stealing and a pending counter as termination barrier. The
// only shared mutable structures are the passed store, the frontier, the
// parent logs (per-worker ownership), the worker cells and the explorer's
// atomics.
//
// A frontier holds waiting nodes, not States. The node of an admitted state
// references what the store already keeps of it — the entry, whose key is
// its discrete part, packed, and the packed payload of its zone — plus
// the two words the store does not keep, its parent-log ref and its discrete
// key. So a waiting state costs one small fixed-size node whatever the
// dimension and the process count, and it cannot hold a matrix: the store
// owns the only copy of its zone until it is popped. The life of a state:
//
//   - fired: engine.fire materializes a State from the worker's free list
//     (succCtx.getState), owning a pooled matrix with the raw zone;
//   - decided: passedSet.add either subsumes it — the State goes straight
//     back to the free list (succCtx.putState) — or admits it, widening the
//     zone in place and handing back the entry and a payload reference;
//   - visited: the queries see the admitted State with its matrix;
//   - parked: succCtx.park fills a node with entry, payload, ref and key,
//     and recycles the State, its matrix with it; the node is pushed;
//   - popped: succCtx.unpark rebuilds a pooled State from the node — the
//     entry's key decoded, the node's key and ref, the payload decoded into
//     a pooled matrix — the popping worker recycles the node
//     (succCtx.putNode), and passedSet.release gives the payload back;
//   - expanded: its successors are fired, decided, visited and parked, and
//     the State goes back to the free list.
//
// A worker therefore holds at most one expanded State and its fired
// successors at a time — a worker with a lookahead helper one per expansion
// in flight, lookaheadDepth+1 — so a sweep allocates States in proportion to
// its widest expansion, not its widest frontier. Nodes go onto the free
// list of the worker that pops (or steals) them, and a worker carves new
// ones from blocks sized to the run — 2, 4, 8, … up to 256 nodes
// (succCtx.park) — so a sweep allocates nodes in proportion to its widest
// frontier, and a sweep of a few dozen states a block or two.
//
// Visitors run concurrently under Workers > 1 and must not retain a state
// beyond the call: the State they see is recycled as soon as the queries
// have seen it (an admitted one) or it is expanded (a deadlocked one), and
// its matrix with it. FoundState and replayed trace states are exempt: both
// are caller-owned clones (explorer.completeQuery, replayTrace).

// waiting is a node of the frontier: an admitted state between its push and
// its pop.
type waiting struct {
	// entry is the store entry that admitted the state. Its key is the
	// state's discrete part, packed; it never changes once the entry is
	// published, so the popping worker decodes it without holding the
	// entry.
	entry *storeEntry
	// packed references the payload the store packed of the admitted zone —
	// the store's buffer, not a copy — until the popping worker has decoded
	// it and released it (passedSet.release; "Zone ownership" in store.go).
	packed dbm.Compact
	ref    int64  // the state's parent-log ref (State.ref)
	key    uint64 // the state's discrete key (State.key)
}

// frontier schedules waiting nodes between push and expansion. push and
// expanded are called by the worker that admitted/expanded the state; pop
// returns nil when the exploration is over for that worker (no work
// anywhere, or the stop flag is up).
type frontier interface {
	push(w int, n *waiting)
	pop(w int) *waiting
	// expanded signals that a state obtained from pop has been fully
	// expanded (every successor pushed); the parallel frontier counts these
	// against its termination barrier.
	expanded(w int)
}

// listFrontier is the sequential waiting list: FIFO for BFS, LIFO for
// DFS/RDFS (successor shuffling happens in the worker loop). It costs a
// pointer per waiting state, besides the node. The waiting nodes are
// list[head:]; BFS pops by advancing head and the slots before it are
// reused — on empty the list restarts at slot 0, and once head passes half
// the slice the tail is copied down — so one backing array of about twice
// the widest level serves the whole sweep, where a list re-sliced at its
// front would walk an ever-regrown array through every state stored. The
// list holds pointers, not the nodes themselves: with the reused head slots
// and append's doubling, it runs to up to four slots per waiting state,
// which at a node's 48 bytes costs more than the node and one 8-byte slot
// (held by value, the nodes put 11% more on fischer's alloc_mb_per_verdict
// than the States they replaced).
type listFrontier struct {
	order Order
	list  []*waiting
	head  int // BFS only: index of the next node to pop
	stop  *atomic.Bool
}

// listStartCap is the slot count a sequential run's list starts with: about
// what the small sweeps of a design study keep waiting at once, in one
// allocation instead of growing through one, two and four slots.
const listStartCap = 4

func (f *listFrontier) push(_ int, n *waiting) { f.list = append(f.list, n) }

func (f *listFrontier) pop(_ int) *waiting {
	if f.stop.Load() || f.head == len(f.list) {
		return nil
	}
	var n *waiting
	if f.order == BFS {
		n = f.list[f.head]
		f.head++
		switch {
		case f.head == len(f.list):
			f.list, f.head = f.list[:0], 0
		case f.head > len(f.list)/2:
			// At most as many slots move as were popped since the last move.
			f.list, f.head = f.list[:copy(f.list, f.list[f.head:])], 0
		}
	} else {
		n = f.list[len(f.list)-1]
		f.list = f.list[:len(f.list)-1]
	}
	return n
}

func (f *listFrontier) expanded(int) {}

// dequeFrontier is the work-stealing frontier: one Chase–Lev deque per
// worker (LIFO expansion, FIFO steals) and a pending counter as termination
// barrier. pending counts states that are admitted but not yet fully
// expanded; it is incremented before a state becomes stealable and
// decremented only after all of its successors have been pushed, so
// pending == 0 is sound: no work exists and none can appear.
type dequeFrontier struct {
	deques []*wsDeque
	rngs   []*rand.Rand // per-worker victim selection
	// cells are the run's worker cells: worker w counts its successful
	// steals in its own cell (single-writer load+store, never an RMW).
	cells   perWorker[workerCell]
	pending atomic.Int64
	stop    *atomic.Bool
}

// dequeStartCap is the ring size the deques start from; they double on
// overflow, so it only shapes early-run growth churn.
const dequeStartCap = 64

func newDequeFrontier(cells perWorker[workerCell], seed int64, stop *atomic.Bool) *dequeFrontier {
	f := &dequeFrontier{
		deques: make([]*wsDeque, len(cells)),
		rngs:   make([]*rand.Rand, len(cells)),
		cells:  cells,
		stop:   stop,
	}
	for i := range f.deques {
		f.deques[i] = newWSDeque(dequeStartCap)
		f.rngs[i] = rand.New(rand.NewSource(seed ^ (int64(i+1) * 0x9E3779B9)))
	}
	return f
}

func (f *dequeFrontier) push(w int, n *waiting) {
	f.pending.Add(1)
	f.deques[w].push(n)
}

func (f *dequeFrontier) pop(w int) *waiting {
	me := f.deques[w]
	rng := f.rngs[w]
	idleSpins := 0
	for {
		if f.stop.Load() {
			return nil
		}
		n := me.pop()
		for attempt := 0; n == nil && attempt < 2*len(f.deques); attempt++ {
			if v := f.deques[rng.Intn(len(f.deques))]; v != me {
				if n = v.steal(); n != nil {
					c := &f.cells.at(w).steals
					c.Store(c.Load() + 1)
				}
			}
		}
		if n != nil {
			return n
		}
		if f.pending.Load() == 0 {
			return nil
		}
		// Someone still holds work: back off without a lock so the next
		// push is picked up by stealing.
		idleSpins++
		if idleSpins < 8 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Duration(min(idleSpins, 100)) * time.Microsecond)
		}
	}
}

func (f *dequeFrontier) expanded(int) { f.pending.Add(-1) }

// explorer carries the shared mutable state of one exploration run. The only
// shared structures are the passed store, the frontier, the parent logs
// (per-worker ownership), the queries' per-worker accumulators and completion
// atomics, the worker cells — the one place a worker publishes its counts,
// read by Stats, the Monitor, the memory budget and the profile alike — and
// the atomics below.
type explorer struct {
	c       *Checker
	opts    Options
	queries []Query // the attached query set (may be empty: plain sweep)
	passed  passedSet
	front   frontier
	logs    *parentLogs // nil when no trace can be requested
	mon     *monView    // nil when no Monitor is attached
	prof    *profRun    // nil unless the Monitor has profiling enabled

	// cells holds one workerCell per worker. A sequential run's one cell is
	// seqCell, embedded here, so that a plain sweep allocates nothing for it
	// and still takes the one code path.
	cells   perWorker[workerCell]
	seqCell [1]slot[workerCell]

	// slabs is the sweep's slab set: the workers' zone pools and the store's
	// compact pools carve from it, and explore releases it (see there).
	// Nothing caller-visible may alias it: FoundState is a cloneState copy,
	// trace replay runs on a heap ctx (newCtx(nil)) from the heap initial
	// state, and results carry bounds and integers. A new result kind that
	// holds a *State, *dbm.DBM or dbm.Compact must copy before explore
	// returns. The package's tests run with released slabs and recycled
	// payloads poisoned (TestMain in slab_test.go), so an alias reads as
	// garbage in whichever test looks at it.
	slabs dbm.Slabs
	// initScratch is what the initial state is closed and admitted with,
	// before any worker has a succCtx; part of the explorer so that it costs
	// no allocation of its own.
	initScratch closeScratch
	// initNode is the initial state's waiting node, and initState that
	// state once it waits: worker 0 takes its struct and vectors as its
	// first free State. Both are part of the explorer so that they cost no
	// allocation of their own.
	initNode  waiting
	initState *State

	// hasCheck caches "Cancel, Deadline, or MaxBytes configured" so the
	// worker loop pays a single predictable branch when none is.
	hasCheck bool

	stop atomic.Bool
	// live counts queries that have not yet completed; the completion that
	// drops it to zero (completeQuery) short-circuits the sweep. A
	// query-less sweep keeps it at zero and never stops early: the visit
	// path guards on len(queries), and only completeQuery reads the
	// decremented count.
	live      atomic.Int64
	stored    atomic.Int64
	truncated atomic.Bool
	firstErr  atomic.Pointer[error]
}

func (e *explorer) fail(err error) {
	e.firstErr.CompareAndSwap(nil, &err)
	e.stop.Store(true)
}

// abortErr polls the cooperative abort signals: the wall-clock deadline
// first (so a canceled-because-expired context still reports the more
// specific ErrDeadlineExceeded), then the cancel channel. nil means keep
// going.
func (e *explorer) abortErr() error {
	if !e.opts.Deadline.IsZero() && time.Now().After(e.opts.Deadline) {
		return ErrDeadlineExceeded
	}
	if e.opts.Cancel != nil {
		select {
		case <-e.opts.Cancel:
			return ErrCanceled
		default:
		}
	}
	return nil
}

// completeQuery marks q done on state s: the first completer captures a
// caller-owned clone of s plus its parent-log ref, and decrements the live
// count. It reports whether the whole sweep should stop — either this
// completion drained the query set, or another worker already raised the
// stop flag.
func (e *explorer) completeQuery(q Query, s *State) (stopSweep bool) {
	qs := q.state()
	if !qs.done.CompareAndSwap(false, true) {
		return e.stop.Load()
	}
	qs.found.Store(cloneState(s))
	if e.logs != nil {
		qs.ref.Store(s.ref)
	}
	if e.live.Add(-1) == 0 {
		e.stop.Store(true)
		return true
	}
	return e.stop.Load()
}

// visitAdmitted feeds one newly admitted state to every live query; it
// reports whether the sweep is over (all queries completed).
func (e *explorer) visitAdmitted(w int, s *State) (stopSweep bool) {
	for _, q := range e.queries {
		if q.state().done.Load() {
			continue
		}
		if q.visit(w, s) && e.completeQuery(q, s) {
			return true
		}
	}
	return false
}

// runContained executes one worker with panic containment: a crash anywhere
// in the worker loop — engine bug, panicking visitor predicate, injected
// fault — becomes a per-run *PanicError through the same failure path as
// cancellation instead of killing the process. Containment honors the
// zone/pool ownership protocol by doing nothing: the panicked worker simply
// abandons its succCtx (scratch zone, pool, state free list) to the garbage
// collector along with the rest of the run's pools, so a possibly-corrupt
// state is never recycled — only the raw slab bytes underneath are, after
// the barrier, by explore — and the other workers drain promptly through the
// stop flag that fail raises. The deferred publish inside run still lands
// during unwinding, so partial Stats stay accurate.
func (e *explorer) runContained(w int) {
	defer func() {
		if r := recover(); r != nil {
			e.fail(&PanicError{Worker: w, Value: r, Stack: debug.Stack()})
		}
	}()
	e.run(w)
}

// run is the worker loop, identical for both frontiers: take the next
// expanded state — pop a node, rebuild its state and fire its successors,
// inline or, once it engages, on the lookahead helper — then admit the
// successors, feed the query set, park what was admitted and recycle the
// expanded state. Statistics accumulate in locals, published into the
// worker's cell at each checkpoint and once more on exit.
//
// Cooperative abort: Options.Cancel and Options.Deadline are polled here
// every abortCheckMask+1 expansions, strictly between expansions. A worker
// never aborts while it holds a popped state mid-fire, so every state is
// either recycled through its succCtx or abandoned with the run's pools, and
// a canceled sweep leaves the checker reusable
// (TestCancelLeavesEngineReusable). Aborts surface as ErrCanceled or
// ErrDeadlineExceeded with partial Stats; the deadline wins when both fired.
// A run explore refuses before it starts (Cancel already closed, Deadline
// already past) does not mark its queries used.
func (e *explorer) run(w int) {
	ctx := e.c.eng.newCtx(&e.slabs)
	// Parent-log records hold successor indices, not labels, so the worker
	// loop never needs stable label copies — replay rebuilds them on demand.
	ctx.keepLabels = false
	if w == 0 && e.initState != nil {
		// Its matrix is a heap one, not a pool's: it goes to the collector.
		e.initState.Zone = nil
		ctx.states = append(ctx.states, e.initState)
	}
	var shuffle *rand.Rand
	if e.opts.Order == RDFS {
		// Worker 0 reproduces the sequential RDFS stream for a given seed.
		shuffle = rand.New(rand.NewSource(e.opts.Seed ^ (int64(w) * 0x9E3779B97F4A7C)))
	}
	var succs []succ
	var nPopped, nTransitions, nDeadlocks int64
	cell := e.cells.at(w)
	zoneBytes := dbm.ZoneBytes(e.c.eng.dim)
	// ahead is the lookahead helper once it has engaged, after aheadFrom
	// expansions, and nil while expansions run inline; its pool counts are
	// the worker's too.
	var ahead *lookahead
	aheadFrom := e.opts.lookaheadFrom()
	poolStats := func() (gets, reuses int) {
		gets, reuses = ctx.pool.Stats()
		if ahead != nil {
			gets, reuses = gets+ahead.own.v.gets, reuses+ahead.own.v.reuses
		}
		return gets, reuses
	}
	publish := func() {
		gets, reuses := poolStats()
		cell.publish(nPopped, nTransitions, nDeadlocks, int64(gets-reuses)*zoneBytes)
	}
	// The exit publish makes the cell exact however the worker leaves:
	// drained, stopped, aborted, failed, or unwinding from a panic. Before
	// it, the helper is stopped and waited for: explore releases the slabs
	// its expansions carve from once run has returned.
	defer publish()
	defer func() {
		if ahead != nil {
			ahead.stop()
		}
	}()
	for {
		if nPopped&abortCheckMask == 0 {
			// The between-expansions checkpoint: four single-writer stores
			// into this worker's own cell, then the abort and budget checks
			// when any is configured.
			publish()
			if e.hasCheck {
				if err := e.abortErr(); err != nil {
					e.fail(err)
					return
				}
				// The passed store adds its actual packed footprint.
				if e.opts.MaxBytes > 0 && sumCells(e.cells).zoneBytes+e.passed.bytes() > e.opts.MaxBytes {
					e.fail(ErrMemoryBudget)
					return
				}
			}
		}
		if e.prof != nil && nPopped&e.prof.mask == 0 {
			// Sweep-profile sampling: every (mask+1)-th expansion the worker
			// appends one point to its own cell's ring — loop locals, the
			// run's cells, and a few shared atomics. The disabled path is the
			// nil check alone, and only this branch grows a ring, so an
			// unprofiled sweep provably gains zero allocations.
			gets, reuses := poolStats()
			e.sampleProfile(w, nPopped, nTransitions, gets, reuses)
		}
		if nPopped == aheadFrom {
			ahead = e.startLookahead(ctx)
		}
		var node *waiting
		var s *State
		var payload dbm.Compact
		var err error
		if ahead != nil {
			node, s, payload, succs, err = ahead.next(e.front, ctx)
		} else if node = e.front.pop(w); node != nil {
			s, payload, succs, err = e.expand(ctx, node, succs[:0])
		}
		if node == nil {
			return
		}
		ctx.putNode(node)
		nPopped++
		e.passed.release(s, payload)
		if err != nil {
			e.fail(err)
			return
		}
		if len(succs) == 0 {
			nDeadlocks++
			for _, q := range e.queries {
				if q.state().done.Load() {
					continue
				}
				if q.onDeadlock(w, s) && e.completeQuery(q, s) {
					return
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
				// Subsumed: the state is discarded and nothing else
				// references it, so it is recycled wholesale.
				ctx.putState(sc.state)
				continue
			}
			n := e.stored.Add(1)
			if e.logs != nil {
				sc.state.ref = e.logs.record(w, s.ref, sc.state.discreteKey(), sc.idx)
			}
			if len(e.queries) > 0 && e.visitAdmitted(w, sc.state) {
				return
			}
			// The hard state budget is checked at admission — the point the
			// count is already in hand — and fails the run; the soft MaxStates
			// below merely truncates it.
			if e.opts.StateBudget > 0 && n > int64(e.opts.StateBudget) {
				e.fail(ErrStateBudget)
				return
			}
			if e.opts.MaxStates > 0 && n >= int64(e.opts.MaxStates) {
				e.truncated.Store(true)
				e.stop.Store(true)
				return
			}
			// The queries have seen the state; it waits as a node.
			e.front.push(w, ctx.park(sc.state, entry, payload))
		}
		e.front.expanded(w)
		// s is fully expanded and nothing admitted references it, so recycle
		// it wholesale.
		ctx.putState(s)
	}
}

// expand rebuilds the state a popped node waited as and fires its
// successors into out. It is the part of an expansion that is a pure
// function of the node — it reads the node, its entry's key and its payload,
// and writes only ctx — so the lookahead helper can run it ahead of the
// worker that admits. The payload is the worker's to release, the error its
// to fail the run with; a state whose expansion failed has been rebuilt.
func (e *explorer) expand(ctx *succCtx, n *waiting, out []succ) (*State, dbm.Compact, []succ, error) {
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
// A sequential breadth-first sweep splits its worker loop over two
// goroutines once it has expanded lookaheadAfter states, when
// GOMAXPROCS allows two to run. The calling goroutine keeps everything that
// reads or writes shared run state, in the order of an inline run: the
// frontier, the store's add and release, the parent logs, the query visits,
// the worker cell and the abort and budget checks. A helper goroutine runs
// expand, the part of an expansion that is a pure function of the popped
// node. FIFO pushes go to the tail of the list, so the caller may pop up to
// lookaheadDepth nodes beyond the one it admits and hand them to the helper;
// their expansions come back in pop order, and every admission, prune,
// visit, log record and count happens exactly as it would inline. DFS and
// RDFS never engage it: under LIFO order the next pop depends on the
// current expansion's pushes.
//
// The two meet in a ring of lookaheadDepth+1 slots, one per expansion in
// flight — the one the caller admits among them — indexed by two counters,
// sent (written by the caller) and done (written by the helper). A slot
// carries a node in, and its rebuilt state, payload and fired successors
// back. Neither side blocks: a caller ahead of the helper, or a helper with
// nothing to expand, yields. States go back to the ctx that allocated them:
// the caller's ctx is lent (succCtx.lent), collects the States it frees, and
// passes the batch with the next node it hands over, and the helper recycles
// it before that node's expansion; the nodes the helper has read go onto the
// caller's free list. The helper reads a payload before the caller releases
// it, and writes none: a prune the caller makes meanwhile changes only the
// holder mark, which decoding does not read.
//
// The helper's pool counts, as of the last expansion the caller has taken,
// join the caller's in its cell. A helper panic comes back in its slot and
// fails the run when the caller takes it, where an inline run would have
// panicked. The caller stops the helper and waits for it to exit before run
// returns, however it returns.

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

// lookaheadFrom returns after how many expansions a run's worker engages
// the lookahead helper, or -1 for never.
func (o Options) lookaheadFrom() int64 {
	if _, parallel := o.parallelism(); parallel || o.Order != BFS || o.lookahead == lookaheadOff {
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
	node *waiting // in: the popped node
	back []*State // in: States to recycle into the helper's ctx first
	// out: what expand returned, the helper's pool counts after it, and a
	// helper panic.
	s            *State
	payload      dbm.Compact
	succs        []succ
	err          error
	gets, reuses int
	crash        *PanicError
}

// lookahead is the helper of one run's worker. Each side polls the counter
// the other writes, so the two counters, and the caller's own tally, sit in
// slots of a cache line each (perworker.go).
type lookahead struct {
	slots  [lookaheadDepth + 1]expansion
	e      *explorer
	ctx    *succCtx // the helper's own
	quit   atomic.Bool
	exited chan struct{}
	// sent counts the slots the caller has handed over, done those the
	// helper has expanded.
	sent, done slot[atomic.Int64]
	own        slot[aheadTally]
}

// aheadTally is the caller's own: the slots it has taken, and the helper's
// pool counts as of the last one.
type aheadTally struct {
	taken        int64
	gets, reuses int
}

// startLookahead starts the helper for the worker whose ctx is ctx, between
// two of its expansions.
func (e *explorer) startLookahead(ctx *succCtx) *lookahead {
	la := &lookahead{e: e, ctx: e.c.eng.newCtx(&e.slabs), exited: make(chan struct{})}
	la.ctx.keepLabels = false
	ctx.lent = true
	go la.serve()
	return la
}

// next hands the helper every node the frontier has, up to the ring's
// capacity, and returns the oldest expansion in flight: its node and what
// expand returned for it. A nil node means the frontier is empty with
// nothing in flight, or the helper crashed, which has failed the run.
func (la *lookahead) next(front frontier, ctx *succCtx) (*waiting, *State, dbm.Compact, []succ, error) {
	ring := int64(len(la.slots))
	own := &la.own.v
	sent := la.sent.v.Load()
	for ; sent-own.taken < ring; sent++ {
		n := front.pop(0)
		if n == nil {
			break
		}
		x := &la.slots[sent%ring]
		x.node = n
		x.back, ctx.back = ctx.back, x.back
		la.sent.v.Store(sent + 1)
	}
	if own.taken == sent {
		return nil, nil, nil, nil, nil
	}
	for la.done.v.Load() <= own.taken {
		runtime.Gosched()
	}
	x := &la.slots[own.taken%ring]
	own.taken++
	if x.crash != nil {
		la.e.fail(x.crash)
		return nil, nil, nil, nil, nil
	}
	own.gets, own.reuses = x.gets, x.reuses
	return x.node, x.s, x.payload, x.succs, x.err
}

// serve is the helper goroutine: expand each slot the caller hands over, in
// order, until told to quit or crashed.
func (la *lookahead) serve() {
	defer close(la.exited)
	ring := int64(len(la.slots))
	for i := int64(0); ; i++ {
		for la.sent.v.Load() <= i {
			if la.quit.Load() {
				return
			}
			runtime.Gosched()
		}
		if la.quit.Load() {
			return
		}
		crashed := la.expand(&la.slots[i%ring])
		la.done.v.Store(i + 1)
		if crashed {
			return
		}
	}
}

// expand recycles a slot's batch of States and expands its node, containing
// a panic in the slot: the helper's ctx is then abandoned with the run's
// pools, as a crashed worker's is (runContained).
func (la *lookahead) expand(x *expansion) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			x.crash = &PanicError{Worker: 0, Value: r, Stack: debug.Stack()}
			crashed = true
		}
	}()
	for i, s := range x.back {
		la.ctx.putState(s)
		x.back[i] = nil
	}
	x.back = x.back[:0]
	x.s, x.payload, x.succs, x.err = la.e.expand(la.ctx, x.node, x.succs[:0])
	x.gets, x.reuses = la.ctx.pool.Stats()
	return false
}

// stop tells the helper to quit and waits until it has.
func (la *lookahead) stop() {
	la.quit.Store(true)
	<-la.exited
}

// explore runs the unified engine over one query set (possibly empty: a
// plain sweep). Every query attaches per-worker reduction state to the
// single run; queries complete independently and the sweep short-circuits
// when the last one does. Workers and the frontier kind come from
// opts.parallelism().
func (c *Checker) explore(opts Options, queries []Query) (ExploreResult, error) {
	start := time.Now()
	workers, parallel := opts.parallelism()
	var res ExploreResult
	e := &explorer{c: c, opts: opts, queries: queries, initScratch: c.eng.newCloseScratch()}
	e.cells = e.seqCell[:]
	if parallel {
		e.cells = make(perWorker[workerCell], workers)
	}
	init, err := c.eng.initial(&e.initScratch)
	if err != nil {
		return res, err
	}
	// The sweep's slabs go back to the process-wide cache once per run, on
	// every way out of this function: strictly after the worker barrier and
	// after every Query.finish and replayTrace below, when the frontier's
	// nodes, the store's payloads and the workers' pools are referenced by
	// nothing that survives the return (see "Zone ownership" in store.go).
	// Canceled, budget-failed and panic-contained runs release too: a slab is
	// raw bytes, and whoever carves it next initializes what it carves. The
	// order is load-bearing: a goroutine still touching carved memory after
	// this point does not read garbage, it faults once the next release has
	// unmapped the slab.
	defer e.slabs.Release()
	hasAbort := opts.Cancel != nil || !opts.Deadline.IsZero()
	e.hasCheck = hasAbort || opts.MaxBytes > 0
	if hasAbort {
		// Refuse to start an already-aborted run: a closed Cancel channel or
		// an expired Deadline returns immediately with zero Stats, before any
		// query is marked used.
		if aerr := e.abortErr(); aerr != nil {
			res.Duration = time.Since(start)
			return res, aerr
		}
	}
	e.live.Store(int64(len(queries)))
	for _, q := range queries {
		qs := q.state()
		qs.used = true
		qs.init()
		q.prepare(workers)
	}
	// Parent logs exist exactly when a trace can be requested: every query
	// kind may complete with a witness, a query-less sweep has none.
	if len(queries) > 0 {
		e.logs = newParentLogs(workers)
	}

	// Test hook: a caller-supplied passed set replaces the store, so the
	// compact store can be differentially checked against a reference
	// (store_oracle_test.go).
	e.passed = opts.passed
	if e.passed == nil {
		shards := 1
		if parallel {
			shards = parallelShards
		}
		e.passed = newStore(shards, &e.slabs, &c.eng.bounds, &c.eng.keys)
	}
	entry, payload := e.passed.add(init, &e.initScratch)
	e.stored.Store(1)
	init.ref = noRef
	if e.logs != nil {
		init.ref = e.logs.record(0, noRef, init.discreteKey(), 0)
	}

	// The initial state is admitted like any other; if it already completes
	// the whole query set, the sweep is skipped. The visit runs contained
	// like the workers' — it executes the same caller-supplied predicates,
	// and a crash here must fail the run, not the process.
	drained := false
	if len(queries) > 0 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					e.fail(&PanicError{Worker: 0, Value: r, Stack: debug.Stack()})
				}
			}()
			drained = e.visitAdmitted(0, init)
		}()
	}
	if !drained {
		if parallel {
			e.front = newDequeFrontier(e.cells, opts.Seed, &e.stop)
		} else {
			e.front = &listFrontier{order: opts.Order, list: make([]*waiting, 0, listStartCap), stop: &e.stop}
		}
		// init waits like any admitted state, as a node, and its State goes
		// to worker 0's free list.
		e.initNode = waiting{entry: entry, packed: payload, ref: init.ref, key: init.discreteKey()}
		e.front.push(0, &e.initNode)
		e.initState = init
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
	if !drained {
		if parallel {
			var wg sync.WaitGroup
			wg.Add(workers)
			for i := 0; i < workers; i++ {
				go func(id int) {
					defer wg.Done()
					e.runContained(id)
				}(i)
			}
			wg.Wait()
		} else {
			e.runContained(0)
		}
	}
	endExplore()
	if e.mon != nil {
		// Workers are done and their exit publishes have landed in the
		// cells; later Snapshots read those exact totals.
		e.mon.setDone()
	}

	res.Duration = time.Since(start)
	res.Stored = int(e.stored.Load())
	res.Live = e.passed.size()
	t := sumCells(e.cells)
	res.Popped = int(t.popped)
	res.Transitions = int(t.transitions)
	res.Deadlocks = int(t.deadlocks)
	res.Truncated = e.truncated.Load()
	if ep := e.firstErr.Load(); ep != nil {
		// Finish the queries anyway so partial reductions remain readable,
		// but the run error wins.
		for _, q := range queries {
			_ = q.finish(c, e.logs, res.Stats)
		}
		return res, *ep
	}
	if opts.Monitor != nil && e.logs != nil {
		// The trace-replay phase covers everything after the sweep that may
		// re-fire transitions: each query's finish (reduction merge +
		// completion-trace replay).
		defer opts.Monitor.BeginPhase("trace-replay")()
	}
	// Merge per-worker reductions and replay completion traces strictly
	// after the worker barrier.
	for _, q := range queries {
		if err := q.finish(c, e.logs, res.Stats); err != nil {
			return res, err
		}
	}
	return res, nil
}

// replayTrace stitches the path to ref back across the per-worker parent
// logs and re-fires it from the initial state: each step re-enumerates the
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
	if cur.discreteKey() != chain[0].key {
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
		if ns.discreteKey() != st.key {
			return nil, fmt.Errorf("core: internal: trace replay diverged after %s",
				succs[chosen].label.Format(c.net))
		}
		ns.Zone.Extrapolate(&c.eng.bounds, ctx.rows, ctx.cols)
		steps = append(steps, TraceStep{Label: succs[chosen].label, State: ns})
		cur = ns
	}
	return steps, nil
}

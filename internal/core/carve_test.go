package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// The tests in this file pin where a sweep's bookkeeping lives: store
// entries with their keys, the bucket index, record segments, frontier
// blocks and the parent log with its list of blocks are carved from the
// run's slab set ("Where the bytes come from" in store.go), point only into
// that set, and cost the collector nothing.

// carveProbe is a never-completing reach query that captures the run's
// explorer from its predicate — through the Monitor, while the run is live —
// and walks the run's frontier there, and its store, frontier and parent log
// in finish, after the loop has returned and before explore releases the
// run's slabs.
type carveProbe struct {
	*ReachQuery
	t    *testing.T
	mon  *Monitor
	run  *explorer
	seen int // waiting nodes checked while the run was live
	// entries, segs, recs, heads, fronts and blocks count what the walk
	// found.
	entries, segs, recs, heads, fronts, blocks int
}

// holds reports an error unless ptr is the run's carved memory.
func (p *carveProbe) holds(what string, ptr unsafe.Pointer) {
	p.t.Helper()
	if !p.run.slabs.Holds(ptr) {
		p.t.Errorf("%s at %p is not the run's carved memory", what, ptr)
	}
}

// frontBlocks returns the blocks of a breadth-first frontier, head to tail,
// then its free ones, and calls node on every node waiting in them.
func frontBlocks(f *frontier, node func(*waiting)) []*frontBlock {
	var out []*frontBlock
	for b, i := f.head, f.hi; b != nil; b, i = b.link, 0 {
		out = append(out, b)
		end := len(b.nodes)
		if b == f.tail {
			end = f.ti
		}
		for ; i < end; i++ {
			node(&b.nodes[i])
		}
		if b == f.tail {
			break
		}
	}
	for b := f.free; b != nil; b = b.link {
		out = append(out, b)
	}
	return out
}

func newCarveProbe(t *testing.T) *carveProbe {
	p := &carveProbe{t: t, mon: &Monitor{}}
	p.ReachQuery = NewReachQuery(func(*State) bool {
		// The initial state is visited before the Monitor attaches.
		if v := p.mon.v.Load(); p.run == nil && v != nil {
			p.run = v.e.Load()
		}
		if p.run == nil {
			return false
		}
		// The predicate runs on the admitting goroutine, which owns the
		// frontier: its blocks, and the entries and payloads its nodes point
		// at, are the run's.
		for _, b := range frontBlocks(&p.run.front, func(n *waiting) {
			p.holds("waiting node's entry", unsafe.Pointer(n.entry))
			p.holds("waiting node's payload", unsafe.Pointer(unsafe.SliceData(n.packed)))
			p.seen++
		}) {
			p.holds("frontier block", unsafe.Pointer(b))
		}
		return false
	})
	return p
}

func (p *carveProbe) finish(c *Checker, logs *parentLogs, stats Stats) error {
	t := p.t
	rec := func(r *zoneRec, live bool) {
		t.Helper()
		if !live {
			if r.z != nil {
				t.Error("a record slot past the live ones holds a payload")
			}
			return
		}
		p.holds("payload", unsafe.Pointer(unsafe.SliceData(r.z)))
		p.recs++
	}
	st := p.run.passed.(*store)
	p.holds("index directory", unsafe.Pointer(unsafe.SliceData(st.index.dir)))
	for _, heads := range st.index.dir {
		p.heads++
		p.holds("head block", unsafe.Pointer(heads))
	}
	for _, e := range entriesOf(st) {
		p.entries++
		p.holds("entry", unsafe.Pointer(e))
		key := e.key(st.keys.words)
		p.holds("key", unsafe.Pointer(&key[len(key)-1]))
		rec(&e.first[0], e.n > 0)
		slot := 1
		for seg := e.more; seg != nil; seg = seg.next {
			p.segs++
			p.holds("segment", unsafe.Pointer(seg))
			p.holds("record slots", unsafe.Pointer(unsafe.SliceData(seg.recs)))
			for i := range seg.recs {
				rec(&seg.recs[i], slot < int(e.n))
				slot++
			}
		}
	}
	for _, b := range frontBlocks(&p.run.front, func(*waiting) {}) {
		p.fronts++
		p.holds("frontier block", unsafe.Pointer(b))
	}
	p.holds("log directory", unsafe.Pointer(unsafe.SliceData(logs.blocks)))
	for _, b := range logs.blocks {
		p.blocks++
		p.holds("log block", unsafe.Pointer(b))
	}
	return p.ReachQuery.finish(c, logs, stats)
}

// TestCarvedStorePointsIntoItsSlabs walks a finished sweep's store before its
// release: every entry with its key, index block, record segment, payload,
// frontier block, log block and the log's list of blocks must be the sweep's
// own carved memory — the
// rule that makes it safe for the collector not to see them — and so must
// every entry and payload a waiting node points at while the sweep runs.
func TestCarvedStorePointsIntoItsSlabs(t *testing.T) {
	grid, _, _, _ := buildGrid(t)
	c, err := NewChecker(grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range lookaheadModes {
		p := newCarveProbe(t)
		stats, err := c.RunQueries(Options{Monitor: p.mon, lookahead: mode}, p)
		if err != nil {
			t.Fatal(err)
		}
		if p.entries == 0 || p.segs == 0 || p.heads == 0 || p.fronts == 0 || p.blocks == 0 || p.seen == 0 {
			t.Fatalf("lookahead mode %d: walked %d entries, %d segments, %d head blocks, %d frontier blocks, %d log blocks, %d nodes; want each > 0",
				mode, p.entries, p.segs, p.heads, p.fronts, p.blocks, p.seen)
		}
		if p.recs != stats.Live {
			t.Errorf("lookahead mode %d: walked %d live records, the store holds %d", mode, p.recs, stats.Live)
		}
	}
}

// TestOversizedPayloadSurvivesCollection feeds a store a payload larger than a
// slab piece — a 70-clock zone at the 64-bit width, which the slab set takes
// from the heap — and drops every reference to it but its record, which lives
// in carved memory the collector does not scan. The set must keep it alive
// until its release: after a collection, and allocations that would reuse
// its memory, it still decodes to the zone admitted.
func TestOversizedPayloadSurvivesCollection(t *testing.T) {
	const clocks, far = 70, 1 << 40
	ceil := make([]int64, clocks+1)
	for i := range ceil {
		ceil[i] = 2 * far
	}
	bounds := dbm.NewExtraM(ceil)
	var slabs dbm.Slabs
	defer slabs.Release()
	st := newStore(&slabs, &bounds, &testKeys)

	z := dbm.New(clocks + 1)
	z.Up()
	for i := 1; i <= clocks; i++ {
		z.Constrain(i, 0, dbm.LE(far+int64(i)))
	}
	want := z.Copy()
	s := &State{Locs: []ta.LocID{7}, Vars: []int64{-3}, Zone: z}
	sc := &closeScratch{rows: dbm.NewTouched(clocks + 1), cols: dbm.NewTouched(clocks + 1)}
	e, payload := st.add(s, sc)
	if e == nil {
		t.Fatal("the first state was subsumed")
	}
	if n := len(payload); payload.Width() != 8 || n <= 32<<10 {
		t.Fatalf("payload is %d bytes at width %d, want more than 32 KiB at 8", n, payload.Width())
	}
	st.release(s, payload)
	payload, s = nil, nil
	for round := 0; round < 3; round++ {
		runtime.GC()
		junk := make([][]byte, 16)
		for i := range junk {
			junk[i] = make([]byte, 48<<10)
			for j := range junk[i] {
				junk[i][j] = 0xA5
			}
		}
		runtime.KeepAlive(junk)
	}
	got := dbm.New(clocks + 1)
	r := &e.first[0]
	if e.n != 1 || r.z.Dim() != clocks+1 || r.z.Width() != 8 {
		t.Fatalf("the record reads %d zones, a %d-clock payload at width %d", e.n, r.z.Dim()-1, r.z.Width())
	}
	r.z.DecodeInto(got)
	if !got.Eq(want) {
		t.Error("the oversized payload changed after a collection: its record alone did not keep it")
	}
}

// TestSmallSweepBookkeepingAllocatesNothing admits, logs and parks the three
// states of a small sweep into a store, a parent log and a frontier carved
// from one slab set, and requires that entries, keys, index, records,
// payloads, log blocks and waiting nodes cost no heap allocation at all. The
// set's first slab is taken before.
func TestSmallSweepBookkeepingAllocatesNothing(t *testing.T) {
	c, err := NewChecker(buildChain(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := c.eng.newCtx(nil)
	init, err := c.eng.initial(&ctx.closeScratch)
	if err != nil {
		t.Fatal(err)
	}
	chain := []*State{init}
	for len(chain) < 3 {
		succs, err := c.eng.successors(ctx, chain[len(chain)-1], nil)
		if err != nil || len(succs) != 1 {
			t.Fatalf("chain state %d has %d successors (%v), want 1", len(chain), len(succs), err)
		}
		chain = append(chain, succs[0].state)
	}

	const runs = 10
	var slabs dbm.Slabs
	defer slabs.Release()
	dbm.Carve[uint64](&slabs)
	type sweep struct {
		st     *store
		logs   *parentLogs
		front  *frontier
		states []*State
	}
	sweeps := make([]sweep, runs+1) // AllocsPerRun calls once more to warm up
	for i := range sweeps {
		sw := sweep{st: newStore(&slabs, &c.eng.bounds, &c.eng.keys), logs: &parentLogs{slabs: &slabs},
			front: &frontier{order: BFS, slabs: &slabs}}
		for _, s := range chain {
			sw.states = append(sw.states, cloneState(s))
		}
		sweeps[i] = sw
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		sw := sweeps[next]
		next++
		ref := noRef
		for i, s := range sw.states {
			e, payload := sw.st.add(s, &ctx.closeScratch)
			if e == nil {
				t.Fatalf("chain state %d was subsumed", i)
			}
			ref = sw.logs.record(ref, e.hash, 0)
			*sw.front.push() = waiting{entry: e, packed: payload, ref: ref}
		}
	})
	if allocs != 0 {
		t.Errorf("a 3-state sweep's bookkeeping made %.1f heap allocations, want 0", allocs)
	}
	if got := sweeps[runs].st.size(); got != len(chain) {
		t.Errorf("the last store holds %d zones, want %d", got, len(chain))
	}
}

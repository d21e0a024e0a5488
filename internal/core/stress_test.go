package core

import (
	"sync"
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// TestPStoreConcurrentSubsumingAdds hammers one discrete state with chains
// of mutually-subsuming zones from many goroutines (one, for the unlocked
// single-shard store, whose contract is a single worker). Whatever the
// interleaving, the maximal zone of every chain must survive and the stored
// zones must end up pairwise incomparable — concurrent pruning must never
// lose a maximal zone. Run with -race.
func TestPStoreConcurrentSubsumingAdds(t *testing.T) {
	const (
		chains = 4  // incomparable families (distinct lower bounds)
		depth  = 32 // subsuming zones per family (growing upper bounds)
	)
	locs := []ta.LocID{0}
	vars := []int64{0}

	mkZone := func(chain, step int) *dbm.DBM {
		// Family `chain` pins x1 >= 100*chain (incomparable across
		// families); within a family the upper bound grows with step, so
		// later zones strictly include earlier ones.
		z := dbm.Universe(2)
		z.Constrain(0, 1, dbm.LE(int64(-100*chain)))
		z.Constrain(1, 0, dbm.LE(int64(100*chain+step)))
		return z
	}

	for _, shape := range []struct{ shards, workers int }{{1, 1}, {4, 8}, {64, 8}} {
		st := testStore(shape.shards)
		var wg sync.WaitGroup
		wg.Add(shape.workers)
		for w := 0; w < shape.workers; w++ {
			go func(w int) {
				defer wg.Done()
				for c := 0; c < chains; c++ {
					for s := 0; s <= depth; s++ {
						// Interleave chain walk directions per worker so
						// subsuming pairs actually race.
						step := s
						if w%2 == 1 {
							step = depth - s
						}
						// Half the workers pop what they admit, so releases
						// race the prunes that orphan their payloads; the
						// other half's states wait forever.
						s := &State{Locs: locs, Vars: vars, Zone: mkZone(c, step)}
						if c := admit(st, s); c != nil && w%4 < 2 {
							c.DecodeInto(s.Zone)
							st.release(s, c)
						}
					}
				}
			}(w)
		}
		wg.Wait()

		// Collect the surviving zones for the single discrete entry, decoding
		// the packed form back into full DBMs for the inclusion checks.
		var zones []*dbm.DBM
		for _, sh := range storeParts(st) {
			for _, e := range entriesOf(sh.buckets) {
				for _, z := range e.liveZones() {
					zones = append(zones, z.Decode())
				}
			}
		}
		checkStoreLayout(t, st)
		if len(zones) != chains {
			t.Errorf("%+v: stored %d zones, want %d (one maximal zone per chain)", shape, len(zones), chains)
		}
		if st.size() != len(zones) {
			t.Errorf("%+v: size() = %d, but %d zones stored", shape, st.size(), len(zones))
		}
		// Every chain's maximal zone must be covered by some stored zone.
		for c := 0; c < chains; c++ {
			max := mkZone(c, depth)
			covered := false
			for _, z := range zones {
				if max.SubsetEq(z) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("%+v: maximal zone of chain %d lost", shape, c)
			}
		}
		// Stored zones must be pairwise incomparable (no zombie subsumed zones).
		for i := range zones {
			for j := range zones {
				if i != j && zones[i].SubsetEq(zones[j]) {
					t.Errorf("%+v: stored zone %d is subsumed by stored zone %d", shape, i, j)
				}
			}
		}
	}
}

// TestExploreParallelStressMatchesSequential runs the unified engine's
// work-stealing frontier repeatedly with many workers against the
// sequential oracle. Run with -race to exercise the deque and termination
// barrier.
func TestExploreParallelStressMatchesSequential(t *testing.T) {
	n, sx, srv, busy := buildGrid(t)
	_ = srv
	atBusy := func(s *State) bool { return s.Locs[3] == busy }
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.Explore(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seqSupQ := NewSupClockQuery(sx.ID, atBusy)
	if _, err := c.RunQueries(Options{}, seqSupQ); err != nil {
		t.Fatal(err)
	}
	seqSup := seqSupQ.Result
	rounds := 8
	if testing.Short() {
		rounds = 2
	}
	for r := 0; r < rounds; r++ {
		for _, workers := range []int{2, 4, 8} {
			par, err := c.Explore(Options{Seed: int64(r), Workers: workers}, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Racy double-admission may store a state twice, never fewer.
			if par.Stored < seq.Stored {
				t.Errorf("round %d workers %d: parallel stored %d < sequential %d",
					r, workers, par.Stored, seq.Stored)
			}
			supQ := NewSupClockQuery(sx.ID, atBusy)
			if _, err := c.RunQueries(Options{Seed: int64(r), Workers: workers}, supQ); err != nil {
				t.Fatal(err)
			}
			sup := supQ.Result
			if sup.Max != seqSup.Max || sup.Seen != seqSup.Seen || sup.Unbounded != seqSup.Unbounded {
				t.Errorf("round %d workers %d: parallel sup %v/%v/%v != sequential %v/%v/%v",
					r, workers, sup.Max, sup.Seen, sup.Unbounded,
					seqSup.Max, seqSup.Seen, seqSup.Unbounded)
			}
		}
	}
}

// TestWSDequeSequential checks the owner-side LIFO and thief-side FIFO
// disciplines, including ring growth past the initial capacity.
func TestWSDequeSequential(t *testing.T) {
	d := newWSDeque(64)
	nodes := make([]*waiting, 200) // > initial ring capacity, forces grow
	for i := range nodes {
		nodes[i] = &waiting{key: uint64(i)}
		d.push(nodes[i])
	}
	if got := d.steal(); got != nodes[0] {
		t.Errorf("steal returned node %d, want oldest node 0", got.key)
	}
	if got := d.pop(); got != nodes[len(nodes)-1] {
		t.Errorf("pop returned node %d, want newest node", got.key)
	}
	seen := 0
	for d.pop() != nil {
		seen++
	}
	if seen != len(nodes)-2 {
		t.Errorf("drained %d nodes, want %d", seen, len(nodes)-2)
	}
	if d.pop() != nil || d.steal() != nil {
		t.Error("empty deque must return nil")
	}
}

// TestWSDequeConcurrentStealers pushes from the owner while thieves drain
// concurrently; every pushed node must be consumed exactly once.
func TestWSDequeConcurrentStealers(t *testing.T) {
	const total = 20000
	const thieves = 4
	d := newWSDeque(64)
	var mu sync.Mutex
	seen := make(map[uint64]int, total)
	record := func(n *waiting) {
		mu.Lock()
		seen[n.key]++
		mu.Unlock()
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if n := d.steal(); n != nil {
					record(n)
					continue
				}
				select {
				case <-done:
					// Final drain after the owner stopped.
					for {
						n := d.steal()
						if n == nil {
							return
						}
						record(n)
					}
				default:
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		d.push(&waiting{key: uint64(i)})
		if i%3 == 0 {
			if n := d.pop(); n != nil {
				record(n)
			}
		}
	}
	for {
		n := d.pop()
		if n == nil {
			break
		}
		record(n)
	}
	close(done)
	wg.Wait()
	for i := uint64(0); i < total; i++ {
		switch seen[i] {
		case 1:
		case 0:
			t.Fatalf("node %d lost", i)
		default:
			t.Fatalf("node %d consumed %d times", i, seen[i])
		}
	}
	if len(seen) != total {
		t.Fatalf("consumed %d distinct nodes, want %d", len(seen), total)
	}
}

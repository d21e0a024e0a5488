package core

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// checkSlotsApart asserts, for one payload type, that a slot trails its
// payload with at least a cache line, that neighbouring payloads therefore
// start at least sizeof(T)+64 bytes apart, and that four concurrent owners
// each get their own address from at (the -race build checks that write
// hits only the owner's payload).
func checkSlotsApart[T any](t *testing.T, write func(p *T, w int)) {
	t.Helper()
	var s slot[T]
	name := fmt.Sprintf("perWorker[%T]", s.v)
	if pad := unsafe.Sizeof(s) - unsafe.Sizeof(s.v); pad < 64 {
		t.Errorf("%s: slot is %d bytes for a %d-byte payload, want >= 64 more",
			name, unsafe.Sizeof(s), unsafe.Sizeof(s.v))
	}
	const workers = 4
	p := make(perWorker[T], workers)
	addrs := make([]uintptr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := p.at(w)
			addrs[w] = uintptr(unsafe.Pointer(v))
			for i := 0; i < 1000; i++ {
				write(v, w)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if gap := addrs[w] - addrs[w-1]; gap < unsafe.Sizeof(s.v)+64 {
			t.Errorf("%s: payloads %d and %d start %d bytes apart, want >= %d",
				name, w-1, w, gap, unsafe.Sizeof(s.v)+64)
		}
	}
}

// TestPerWorkerSlotsApart covers every perWorker instantiation in the
// package.
func TestPerWorkerSlotsApart(t *testing.T) {
	checkSlotsApart(t, func(p *workerCell, w int) {
		p.publish(int64(w), int64(w), int64(w), int64(w))
		p.steals.Store(p.steals.Load() + 1)
		p.ring.n++
	})
	checkSlotsApart(t, func(p *supAcc, w int) { p.seen = true })
	checkSlotsApart(t, func(p *workerLog, w int) { p.n++ })
	checkSlotsApart(t, func(p *shard, w int) { p.mu.Lock(); p.found.Add(1); p.mu.Unlock() })
}

package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// checkSlotsApart asserts, for one payload type, that a slot trails its
// payload with at least a cache line, that neighbouring payloads in an array
// of slots therefore start at least sizeof(T)+64 bytes apart, and that four
// concurrent owners each get their own payload (the -race build checks that
// write hits only the owner's payload).
func checkSlotsApart[T any](t *testing.T, write func(p *T, w int)) {
	t.Helper()
	var s slot[T]
	name := fmt.Sprintf("slot[%T]", s.v)
	if pad := unsafe.Sizeof(s) - unsafe.Sizeof(s.v); pad < 64 {
		t.Errorf("%s: slot is %d bytes for a %d-byte payload, want >= 64 more",
			name, unsafe.Sizeof(s), unsafe.Sizeof(s.v))
	}
	const owners = 4
	var p [owners]slot[T]
	addrs := make([]uintptr, owners)
	var wg sync.WaitGroup
	for w := 0; w < owners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := &p[w].v
			addrs[w] = uintptr(unsafe.Pointer(v))
			for i := 0; i < 1000; i++ {
				write(v, w)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < owners; w++ {
		if gap := addrs[w] - addrs[w-1]; gap < unsafe.Sizeof(s.v)+64 {
			t.Errorf("%s: payloads %d and %d start %d bytes apart, want >= %d",
				name, w-1, w, gap, unsafe.Sizeof(s.v)+64)
		}
	}
}

// TestPerWorkerSlotsApart covers every slot instantiation in the package:
// the lookahead ring's two counters and the caller's tally.
func TestPerWorkerSlotsApart(t *testing.T) {
	checkSlotsApart(t, func(p *atomic.Int64, w int) { p.Store(p.Load() + 1) })
	checkSlotsApart(t, func(p *aheadTally, w int) { p.taken++; p.gets = w })
	var la lookahead
	if gap := uintptr(unsafe.Pointer(&la.done.v)) - uintptr(unsafe.Pointer(&la.sent.v)); gap < unsafe.Sizeof(la.sent.v)+64 {
		t.Errorf("lookahead: sent and done start %d bytes apart, want >= %d", gap, unsafe.Sizeof(la.sent.v)+64)
	}
	if gap := uintptr(unsafe.Pointer(&la.own.v)) - uintptr(unsafe.Pointer(&la.done.v)); gap < unsafe.Sizeof(la.done.v)+64 {
		t.Errorf("lookahead: done and the tally start %d bytes apart, want >= %d", gap, unsafe.Sizeof(la.done.v)+64)
	}
}

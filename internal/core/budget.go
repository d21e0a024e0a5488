package core

import (
	"errors"
	"fmt"
)

// This file is the resource-budget substrate of the explorer: hard
// state and memory ceilings that turn a runaway sweep into a partial result
// instead of an OOM kill. Both budgets surface through the same cooperative
// abort point as cancellation (the between-expansions checkpoint in
// explorer.run), so a budget breach honors every ownership invariant a cancel
// does: the loop stops between expansions, partial Stats are returned, and
// the checker stays reusable.
//
// Accounting adds nothing to the visitor path:
//
//   - States are counted at admission by the existing e.stored counter; the
//     state budget is one extra compare on the admission path.
//   - Pool-side zone bytes are known at pool get/put: every full matrix in
//     the run is scratch — the state being expanded and its successors
//     until the store has decided on them — drawn from the loop's or the
//     lookahead helper's dbm.Pool, whose gets/reuses counters already record
//     how many matrices it allocated (gets − reuses). The loop publishes
//     that allocation, the helper's included, into the run's workerCell
//     (perworker.go) at each checkpoint on every run, with its expansion
//     counters; a budgeted run then checks the cell against the limit. The
//     budget owns no cell of its own and allocates nothing.
//   - Store-side bytes are charged at their ACTUAL packed footprint: the
//     passed store tracks the exact bytes of its entries with their packed
//     discrete keys, zone-record segments and compact zone buffers
//     (store.go), and the check adds that live total (passedSet.bytes) to
//     the cells. That total is also what the waiting states cost in zone
//     bytes: a state waits as a 40-byte node, in a frontier block carved from
//     the run's slabs, that references the payload the store packed of it
//     (an orphaned payload stays charged until its node is popped), so the
//     frontier adds no zone bytes of its own. Its blocks, like the store's
//     bucket index, are bookkeeping and are not charged.

// ErrStateBudget reports an exploration stopped because Options.StateBudget
// unique states had been admitted. The accompanying Stats are the partial
// effort up to the abort; the Checker remains reusable. Unlike MaxStates
// (soft truncation: Stats.Truncated, no error), a state budget is a hard
// failure for callers that must not trust partial verdicts.
var ErrStateBudget = errors.New("core: exploration state budget exceeded")

// ErrMemoryBudget reports an exploration stopped because its zone memory
// exceeded Options.MaxBytes. The accompanying Stats are the partial effort up
// to the abort; the Checker remains reusable.
var ErrMemoryBudget = errors.New("core: exploration memory budget exceeded")

// PanicError is the per-run error a contained crash — of the admitting loop,
// a visitor it calls, or the lookahead helper — converts into: the run fails
// like a canceled one (partial Stats, reusable Checker) instead of taking the
// process down. The crashed goroutine abandons its succCtx — and with it
// every zone and state it owned; no structure of the failed run is
// ever reused: its free lists, states, store entries and records are
// garbage once explore returns. What later runs do get is the run's slab
// memory, released like any other run's — raw bytes with no structure to be
// corrupt, every piece of which its next owner initializes in full.
type PanicError struct {
	// Worker is always 0: a run has one admitting loop, and a crash of its
	// lookahead helper is reported as the loop's.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the crashed goroutine's stack at recovery.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("core: worker %d panicked: %v", p.Worker, p.Value)
}

package main

import (
	"math"
	"testing"
	"time"
)

// TestDeadlineFlagLimit pins both sides of the largest -deadline-ms: the
// largest value converts to a positive deadline, one more is refused rather
// than wrapped into the past.
func TestDeadlineFlagLimit(t *testing.T) {
	limit := math.MaxInt64 / int64(time.Millisecond)
	if d, err := deadline(limit); err != nil || d <= 0 {
		t.Errorf("-deadline-ms %d: %v, %v; want a positive deadline", limit, d, err)
	}
	for _, ms := range []int64{limit + 1, 10_000_000_000_000, math.MaxInt64} {
		if d, err := deadline(ms); err == nil {
			t.Errorf("-deadline-ms %d is accepted as %v", ms, d)
		}
	}
}

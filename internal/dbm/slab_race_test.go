//go:build race

package dbm

import "testing"

// TestSlabsOnHeapUnderRace: a race build's slabs are Go memory, or the race
// jobs of CI would watch carving and release without seeing the bytes.
func TestSlabsOnHeapUnderRace(t *testing.T) {
	var s Slabs
	defer s.Release()
	s.Matrix(6).SetInit()
	if mapped, inUse, _ := SlabStats(); mapped != 0 || inUse == 0 {
		t.Fatalf("race build holds %d mapped bytes (%d in use), want heap slabs only", mapped, inUse)
	}
}

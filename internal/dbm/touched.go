package dbm

// Touched is a small set of clock indices in which extrapolation records the
// rows and columns of a DBM it loosened, so that CloseRows can restrict
// re-canonicalization to them instead of re-running the full O(n³)
// Floyd–Warshall.
//
// A Touched is reusable scratch: Reset costs O(elements added), Add is
// O(1), and after the initial allocation no operation allocates — the
// exploration hot loop keeps a rows/columns pair per expanding goroutine (in
// its succCtx) under the same recycling rules as its scratch zone. A Touched is
// NOT safe for concurrent use.
type Touched struct {
	mark []bool
	list []int32
}

// NewTouched returns an empty set for DBMs of the given dimension.
func NewTouched(dim int) *Touched { return heap.Touched(dim) }

// Touched returns an empty set for DBMs of the given dimension, carved from s
// under Carve's rule: it lives as long as the set.
func (s *Slabs) Touched(dim int) *Touched {
	if dim < 1 {
		panic("dbm: touched dimension must include the reference clock")
	}
	t := Carve[Touched](s)
	t.mark = CarveSlice[bool](s, dim)
	t.list = CarveSlice[int32](s, dim)[:0]
	return t
}

// Reset empties the set, keeping its storage.
func (t *Touched) Reset() {
	for _, c := range t.list {
		t.mark[c] = false
	}
	t.list = t.list[:0]
}

// Add inserts clock c; duplicates are ignored.
func (t *Touched) Add(c int) {
	if !t.mark[c] {
		t.mark[c] = true
		t.list = append(t.list, int32(c))
	}
}

// Len returns the number of distinct clocks recorded.
func (t *Touched) Len() int { return len(t.list) }

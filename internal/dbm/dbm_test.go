package dbm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoundEncoding(t *testing.T) {
	cases := []struct {
		b     Bound
		value int64
		weak  bool
	}{
		{LE(0), 0, true},
		{LT(0), 0, false},
		{LE(5), 5, true},
		{LT(5), 5, false},
		{LE(-3), -3, true},
		{LT(-3), -3, false},
	}
	for _, c := range cases {
		if c.b.Value() != c.value {
			t.Errorf("%v: Value() = %d, want %d", c.b, c.b.Value(), c.value)
		}
		if c.b.Weak() != c.weak {
			t.Errorf("%v: Weak() = %v, want %v", c.b, c.b.Weak(), c.weak)
		}
	}
}

func TestBoundOrdering(t *testing.T) {
	// (<, c) tighter than (≤, c) tighter than (<, c+1).
	if !(LT(3) < LE(3)) {
		t.Error("LT(3) should be tighter than LE(3)")
	}
	if !(LE(3) < LT(4)) {
		t.Error("LE(3) should be tighter than LT(4)")
	}
	if !(LE(3) < Infinity) {
		t.Error("any finite bound should be tighter than Infinity")
	}
}

func TestBoundAdd(t *testing.T) {
	cases := []struct {
		a, b, want Bound
	}{
		{LE(2), LE(3), LE(5)},
		{LE(2), LT(3), LT(5)},
		{LT(2), LE(3), LT(5)},
		{LT(2), LT(3), LT(5)},
		{LE(-2), LE(3), LE(1)},
		{LE(2), Infinity, Infinity},
		{Infinity, LT(1), Infinity},
	}
	for _, c := range cases {
		if got := Add(c.a, c.b); got != c.want {
			t.Errorf("Add(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestNewIsZeroZone(t *testing.T) {
	d := New(4)
	if d.IsEmpty() {
		t.Fatal("zero zone must be nonempty")
	}
	if !d.Contains([]int64{0, 0, 0, 0}) {
		t.Error("zero zone must contain the origin")
	}
	if d.Contains([]int64{0, 1, 0, 0}) {
		t.Error("zero zone must not contain nonzero valuations")
	}
}

func TestUniverseContainsEverything(t *testing.T) {
	d := Universe(3)
	for _, v := range [][]int64{{0, 0, 0}, {0, 5, 2}, {0, 1000, 0}} {
		if !d.Contains(v) {
			t.Errorf("universe must contain %v", v)
		}
	}
	if d.Contains([]int64{0, -1, 0}) {
		t.Error("universe must not contain negative clock values")
	}
}

func TestUpDelay(t *testing.T) {
	d := New(3)
	d.Up()
	// After delay from the origin both clocks advance together.
	if !d.Contains([]int64{0, 7, 7}) {
		t.Error("delayed zero zone must contain equal-valued points")
	}
	if d.Contains([]int64{0, 7, 6}) {
		t.Error("delayed zero zone must keep clocks equal")
	}
}

func TestResetAfterDelay(t *testing.T) {
	d := New(3)
	d.Up()
	d.Reset(1, 0)
	// Now x1 = 0 and x2 ≥ x1 arbitrary.
	if !d.Contains([]int64{0, 0, 9}) {
		t.Error("reset zone should contain x1=0, x2=9")
	}
	if d.Contains([]int64{0, 1, 9}) {
		t.Error("x1 must be exactly 0 after reset")
	}
	if d.Contains([]int64{0, 0, -1}) {
		t.Error("clocks must stay nonnegative")
	}
}

func TestResetToConstant(t *testing.T) {
	d := New(2)
	d.Up()
	d.Reset(1, 5)
	if got := d.Sup(1); got != LE(5) {
		t.Errorf("Sup after Reset(1,5) = %v, want <=5", got)
	}
	if got := d.Inf(1); got != LE(5) {
		t.Errorf("Inf after Reset(1,5) = %v, want <=5", got)
	}
}

func TestConstrainTightens(t *testing.T) {
	d := New(3)
	d.Up()
	if !d.Constrain(1, 0, LE(10)) {
		t.Fatal("constraining x1<=10 must keep zone nonempty")
	}
	if d.Contains([]int64{0, 11, 11}) {
		t.Error("x1 must be at most 10")
	}
	// Because x1 == x2 here, x2 is also bounded after closure.
	if got := d.Sup(2); got != LE(10) {
		t.Errorf("Sup(x2) = %v, want <=10 via canonicalization", got)
	}
}

func TestConstrainEmpties(t *testing.T) {
	d := New(2)
	d.Up()
	if !d.Constrain(1, 0, LE(5)) {
		t.Fatal("x1<=5 should be satisfiable")
	}
	if d.Constrain(0, 1, LT(-5)) { // x1 > 5
		t.Fatal("x1<=5 and x1>5 must be empty")
	}
	if !d.IsEmpty() {
		t.Error("IsEmpty must report the contradiction")
	}
}

func TestUpperBoundsSet(t *testing.T) {
	u := NewUpperBounds(4)
	u.Lower(2, LE(7))
	u.Lower(1, Infinity) // the absent bound records nothing
	u.Lower(2, LT(7))    // tighter: replaces
	u.Lower(2, LE(9))    // looser: ignored
	u.Lower(3, LE(0))
	if len(u.list) != 2 || u.list[0] != 2 || u.list[1] != 3 {
		t.Fatalf("bounded clocks = %v, want [2 3]", u.list)
	}
	if u.b[1] != Infinity || u.b[2] != LT(7) || u.b[3] != LE(0) {
		t.Fatalf("bounds = %v, want [inf inf <7 <=0]", u.b)
	}
	u.Reset()
	if len(u.list) != 0 || u.b[2] != Infinity || u.b[3] != Infinity {
		t.Fatalf("Reset left %v / %v", u.list, u.b)
	}
}

// TestDelayUnder walks the kernel's cases one at a time on zones small enough
// to read. Every case also runs through checkDelayUnder, i.e. against Up plus
// a Constrain chain, against the full Close, and against the two-application
// form (intersect, delay, intersect again).
func TestDelayUnder(t *testing.T) {
	// x1 ∈ [0,4], x2 = 0: x1 ran for up to 4, then x2 was reset.
	lag := func() *DBM {
		d := New(3)
		d.Up()
		d.Constrain(1, 0, LE(4))
		d.Reset(2, 0)
		return d
	}
	// x1 ≥ 3 and nothing else (x2 = x1 - anything in [0, x1]).
	late := func() *DBM {
		d := New(3)
		d.Up()
		d.Reset(2, 0)
		d.Up()
		d.Constrain(0, 1, LE(-3))
		return d
	}
	up := func(d *DBM) *DBM { d.Up(); return d }
	x1, x2 := 1, 2
	cases := []struct {
		name  string
		zone  *DBM
		cons  []con
		delay bool
		empty bool
		sup   map[int]Bound // expected upper bounds, per clock
		same  *DBM          // non-nil: the result must equal this zone
	}{
		{name: "weak bound", zone: lag(), cons: []con{{x1, 0, LE(2)}},
			sup: map[int]Bound{x1: LE(2), x2: LE(0)}},
		{name: "strict bound", zone: lag(), cons: []con{{x1, 0, LT(2)}},
			sup: map[int]Bound{x1: LT(2), x2: LE(0)}},
		{name: "two bounds on one clock, tighter last", zone: lag(), cons: []con{{x1, 0, LE(3)}, {x1, 0, LT(2)}},
			sup: map[int]Bound{x1: LT(2)}},
		{name: "two bounds on one clock, tighter first", zone: lag(), cons: []con{{x1, 0, LT(2)}, {x1, 0, LE(3)}},
			sup: map[int]Bound{x1: LT(2)}},
		{name: "strict bound at the lower bound empties", zone: late(), cons: []con{{x1, 0, LT(3)}}, empty: true},
		{name: "strict bound at the lower bound empties under delay too", zone: late(), cons: []con{{x1, 0, LT(3)}},
			delay: true, empty: true},
		{name: "weak bound at the lower bound keeps the point", zone: late(), cons: []con{{x1, 0, LE(3)}},
			sup: map[int]Bound{x1: LE(3), x2: LE(3)}},
		{name: "negative bound empties", zone: lag(), cons: []con{{x2, 0, LE(-1)}}, empty: true},
		{name: "second bound empties after the first held", zone: late(), cons: []con{{x2, 0, LE(9)}, {x1, 0, LE(2)}},
			delay: true, empty: true},
		{name: "delay up to a bound on the other clock", zone: lag(), cons: []con{{x2, 0, LE(5)}}, delay: true,
			// x1 - x2 ≤ 4 carries x2's bound over: x1 ≤ 9.
			sup: map[int]Bound{x1: LE(9), x2: LE(5)}},
		{name: "delay under a bound that bit before the delay", zone: lag(), cons: []con{{x1, 0, LE(2)}}, delay: true,
			sup: map[int]Bound{x1: LE(2), x2: LE(2)}},
		{name: "delay under no bound is Up", zone: lag(), delay: true, same: up(lag())},
		{name: "delay leaves an uncoupled clock unbounded", zone: func() *DBM { d := lag(); d.Free(x2); return d }(),
			cons: []con{{x1, 0, LE(6)}}, delay: true,
			sup: map[int]Bound{x1: LE(6), x2: Infinity}},
		{name: "already satisfied: no change", zone: lag(), cons: []con{{x1, 0, LE(4)}, {x2, 0, LE(0)}}, same: lag()},
		{name: "no bound, no delay: no change", zone: lag(), same: lag()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := checkDelayUnder(t, c.zone, c.cons, c.delay)
			if (got == nil) != c.empty {
				t.Fatalf("nonempty = %v, want %v", got != nil, !c.empty)
			}
			for clock, want := range c.sup {
				if s := got.Sup(clock); s != want {
					t.Errorf("Sup(x%d) = %v, want %v in %s", clock, s, want, got)
				}
			}
			if c.same != nil && !got.Eq(c.same) {
				t.Errorf("got %s, want %s", got, c.same)
			}
		})
	}
}

func TestFree(t *testing.T) {
	d := New(3)
	d.Up()
	d.Constrain(1, 0, LE(4))
	d.Free(2)
	if !d.Contains([]int64{0, 4, 1000}) {
		t.Error("freed clock may take any nonnegative value")
	}
	if d.Contains([]int64{0, 5, 0}) {
		t.Error("constraint on x1 must survive freeing x2")
	}
}

func TestRelation(t *testing.T) {
	small := New(2)
	small.Up()
	small.Constrain(1, 0, LE(5))
	big := New(2)
	big.Up()
	big.Constrain(1, 0, LE(10))
	if !small.SubsetEq(big) || big.SubsetEq(small) {
		t.Error("x1<=5 must be strictly included in x1<=10")
	}
	if c := big.Copy(); !big.SubsetEq(c) || !c.SubsetEq(big) || !big.Eq(c) {
		t.Error("a zone and its copy must include each other")
	}
	other := New(2)
	other.Up()
	other.Constrain(0, 1, LE(-7)) // x1 >= 7
	if small.SubsetEq(other) || other.SubsetEq(small) {
		t.Error("x1<=5 and x1>=7 must be incomparable")
	}
}

// extraM applies Extra_M with scratch of its own.
func extraM(d *DBM, max []int64) bool {
	return d.ExtraMTouched(max, NewTouched(d.Dim()), NewTouched(d.Dim()))
}

func TestExtraMDropsLargeBounds(t *testing.T) {
	d := New(2)
	d.Up()
	d.Constrain(1, 0, LE(100))
	d.Constrain(0, 1, LE(-90)) // 90 <= x1 <= 100
	extraM(d, []int64{0, 10})  // max constant of x1 is 10
	if d.Sup(1) != Infinity {
		t.Errorf("upper bound above max must be dropped, got %v", d.Sup(1))
	}
	// The lower bound 90 exceeds the max constant 10 and must relax to >10.
	if got := d.At(0, 1); got != LT(-10) {
		t.Errorf("lower bound must relax to <-10, got %v", got)
	}
}

func TestExtraMKeepsSmallBounds(t *testing.T) {
	d := New(2)
	d.Up()
	d.Constrain(1, 0, LE(7))
	before := d.Copy()
	extraM(d, []int64{0, 10})
	if !d.Eq(before) {
		t.Error("bounds within the max constant must be unchanged")
	}
}

func TestExtrapolationReportsChanges(t *testing.T) {
	// No-op case: every bound inside the extrapolation box. The flag must be
	// false and the matrix untouched (this is the fast path that skips the
	// post-extrapolation Floyd–Warshall).
	d := New(2)
	d.Up()
	d.Constrain(1, 0, LE(7))
	if extraM(d, []int64{0, 10}) {
		t.Error("ExtraM within the box must report changed=false")
	}
	// Abstracting case: bounds beyond the constants must report true.
	e := New(2)
	e.Up()
	e.Constrain(1, 0, LE(100))
	if !extraM(e, []int64{0, 10}) {
		t.Error("ExtraM dropping a bound must report changed=true")
	}
	// Idempotence: re-extrapolating the already-abstracted zone is a no-op.
	if extraM(e, []int64{0, 10}) {
		t.Error("ExtraM must be idempotent: second application reports changed=false")
	}
}

func TestTouchedSet(t *testing.T) {
	s := NewTouched(4)
	if s.Len() != 0 {
		t.Fatal("new set must be empty")
	}
	s.Add(2)
	s.Add(0)
	s.Add(2) // duplicate
	if s.Len() != 2 || !s.mark[2] || !s.mark[0] || s.mark[1] {
		t.Fatalf("set contents wrong: %v", s.list)
	}
	if got := s.list; len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Fatalf("insertion order lost: %v", got)
	}
	s.Reset()
	if s.Len() != 0 || s.mark[2] || s.mark[0] {
		t.Fatal("Reset must empty the set")
	}
}

// TestCloseRowsRederivesDroppedBound pins the case that forces CloseRows'
// all-pivot structure: ExtraM drops x1's upper bound (entry (1,0), beyond
// max[1]=3), but the canonical form re-derives it as <=10 from the KEPT
// x1-x2 <= 0 and x2 <= 10 bounds — a path through clock 2, which
// extrapolation never touched. Pivoting only over the touched clocks would
// leave the entry at infinity and the matrix non-canonical, which would
// break the hash-keyed passed stores.
func TestCloseRowsRederivesDroppedBound(t *testing.T) {
	d := New(4)
	d.Up()
	if !d.Constrain(1, 0, LE(10)) {
		t.Fatal("setup zone empty")
	}
	ref := d.Copy()
	max := []int64{0, 3, 15, 15}

	rows, cols := NewTouched(4), NewTouched(4)
	if !d.ExtraMTouched(max, rows, cols) {
		t.Fatal("extrapolation must report a change")
	}
	if !rows.mark[1] {
		t.Error("row 1 must be recorded as touched")
	}
	// Reference: the same loosening scan followed by a full Close.
	refChanged := extraMFullClose(ref, max)
	if !refChanged {
		t.Fatal("reference must also change")
	}
	if !d.Eq(ref) {
		t.Fatalf("incremental ExtraM differs from full close:\n got %s\nwant %s", d, ref)
	}
	if got := d.At(1, 0); got != LE(10) {
		t.Errorf("x1's upper bound must be re-derived as <=10 through untouched clock 2, got %v", got)
	}
}

// extraMFullClose is the pre-incremental reference: loosen per the Extra_M
// rules, then run the full Floyd–Warshall.
func extraMFullClose(d *DBM, max []int64) bool {
	n := d.Dim()
	changed := false
	mc := func(i int) int64 {
		if i == 0 {
			return 0
		}
		return max[i]
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b := d.At(i, j)
			if i == j || b == Infinity {
				continue
			}
			if i != 0 && b > LE(mc(i)) {
				d.set(i, j, Infinity)
				changed = true
			} else if lo := LT(-mc(j)); b < lo {
				d.set(i, j, lo)
				changed = true
			}
		}
	}
	if changed {
		d.Close()
	}
	return changed
}

func TestQuickExtraMTouchedMatchesFullClose(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 3 + r.Intn(4)
		d := randomZone(r, dim)
		max := make([]int64, dim)
		for c := 1; c < dim; c++ {
			max[c] = int64(r.Intn(20)) - 2 // negative means "never compared"
		}
		inc := d.Copy()
		ref := d.Copy()
		rows, cols := NewTouched(dim), NewTouched(dim)
		if inc.ExtraMTouched(max, rows, cols) != extraMFullClose(ref, max) {
			return false
		}
		return inc.Eq(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestStringSmoke(t *testing.T) {
	d := New(2)
	if s := d.String(); s == "" {
		t.Error("String must render something")
	}
	if s := LE(3).String(); s != "<=3" {
		t.Errorf("bound string = %q", s)
	}
	if s := Infinity.String(); s != "inf" {
		t.Errorf("infinity string = %q", s)
	}
}

// --- Property-based tests against a concrete-valuation oracle ---

// randomZone builds a random nonempty canonical zone over dim clocks by
// applying a few random delay/reset/constrain steps from the origin,
// mirroring how zones arise during exploration.
func randomZone(r *rand.Rand, dim int) *DBM {
	d := New(dim)
	for step := 0; step < 6; step++ {
		switch r.Intn(4) {
		case 0:
			d.Up()
		case 1:
			d.Reset(1+r.Intn(dim-1), int64(r.Intn(5)))
		case 2:
			c := 1 + r.Intn(dim-1)
			prev := d.Copy()
			if !d.Constrain(c, 0, LE(int64(r.Intn(20)))) {
				d = prev
			}
		case 3:
			c := 1 + r.Intn(dim-1)
			prev := d.Copy()
			if !d.Constrain(0, c, LE(-int64(r.Intn(10)))) {
				d = prev
			}
		}
	}
	return d
}

// sampleValuations returns concrete integer points, some inside typical zone
// ranges, some outside.
func sampleValuations(r *rand.Rand, dim, n int) [][]int64 {
	out := make([][]int64, n)
	for i := range out {
		v := make([]int64, dim)
		for c := 1; c < dim; c++ {
			v[c] = int64(r.Intn(30))
		}
		out[i] = v
	}
	return out
}

func TestQuickCloseIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := randomZone(rr, 4)
		c := d.Copy()
		c.Close()
		return d.Eq(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestQuickUpSoundness(t *testing.T) {
	// Every point of the zone, delayed by any amount, is in Up(zone); and
	// Up(zone) contains only points reachable by uniform delay of some
	// contained point (checked on integer samples via subtraction).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomZone(r, 3)
		up := d.Copy()
		up.Up()
		for _, v := range sampleValuations(r, 3, 40) {
			if d.Contains(v) {
				w := []int64{0, v[1] + 5, v[2] + 5}
				if !up.Contains(w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickConstrainSoundness(t *testing.T) {
	// Constrain(zone, x<=k) contains exactly the points of zone with x<=k.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomZone(r, 3)
		k := int64(r.Intn(25))
		con := d.Copy()
		nonEmpty := con.Constrain(1, 0, LE(k))
		for _, v := range sampleValuations(r, 3, 40) {
			want := d.Contains(v) && v[1] <= k
			got := nonEmpty && con.Contains(v)
			if want != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickResetSoundness(t *testing.T) {
	// After Reset(c, 0) every contained point has v[c] == 0, and each point of
	// the original zone maps into the reset zone with its c component zeroed.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomZone(r, 3)
		rd := d.Copy()
		rd.Reset(1, 0)
		for _, v := range sampleValuations(r, 3, 40) {
			if d.Contains(v) {
				w := []int64{0, 0, v[2]}
				if !rd.Contains(w) {
					return false
				}
			}
			if rd.Contains(v) && v[1] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickInclusionMatchesOracle(t *testing.T) {
	// If SubsetEq holds, every sampled point of the subset is in the superset.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomZone(r, 3)
		b := randomZone(r, 3)
		if a.SubsetEq(b) {
			for _, v := range sampleValuations(r, 3, 60) {
				if a.Contains(v) && !b.Contains(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickExtraMPreservesSmallPoints(t *testing.T) {
	// Extrapolation only grows the zone, and within the max-constant box the
	// zone is unchanged.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomZone(r, 3)
		max := []int64{0, 15, 15}
		e := d.Copy()
		extraM(e, max)
		if !d.SubsetEq(e) {
			return false
		}
		for _, v := range sampleValuations(r, 3, 40) {
			inBox := v[1] <= max[1] && v[2] <= max[2]
			if inBox && d.Contains(v) != e.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// con is one difference constraint xi - xj ≺ b.
type con struct {
	i, j int
	b    Bound
}

// zoneCons lists every bound of o as a constraint, so that intersecting with
// o is the conjunction of the list.
func zoneCons(o *DBM) []con {
	cons := make([]con, 0, len(o.m))
	for i := 0; i < o.dim; i++ {
		for j := 0; j < o.dim; j++ {
			cons = append(cons, con{i, j, o.At(i, j)})
		}
	}
	return cons
}

// tightenFullClose intersects d with the conjunction of cons the slow way —
// every bound written entrywise where tighter, then the full Floyd–Warshall —
// and reports whether the result is nonempty. It is the reference the one
// tightening path (a chain of Constrain calls) is compared against.
func tightenFullClose(d *DBM, cons []con) bool {
	for _, c := range cons {
		if c.b < d.At(c.i, c.j) {
			d.set(c.i, c.j, c.b)
		}
	}
	return d.Close()
}

func TestQuickIntersectionOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomZone(r, 3)
		b := randomZone(r, 3)
		inter := a.Copy()
		ok := tightenFullClose(inter, zoneCons(b))
		for _, v := range sampleValuations(r, 3, 40) {
			want := a.Contains(v) && b.Contains(v)
			got := ok && inter.Contains(v)
			if want != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// benchExtraSetup builds zones and max constants shaped like the exploration
// steady state: 10 clocks, most inside the extrapolation box, two (the
// long-running environment clocks) beyond it — so extrapolation loosens a
// couple of rows and the incremental closure has few touched rows to re-run.
func benchExtraSetup(r *rand.Rand) ([]*DBM, []int64) {
	zones := make([]*DBM, 64)
	for i := range zones {
		zones[i] = randomZone(r, 10)
	}
	max := make([]int64, 10)
	for c := 1; c < 10; c++ {
		max[c] = 100
	}
	max[1], max[2] = 2, 3
	return zones, max
}

func BenchmarkExtraMFullClose(b *testing.B) {
	zones, max := benchExtraSetup(rand.New(rand.NewSource(7)))
	scratch := New(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.CopyFrom(zones[i%len(zones)])
		extraMFullClose(scratch, max)
	}
}

func BenchmarkExtraMIncremental(b *testing.B) {
	zones, max := benchExtraSetup(rand.New(rand.NewSource(7)))
	scratch := New(10)
	rows, cols := NewTouched(10), NewTouched(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.CopyFrom(zones[i%len(zones)])
		scratch.ExtraMTouched(max, rows, cols)
	}
}

func BenchmarkClose(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	zones := make([]*DBM, 64)
	for i := range zones {
		zones[i] = randomZone(r, 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := zones[i%len(zones)].Copy()
		z.Close()
	}
}

func BenchmarkConstrain(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	base := randomZone(r, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := base.Copy()
		z.Constrain(3, 0, LE(int64(i%50)))
	}
}

func TestQuickUpIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomZone(r, 4)
		once := d.Copy()
		once.Up()
		twice := once.Copy()
		twice.Up()
		return once.Eq(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickFreeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomZone(r, 4)
		once := d.Copy()
		once.Free(2)
		twice := once.Copy()
		twice.Free(2)
		return once.Eq(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickResetOverridesReset(t *testing.T) {
	// Resetting twice equals resetting once with the latter value.
	f := func(seed int64, a8, b8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomZone(r, 3)
		va, vb := int64(a8%20), int64(b8%20)
		d1 := d.Copy()
		d1.Reset(1, va)
		d1.Reset(1, vb)
		d2 := d.Copy()
		d2.Reset(1, vb)
		return d1.Eq(d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestNegativeConstantNotIdempotent keeps the counter-example behind
// ExtraBounds.Idempotent: with a never-compared clock (M = -1) beside one
// with M = 0, the first application relaxes x2 - x1 <= 0 to x2 - x1 < 1 — the
// strict bound at x1's negated constant — which is beyond x2's constant, so a
// second application drops it. A zone that came out of Extrapolate is then
// not a fixed point, and deciding inclusion before or after extrapolating
// gives different answers: r ⊆ r, but E(r) ⊄ r.
func TestNegativeConstantNotIdempotent(t *testing.T) {
	x := NewExtraM([]int64{0, -1, 0})
	if x.Idempotent() {
		t.Fatal("bounds with a negative constant must not report idempotence")
	}
	if ok := NewExtraM([]int64{0, 0, 0}); !ok.Idempotent() {
		t.Fatal("bounds of constants >= 0 must report idempotence")
	}
	rows, cols := NewTouched(3), NewTouched(3)
	r := New(3)
	r.Up() // x1 == x2, both unbounded
	r.Extrapolate(&x, rows, cols)
	if got := r.At(2, 1); got != LT(1) {
		t.Fatalf("first application left x2 - x1 %v, want <1", got)
	}
	er := r.Copy()
	if !er.Extrapolate(&x, rows, cols) || er.At(2, 1) != Infinity {
		t.Fatalf("second application must drop the bound the first relaxed, got %s", er)
	}
	if er.SubsetEq(r) {
		t.Fatal("E(r) ⊆ r: the counter-example no longer separates the two orders")
	}
}

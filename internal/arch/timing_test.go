package arch

import (
	"math"
	"math/big"
	"strings"
	"testing"
)

// TestDurationExactBeyondInt64 pins Step.DurationMS as the exact rational
// instructions/(MIPS·1000) or bytes·8/kbit·s⁻¹ where the products leave
// int64 (they once wrapped: 2^61+1 bytes read as 21 ms, and 2^61 MIPS
// divided by zero), and the timing view's verdict on each duration: whole
// units, or an error naming the step or the time base.
func TestDurationExactBeyondInt64(t *testing.T) {
	big64 := func(v int64) *big.Int { return big.NewInt(v) }
	prod := func(a, b int64) *big.Int { return new(big.Int).Mul(big64(a), big64(b)) }
	for _, c := range []struct {
		name          string
		compute       bool
		amount, speed int64 // instructions and MIPS, or bytes and kbit/s
		units         int64 // the duration in units, when the view accepts it
		err           string
	}{
		{"bytes wrap", false, 2305843009213693953, 8, 0, "step job.op duration"},
		{"mips wrap", true, 100000, 2305843009213693952, 0, "too fine"},
		{"plain transfer", false, 10, 8, 10, ""},
		{"plain compute", true, 100000, 10, 10, ""},
		{"both products wrap", false, math.MaxInt64, math.MaxInt64, 8, ""},
		{"compute at int64 limits", true, math.MaxInt64, math.MaxInt64, 1, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := NewSystem("d")
			sc := sys.AddScenario("job", 1, Periodic(MS(100, 1), MS(0, 1)))
			var want *big.Rat
			if c.compute {
				sc.Compute("op", sys.AddProcessor("P", c.speed, SchedFP), c.amount)
				want = new(big.Rat).SetFrac(big64(c.amount), prod(c.speed, 1000))
			} else {
				sc.Transfer("op", sys.AddBus("B", c.speed, SchedFP), c.amount)
				want = new(big.Rat).SetFrac(prod(c.amount, 8), big64(c.speed))
			}
			if got := sc.Steps[0].DurationMS(); got.Cmp(want) != 0 {
				t.Fatalf("DurationMS = %s, want %s", got.RatString(), want.RatString())
			}
			tm, err := sys.Timing()
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("Timing err = %v, want one naming %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := tm.Scenarios[0].Steps[0]; got != c.units {
				t.Errorf("duration = %d units at scale %s, want %d", got, tm.Scale, c.units)
			}
		})
	}
}

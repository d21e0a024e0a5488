package arch

import (
	"fmt"
	"math/big"
	"strings"

	"repro/internal/dbm"
)

// computeScale returns the least common multiple L of the denominators of
// every duration and event-model parameter in the system, so that one model
// time unit of 1/L milliseconds makes all timing constants exact integers.
func computeScale(sys *System) (*big.Int, error) {
	l := big.NewInt(1)
	add := func(r *big.Rat) {
		if r == nil {
			return
		}
		l = lcm(l, r.Denom())
	}
	for _, sc := range sys.Scenarios {
		for i := range sc.Steps {
			add(sc.Steps[i].DurationMS())
		}
		add(sc.Arrival.PeriodMS)
		add(sc.Arrival.OffsetMS)
		add(sc.Arrival.JitterMS)
		add(sc.Arrival.MinSepMS)
	}
	// Guard against pathological inputs producing units too fine for the
	// int64 DBM arithmetic (sums of bounds must not overflow).
	if l.BitLen() > 40 {
		return nil, fmt.Errorf("arch: common time base denominator %s is too fine; simplify the timing constants", l)
	}
	return l, nil
}

func lcm(a, b *big.Int) *big.Int {
	g := new(big.Int).GCD(nil, nil, a, b)
	out := new(big.Int).Div(a, g)
	return out.Mul(out, b)
}

// timeField names where a time value comes from — a field of a scenario,
// step, bus or requirement — for toUnits' errors; kind and name may be
// empty.
type timeField struct{ kind, name, field string }

func (f timeField) String() string { return strings.TrimSpace(f.kind + " " + f.name + " " + f.field) }

// toUnits converts the exact millisecond value r of field f to integer model
// time units under the given scale. It errs, naming f, if the value is not
// integral (which cannot happen for scales from computeScale), negative, or
// beyond dbm.MaxConstant units: a clock constant any larger would overflow
// the sum of two bounds.
func toUnits(r *big.Rat, scale *big.Int, f timeField) (int64, error) {
	if r == nil {
		return 0, nil
	}
	v := new(big.Rat).Mul(r, new(big.Rat).SetInt(scale))
	if !v.IsInt() {
		return 0, fmt.Errorf("arch: %s: %s ms is not integral at scale 1/%s ms", f, r.RatString(), scale)
	}
	n := v.Num()
	if n.Sign() < 0 {
		return 0, fmt.Errorf("arch: %s: negative duration %s ms", f, r.RatString())
	}
	if !n.IsInt64() || n.Int64() > dbm.MaxConstant {
		return 0, fmt.Errorf("arch: %s: %s ms is %s time units of 1/%s ms, beyond the largest clock constant %d",
			f, r.RatString(), n, scale, int64(dbm.MaxConstant))
	}
	return n.Int64(), nil
}

// unitsToMS converts a model-time value back to exact milliseconds.
func unitsToMS(u int64, scale *big.Int) *big.Rat {
	return new(big.Rat).SetFrac(big.NewInt(u), scale)
}

// TimeScale exposes the system's exact integer time base: the number of
// model time units per millisecond. Alternative analyses (the discrete-event
// simulator, busy-window analysis, real-time calculus) share this base so
// their results are directly comparable to the model checker's.
func (s *System) TimeScale() (*big.Int, error) { return computeScale(s) }

// ToUnits converts exact milliseconds to integer time units under scale.
func ToUnits(r *big.Rat, scale *big.Int) (int64, error) {
	return toUnits(r, scale, timeField{field: "time value"})
}

// UnitsToMS converts integer time units back to exact milliseconds.
func UnitsToMS(u int64, scale *big.Int) *big.Rat { return unitsToMS(u, scale) }

package arch

import (
	"fmt"
	"math/big"
	"strings"

	"repro/internal/dbm"
)

// Timing is a system's timing data in integer model time units: the one
// place where the exact milliseconds of an architecture become the integers
// the engines compute with. CompileAll's network, the simulator
// (internal/sim) and the compositional analyses SymTA/S and MPA
// (internal/compos under internal/symta and internal/rtc) all read their
// step durations, arrival parameters and TDMA slot tables here, and none of
// them converts a time itself, so the four engines agree on every constant
// and refuse a time out of range with the same error.
//
// The conversion rule:
//   - Scale is the least common multiple of the denominators of every step
//     duration and every arrival parameter, so one unit of 1/Scale ms makes
//     each of them an exact integer; a Scale of 2^40 or more is refused as
//     too fine. TDMA cycles and slot bounds must be whole units at that Scale.
//   - Every value is at most dbm.MaxConstant units, so the sum of two clock
//     bounds cannot overflow.
//   - A value that breaks the rule fails with an error naming its field:
//     "scenario job jitter_ms", "step job.msg duration",
//     "bus BUS cycle_ms".
//
// Results go back to milliseconds with UnitsToMS.
type Timing struct {
	// Scale is the number of model time units per millisecond.
	Scale *big.Int
	// Scenarios holds each scenario's times, parallel to System.Scenarios.
	Scenarios []ScenarioTiming
	// TDMA holds the slot table of every time-division bus (nil when the
	// system has none).
	TDMA map[*Bus]*TDMATiming
}

// ScenarioTiming is one scenario's times in units.
type ScenarioTiming struct {
	// Steps holds each step's worst-case duration, parallel to
	// Scenario.Steps.
	Steps []int64
	// Period, Offset, Jitter and MinSep are the arrival model's parameters;
	// one the model leaves unset is 0.
	Period, Offset, Jitter, MinSep int64
}

// TDMATiming is a time-division bus's slot table in units.
type TDMATiming struct {
	Cycle int64
	// Slots holds each slot's window, parallel to TDMAConfig.Slots.
	Slots []SlotTiming
}

// SlotTiming is one TDMA slot's window [Start, End) within the cycle.
type SlotTiming struct{ Start, End int64 }

// Timing validates the system and converts its times to units.
func (s *System) Timing() (*Timing, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.timing()
}

// timing is Timing on a system already validated.
func (s *System) timing() (*Timing, error) {
	n := 0
	for _, sc := range s.Scenarios {
		n += len(sc.Steps)
	}
	durs := make([]*big.Rat, 0, n)
	for _, sc := range s.Scenarios {
		for i := range sc.Steps {
			durs = append(durs, sc.Steps[i].DurationMS())
		}
	}
	scale, err := computeScale(s, durs)
	if err != nil {
		return nil, err
	}
	// units converts one value; after the first error it converts nothing.
	units := func(r *big.Rat, f timeField) (v int64) {
		if err == nil {
			v, err = toUnits(r, scale, f)
		}
		return v
	}
	t := &Timing{Scale: scale, Scenarios: make([]ScenarioTiming, len(s.Scenarios))}
	for i, sc := range s.Scenarios {
		m, st := &sc.Arrival, &t.Scenarios[i]
		st.Period = units(m.PeriodMS, timeField{kind: "scenario", name: sc.Name, field: "period_ms"})
		st.Offset = units(m.OffsetMS, timeField{kind: "scenario", name: sc.Name, field: "offset_ms"})
		st.Jitter = units(m.JitterMS, timeField{kind: "scenario", name: sc.Name, field: "jitter_ms"})
		st.MinSep = units(m.MinSepMS, timeField{kind: "scenario", name: sc.Name, field: "min_sep_ms"})
	}
	steps := make([]int64, n)
	for i, sc := range s.Scenarios {
		st := &t.Scenarios[i]
		st.Steps, steps = steps[:len(sc.Steps):len(sc.Steps)], steps[len(sc.Steps):]
		for j := range sc.Steps {
			st.Steps[j] = units(durs[0], timeField{kind: "step", name: sc.Name, step: sc.Steps[j].Name, field: "duration"})
			durs = durs[1:]
		}
	}
	for _, b := range s.Buses {
		if b.TDMA == nil {
			continue
		}
		tt := &TDMATiming{
			Cycle: units(b.TDMA.CycleMS, timeField{kind: "bus", name: b.Name, field: "cycle_ms"}),
			Slots: make([]SlotTiming, len(b.TDMA.Slots)),
		}
		for i := range b.TDMA.Slots {
			sl := &b.TDMA.Slots[i]
			tt.Slots[i] = SlotTiming{
				Start: units(sl.StartMS, timeField{kind: "bus", name: b.Name, field: "start_ms"}),
				End:   units(sl.EndMS, timeField{kind: "bus", name: b.Name, field: "end_ms"}),
			}
		}
		if t.TDMA == nil {
			t.TDMA = map[*Bus]*TDMATiming{}
		}
		t.TDMA[b] = tt
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// HorizonUnits converts a horizon of whole milliseconds, such as a
// simulation's, to units under the same rule; its error names field.
func (t *Timing) HorizonUnits(ms int64, field string) (int64, error) {
	return toUnits(new(big.Rat).SetInt64(ms), t.Scale, timeField{field: field})
}

// computeScale returns the least common multiple L of the denominators of
// the step durations durs and of every event-model parameter in the system,
// so that one model time unit of 1/L milliseconds makes all timing
// constants exact integers.
func computeScale(sys *System, durs []*big.Rat) (*big.Int, error) {
	l := big.NewInt(1)
	add := func(r *big.Rat) {
		if r == nil || r.IsInt() {
			return
		}
		l = lcm(l, r.Denom())
	}
	for _, d := range durs {
		add(d)
	}
	for _, sc := range sys.Scenarios {
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
// step, bus or requirement — for toUnits' errors. A step's field is named
// after its scenario and step, "step job.msg duration"; any part may be
// empty.
type timeField struct{ kind, name, step, field string }

func (f timeField) String() string {
	name := f.name
	if f.step != "" {
		name += "." + f.step
	}
	return strings.TrimSpace(strings.TrimSpace(f.kind+" "+name) + " " + f.field)
}

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

// UnitsToMS converts integer time units back to exact milliseconds.
func UnitsToMS(u int64, scale *big.Int) *big.Rat { return new(big.Rat).SetFrac(big.NewInt(u), scale) }

package arch

import (
	"fmt"
	"math/big"
)

// EventKind classifies the arrival models of Section 3.3 of the paper.
type EventKind int

const (
	// KindPeriodic is a strictly periodic stream with a known offset
	// (Fig. 7a; offset 0 gives the paper's "po" column).
	KindPeriodic EventKind = iota
	// KindPeriodicUnknownOffset is strictly periodic with a free initial
	// phase (Fig. 7b; the "pno" column).
	KindPeriodicUnknownOffset
	// KindSporadic only bounds the minimal inter-arrival time from below
	// (Fig. 7c; the "sp" column).
	KindSporadic
	// KindPeriodicJitter releases the k-th event anywhere in
	// [kP, kP+J] with J ≤ P (Fig. 7d; the "pj" column).
	KindPeriodicJitter
	// KindBursty allows jitter beyond the period (J > P) with a minimal
	// separation D between events (Fig. 8; the "bur" column).
	KindBursty
)

func (k EventKind) String() string {
	switch k {
	case KindPeriodic:
		return "po"
	case KindPeriodicUnknownOffset:
		return "pno"
	case KindSporadic:
		return "sp"
	case KindPeriodicJitter:
		return "pj"
	case KindBursty:
		return "bur"
	}
	return "?event"
}

// EventModel describes the arrival of scenario-triggering events. All times
// are exact rationals in milliseconds.
type EventModel struct {
	Kind     EventKind
	PeriodMS *big.Rat
	OffsetMS *big.Rat // KindPeriodic only
	JitterMS *big.Rat // KindPeriodicJitter and KindBursty
	MinSepMS *big.Rat // KindBursty only; nil or zero means unconstrained
}

// MS builds the exact rational num/den milliseconds.
func MS(num, den int64) *big.Rat { return new(big.Rat).SetFrac64(num, den) }

// Periodic returns a strictly periodic model with the given offset
// (Fig. 7a).
func Periodic(period, offset *big.Rat) EventModel {
	return EventModel{Kind: KindPeriodic, PeriodMS: period, OffsetMS: offset}
}

// PeriodicUnknownOffset returns a strictly periodic model with an arbitrary
// initial phase (Fig. 7b).
func PeriodicUnknownOffset(period *big.Rat) EventModel {
	return EventModel{Kind: KindPeriodicUnknownOffset, PeriodMS: period}
}

// Sporadic returns a sporadic model with minimal inter-arrival time period
// (Fig. 7c).
func Sporadic(period *big.Rat) EventModel {
	return EventModel{Kind: KindSporadic, PeriodMS: period}
}

// PeriodicJitter returns a periodic model with jitter J ≤ P (Fig. 7d).
func PeriodicJitter(period, jitter *big.Rat) EventModel {
	return EventModel{Kind: KindPeriodicJitter, PeriodMS: period, JitterMS: jitter}
}

// Bursty returns a bursty model with jitter J > P and minimal separation D
// (Fig. 8).
func Bursty(period, jitter, minSep *big.Rat) EventModel {
	return EventModel{Kind: KindBursty, PeriodMS: period, JitterMS: jitter, MinSepMS: minSep}
}

// Validate checks parameter consistency for the kind. Every error leads with
// the JSON field at fault.
func (m EventModel) Validate() error {
	pos := func(r *big.Rat) bool { return r != nil && r.Sign() > 0 }
	nonneg := func(r *big.Rat) bool { return r == nil || r.Sign() >= 0 }
	if !pos(m.PeriodMS) {
		return fmt.Errorf("period_ms: event model %s needs a positive period", m.Kind)
	}
	switch m.Kind {
	case KindPeriodic:
		if !nonneg(m.OffsetMS) {
			return fmt.Errorf("offset_ms: periodic offset must be nonnegative")
		}
	case KindPeriodicUnknownOffset, KindSporadic:
		// period only
	case KindPeriodicJitter:
		if !pos(m.JitterMS) && !(m.JitterMS != nil && m.JitterMS.Sign() == 0) {
			return fmt.Errorf("jitter_ms: periodic-with-jitter needs a nonnegative jitter")
		}
		if m.JitterMS.Cmp(m.PeriodMS) > 0 {
			return fmt.Errorf("jitter_ms: periodic-with-jitter requires J <= P; use the bursty model for J > P")
		}
	case KindBursty:
		if !pos(m.JitterMS) {
			return fmt.Errorf("jitter_ms: bursty model needs a positive jitter")
		}
		if m.JitterMS.Cmp(m.PeriodMS) <= 0 {
			return fmt.Errorf("jitter_ms: bursty model requires J > P; use periodic-with-jitter otherwise")
		}
		if !nonneg(m.MinSepMS) {
			return fmt.Errorf("min_sep_ms: bursty minimal separation must be nonnegative")
		}
		if m.MinSepMS != nil && m.MinSepMS.Cmp(m.PeriodMS) >= 0 {
			return fmt.Errorf("min_sep_ms: bursty minimal separation must be below the period")
		}
	default:
		return fmt.Errorf("kind: unknown event kind %d", m.Kind)
	}
	return nil
}

// String renders the model with its parameters.
func (m EventModel) String() string {
	switch m.Kind {
	case KindPeriodic:
		off := "0"
		if m.OffsetMS != nil {
			off = m.OffsetMS.RatString()
		}
		return fmt.Sprintf("po(P=%s, F=%s)", m.PeriodMS.RatString(), off)
	case KindPeriodicUnknownOffset:
		return fmt.Sprintf("pno(P=%s)", m.PeriodMS.RatString())
	case KindSporadic:
		return fmt.Sprintf("sp(P=%s)", m.PeriodMS.RatString())
	case KindPeriodicJitter:
		return fmt.Sprintf("pj(P=%s, J=%s)", m.PeriodMS.RatString(), m.JitterMS.RatString())
	case KindBursty:
		d := "0"
		if m.MinSepMS != nil {
			d = m.MinSepMS.RatString()
		}
		return fmt.Sprintf("bur(P=%s, J=%s, D=%s)", m.PeriodMS.RatString(), m.JitterMS.RatString(), d)
	}
	return "?event"
}

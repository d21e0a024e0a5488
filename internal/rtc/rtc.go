// Package rtc implements Modular Performance Analysis with real-time
// calculus, the fourth technique of the paper's Table 2: arrival curves of
// the standard PJD event model, greedy processing components under fixed
// priority, delay bounds as horizontal deviations between workload and
// service curves, and jitter propagation along chains.
//
// The tasks, resources, event streams, interference classification and
// global fixed point are the skeleton it shares with SymTA/S
// (internal/compos), as is the bound on a time-division bus. This package
// owns the local kernel: the delay bound of a task on a shared resource
// (delayBound, over the remaining-service curve remaining), and the output
// jitter J + d a task passes on — the PJD fitting of the output curve
// α' = α ⊘ β.
//
// As the paper notes for MPA, phase (offset) information is lost in the
// transformation to the time-interval domain, so periodic-with-offset
// streams are analyzed like unknown-offset streams, and the results are
// slightly more conservative than both the exact model-checking values and
// the busy-window bounds: end-to-end delays are sums of per-component
// horizontal deviations with full jitter re-injection at every hop.
//
// All curves here are piecewise linear with breakpoints at the event
// instants of the critical alignment, so evaluating them exactly at those
// breakpoints (rather than manipulating closed-form curve objects) computes
// the same bounds the curve algebra would.
package rtc

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/arch"
	"repro/internal/compos"
)

// Result is the end-to-end delay bound of one requirement.
type Result struct {
	Req *arch.Requirement
	// MS is the bound in milliseconds (a safe upper bound on the WCRT).
	MS *big.Rat
	// PerStepMS decomposes the bound into per-component delays.
	PerStepMS []*big.Rat
}

// realTimeCalculus is MPA's part of the compositional skeleton.
var realTimeCalculus = compos.Method{
	Name: "rtc",
	Shared: func(t *compos.Task, hp []*compos.Task, blocking int64, _ bool) (int64, error) {
		return delayBound(t, hp, blocking)
	},
	OutJitter: func(t *compos.Task) int64 { return t.R },
}

// Analyze computes MPA end-to-end delay bounds for the requirements.
func Analyze(sys *arch.System, reqs []*arch.Requirement) (map[string]*Result, error) {
	spans, _, err := compos.Analyze(sys, reqs, realTimeCalculus)
	if err != nil {
		return nil, err
	}
	out := map[string]*Result{}
	for i, req := range reqs {
		out[req.Name] = &Result{Req: req, MS: spans[i].MS, PerStepMS: spans[i].PerStepMS}
	}
	return out, nil
}

// remaining is the lower remaining-service curve after blocking and the
// interfering workload: β'(Δ) = sup_{0≤λ≤Δ} (λ − B − Σ W_hp(λ))⁺.
// The sup over the prefix is evaluated at interval right-endpoints, which is
// exact because the integrand rises with slope one between workload jumps.
type remaining struct {
	hp       []*compos.Task
	blocking int64
}

func (r remaining) at(delta int64) int64 {
	if delta <= 0 {
		return 0
	}
	best := int64(0)
	eval := func(lambda int64) {
		if lambda <= 0 || lambda > delta {
			return
		}
		v := lambda - r.blocking
		for _, h := range r.hp {
			v -= h.In.EtaPlus(lambda) * h.C
		}
		if v > best {
			best = v
		}
	}
	eval(delta)
	for _, h := range r.hp {
		// Jump points of h's staircase below delta: evaluate just at them
		// (the left limit of each jump is the local maximum).
		n := h.In.EtaPlus(delta)
		const maxJumps = 1 << 16
		if n > maxJumps {
			return best // utilization pathologies are caught by the caller
		}
		for q := int64(1); q <= n; q++ {
			eval(h.In.Event(q))
		}
	}
	return best
}

// inverse returns the smallest Δ with at(Δ) ≥ w, by doubling plus binary
// search on the monotone remaining-service curve.
func (r remaining) inverse(w int64) (int64, error) {
	if w <= 0 {
		return 0, nil
	}
	lo, hi := int64(0), int64(1)
	for r.at(hi) < w {
		hi *= 2
		if hi > 1<<40 {
			return 0, fmt.Errorf("service never provides %d units (overload)", w)
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if r.at(mid) >= w {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// errBusyPeriod is the overload a delay bound refuses when t's busy period
// never closes.
var errBusyPeriod = errors.New("busy period does not close (overload)")

// delayBound is the horizontal deviation between t's upper workload curve
// and its lower remaining-service curve. A resource whose long-run demand
// exceeds its supply (overloaded) is refused before the busy-period search,
// which could only end in an overload error, after up to 4,096 steps.
func delayBound(t *compos.Task, hp []*compos.Task, blocking int64) (int64, error) {
	if overloaded(t, hp) {
		return 0, errBusyPeriod
	}
	return busyPeriod(t, hp, blocking)
}

// overloaded reports whether the long-run demand of t and hp on their
// resource, U = Σ_hp C/max(P,D) + ChainC_t/max(P_t,D_t), is strictly above 1,
// computed exactly. A stream's q-th event comes no later than
// (q−1)·max(P,D) under the critical alignment (compos.Stream.Event), so
// η⁺(λ) ≥ λ/max(P,D).
//
// Such a resource never yields a bound: suppose busyPeriod closed at
// activation q, with f = finish(q) ≤ Event(q+1) ≤ q·max(P_t,D_t). Its
// remaining service reached q·ChainC_t > 0 by f, so some 0 < λ ≤ f has
// λ − B − Σ_hp η⁺_h(λ)·C_h ≥ q·ChainC_t (remaining.at is a maximum over such
// λ, each evaluated exactly), and with B ≥ 0 and q ≥ f/max(P_t,D_t) ≥
// λ/max(P_t,D_t) that gives λ ≥ U_hp·λ + λ·ChainC_t/max(P_t,D_t) = U·λ > λ, a
// contradiction. So refusing it early turns no bound into an error.
func overloaded(t *compos.Task, hp []*compos.Task) bool {
	var u, term big.Rat
	add := func(c int64, s compos.Stream) {
		u.Add(&u, term.SetFrac64(c, max(s.P, s.D)))
	}
	for _, h := range hp {
		add(h.C, h.In)
	}
	add(t.ChainC, t.In)
	return u.Cmp(big.NewRat(1, 1)) > 0
}

// busyPeriod runs the busy period of t activation by activation: the delay
// bound is the largest finish(q) − Event(q) before the backlog clears.
func busyPeriod(t *compos.Task, hp []*compos.Task, blocking int64) (int64, error) {
	rem := remaining{hp: hp, blocking: blocking}
	worst := int64(0)
	const maxQ = 4096
	for q := int64(1); q <= maxQ; q++ {
		finish, err := rem.inverse(q * t.ChainC)
		if err != nil {
			return 0, err
		}
		if resp := finish - t.In.Event(q); resp > worst {
			worst = resp
		}
		// Busy period closes once the backlog clears before the next
		// arrival.
		if q < maxQ && finish <= t.In.Event(q+1) {
			return worst, nil
		}
	}
	return 0, errBusyPeriod
}

// Package symta implements compositional fixed-priority response-time
// analysis in the style of SymTA/S (Symbolic Timing Analysis for Systems),
// the third technique of the paper's Table 2: classical busy-window analysis
// per resource (Lehoczky/Tindell/Richter), standard (P, J, D) event models,
// and jitter propagation along scenario chains iterated to a global fixed
// point.
//
// The tasks, resources, event streams, interference classification and
// global fixed point are the skeleton it shares with MPA (internal/compos).
// The bound on a time-division bus is shared too. This package owns the
// local kernel: the busy window of a task on a shared resource
// (busyWindow), and the output jitter J + max(0, R − C) a task passes on —
// the response-time variation of an activation that may also run at once.
//
// Like the real tool, the analysis is safe but not exact: every reported
// end-to-end latency is an upper bound on the true WCRT. Also like the real
// tool (as the paper notes), periodic streams with known offsets are
// analyzed as if their offsets were unknown, so the "po" column equals the
// "pno" column.
package symta

import (
	"fmt"
	"math/big"

	"repro/internal/arch"
	"repro/internal/compos"
)

// Result is the end-to-end latency bound of one requirement.
type Result struct {
	Req *arch.Requirement
	// MS is the latency bound in milliseconds.
	MS *big.Rat
	// PerStepMS decomposes the bound into per-step response times.
	PerStepMS []*big.Rat
	// Iterations is the number of global fixed-point rounds used.
	Iterations int
}

// busyWindowAnalysis is SymTA/S's part of the compositional skeleton.
var busyWindowAnalysis = compos.Method{
	Name:      "symta",
	Shared:    busyWindow,
	OutJitter: func(t *compos.Task) int64 { return max(0, t.R-t.C) },
}

// Analyze computes end-to-end latency bounds for the requirements by global
// fixed-point iteration of per-resource busy-window analysis with jitter
// propagation.
func Analyze(sys *arch.System, reqs []*arch.Requirement) (map[string]*Result, error) {
	spans, rounds, err := compos.Analyze(sys, reqs, busyWindowAnalysis)
	if err != nil {
		return nil, err
	}
	out := map[string]*Result{}
	for i, req := range reqs {
		out[req.Name] = &Result{Req: req, MS: spans[i].MS, PerStepMS: spans[i].PerStepMS, Iterations: rounds}
	}
	return out, nil
}

// busyWindow computes the worst-case response time of task t under the given
// interferers, blocking term, and preemption discipline.
func busyWindow(t *compos.Task, hp []*compos.Task, blocking int64, preemptive bool) (int64, error) {
	const maxQ = 4096
	worst := int64(0)
	for q := int64(1); ; q++ {
		if q > maxQ {
			return 0, fmt.Errorf("busy window does not close (overload)")
		}
		var w int64
		if !preemptive {
			// Fixed point on the start time of the q-th activation; higher
			// priority work arriving before the start delays it. Earlier
			// activations carry their chain partners' work (ChainC); the
			// partner work of the q-th event may also precede its own step.
			base := blocking + (q-1)*t.ChainC + (t.ChainC - t.C)
			s := base
			for iter := 0; ; iter++ {
				if iter > 10000 {
					return 0, fmt.Errorf("start-time iteration diverges (overload)")
				}
				next := base
				for _, o := range hp {
					next += o.In.EtaPlus(s+1) * o.C
				}
				if next == s {
					break
				}
				s = next
			}
			w = s + t.C
		} else {
			w = blocking + q*t.ChainC
			for iter := 0; ; iter++ {
				if iter > 10000 {
					return 0, fmt.Errorf("busy-window iteration diverges (overload)")
				}
				next := blocking + q*t.ChainC
				for _, o := range hp {
					next += o.In.EtaPlus(w) * o.C
				}
				if next == w {
					break
				}
				w = next
			}
		}
		// Response measured from the activation's own arrival: in the
		// critical instant the q-th activation arrives at
		// max(0, (q-1)·P − J) after the busy period starts.
		arrival := (q-1)*t.In.P - t.In.J
		if arrival < 0 {
			arrival = 0
		}
		resp := w - arrival
		if resp > worst {
			worst = resp
		}
		// The level busy period closes once the q-th window ends before the
		// (q+1)-th activation can arrive.
		if w <= q*t.In.P-t.In.J {
			break
		}
	}
	return worst, nil
}

// Package compos is the compositional skeleton that SymTA/S
// (internal/symta) and Modular Performance Analysis (internal/rtc) share,
// the two analytic techniques of the paper's Table 2. Both cut the
// architecture into one task per scenario step on one resource per
// processor or bus, analyze each resource locally against standard
// (P, J, D) event streams, and propagate the output stream of every task to
// the next step of its scenario, iterating the whole system to a global
// fixed point. What they share lives here:
//
//   - the tasks, with their durations, effective priorities and
//     declaration order, read from the architecture's timing view
//     (arch.Timing), and the resources that group them;
//   - the folding of same-scenario equal-priority partners into ChainC;
//   - the input stream of each event kind;
//   - the classification of a resource's other tasks into interferers and
//     the longest blocking one;
//   - the global fixed point of at most 200 rounds;
//   - the bound of a task on a time-division bus (tdmaResponse), which
//     both techniques compute alike;
//   - the per-requirement sum of per-step bounds.
//
// What differs is a Method: the local kernel that bounds one task on a
// shared resource, and the jitter a task adds to its output stream. symta
// owns busy-window analysis (output jitter R − C); rtc owns the delay bound
// of real-time calculus (output jitter d).
//
// Phase (offset) information is lost in the event streams, so periodic
// streams with known offsets are analyzed like unknown-offset ones, as the
// paper notes for both tools.
package compos

import (
	"fmt"
	"math/big"

	"repro/internal/arch"
)

// Stream is the standard (P, J, D) event model in integer time units:
// period, jitter, minimal separation (0 for none).
type Stream struct {
	P, J, D int64
}

// EtaPlus is the upper event-count function η⁺(Δ): the most activations in
// any half-open time window of positive length delta. It is also the number
// of events a_q < delta under the critical alignment (Event), so a task's
// upper workload staircase in real-time calculus is EtaPlus(Δ)·C.
func (s Stream) EtaPlus(delta int64) int64 {
	if delta <= 0 {
		return 0
	}
	n := ceilDiv(delta+s.J, s.P)
	if s.D > 0 {
		// The q-th event comes no earlier than (q-1)·D after the first.
		if m := ceilDiv(delta, s.D); m < n {
			n = m
		}
	}
	return n
}

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Event returns the instant a_q of the q-th event (q ≥ 1) under the
// critical alignment of the upper arrival curve: as early as the period and
// jitter allow, (q-1)·P − J but not before 0, and at least D after the one
// before, so no earlier than (q-1)·D.
func (s Stream) Event(q int64) int64 {
	return max(0, (q-1)*s.P-s.J, (q-1)*s.D)
}

// Task is one scenario step bound to a resource.
type Task struct {
	Name string
	// C is the worst-case execution or transfer time in units.
	C    int64
	Prio int
	// seq breaks priority ties deterministically (declaration order):
	// classical busy-window analysis requires unique priorities per
	// resource, and mutual interference between equal-priority tasks can
	// diverge under jitter propagation.
	seq int
	// ChainC is C plus the execution times of same-scenario equal-priority
	// tasks on the same resource: those partners share the event stream and
	// are served FIFO, so each activation brings their work along. Charging
	// it per activation keeps the bound above the exact WCRT without the
	// divergent mutual-interference cycle.
	ChainC int64
	sc     *arch.Scenario
	// In is the task's input event stream.
	In Stream
	// TDMACycle is the cycle length when the task runs on a time-division
	// bus (0 otherwise).
	TDMACycle int64
	// R is the method's bound on the task's response, from its activation
	// to its completion.
	R int64
}

// Method is what a compositional analysis owns beyond the skeleton.
type Method struct {
	// Name prefixes the method's errors.
	Name string
	// Shared bounds task t on a processor or bus shared by
	// non-deterministic or fixed-priority dispatch: hp interferes with t,
	// and blocking is the longest lower-priority task that may hold the
	// resource when t arrives (0 under preemption).
	Shared func(t *Task, hp []*Task, blocking int64, preemptive bool) (int64, error)
	// OutJitter is the jitter task t adds to the stream it passes on.
	OutJitter func(t *Task) int64
}

// resource groups the tasks sharing one processor or bus.
type resource struct {
	name  string
	sched arch.SchedKind
	tasks []*Task
}

// Span is the end-to-end bound of one requirement.
type Span struct {
	// MS is the bound in milliseconds.
	MS *big.Rat
	// PerStepMS decomposes the bound into per-step bounds.
	PerStepMS []*big.Rat
}

// maxRounds caps the global fixed point.
const maxRounds = 200

// Analyze bounds every requirement with method m: it iterates local
// analysis and stream propagation to the global fixed point and sums the
// per-step bounds of each requirement's span. It returns the spans,
// parallel to reqs, and the number of fixed-point rounds used.
func Analyze(sys *arch.System, reqs []*arch.Requirement, m Method) ([]Span, int, error) {
	tm, err := sys.Timing()
	if err != nil {
		return nil, 0, err
	}

	// One task per scenario step, resources keyed by hardware element.
	taskOf := map[*arch.Scenario][]*Task{}
	resOf := map[any]*resource{}
	var resources []*resource
	seq := 0
	for si, sc := range sys.Scenarios {
		tasks := make([]*Task, len(sc.Steps))
		for i := range sc.Steps {
			st := &sc.Steps[i]
			t := &Task{Name: sc.Name + "." + st.Name, C: tm.Scenarios[si].Steps[i],
				Prio: st.EffectivePriority(sc), seq: seq, sc: sc}
			seq++
			tasks[i] = t
			var key any = st.Proc
			name, sched := "", arch.SchedFP
			if st.IsCompute() {
				name, sched = st.Proc.Name, st.Proc.Sched
			} else {
				key, name, sched = st.Bus, st.Bus.Name, st.Bus.Sched
				if sched == arch.SchedTDMA {
					t.TDMACycle = tm.TDMA[st.Bus].Cycle
				}
			}
			r := resOf[key]
			if r == nil {
				r = &resource{name: name, sched: sched}
				resOf[key] = r
				resources = append(resources, r)
			}
			r.tasks = append(r.tasks, t)
		}
		taskOf[sc] = tasks
	}

	// Same-scenario equal-priority co-residents share the event stream:
	// fold their execution time into ChainC.
	for _, r := range resources {
		for _, t := range r.tasks {
			t.ChainC = t.C
			for _, o := range r.tasks {
				if o != t && o.sc == t.sc && o.Prio == t.Prio {
					t.ChainC += o.C
				}
			}
		}
	}

	// Global fixed point: propagate every scenario's stream along its chain
	// (the output keeps the period and gains the method's output jitter)
	// and analyze every resource, until a round's propagation changes no
	// input stream. That round stops before it analyzes: its inputs are the
	// previous round's, and so would be every bound.
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		changed := false
		for si, sc := range sys.Scenarios {
			in := inputStream(sc.Arrival.Kind, &tm.Scenarios[si])
			for _, t := range taskOf[sc] {
				if t.In != in {
					t.In = in
					changed = true
				}
				in = Stream{P: in.P, J: in.J + m.OutJitter(t)}
			}
		}
		if !changed && rounds > 0 {
			break
		}
		for _, r := range resources {
			if err := m.analyzeResource(r); err != nil {
				return nil, 0, err
			}
		}
	}

	spans := make([]Span, len(reqs))
	for k, req := range reqs {
		if err := req.Validate(); err != nil {
			return nil, 0, err
		}
		tasks := taskOf[req.Scenario]
		if tasks == nil {
			return nil, 0, fmt.Errorf("%s: requirement %s references unknown scenario", m.Name, req.Name)
		}
		total := int64(0)
		for i := req.FromStep + 1; i <= req.ToStep; i++ {
			total += tasks[i].R
			spans[k].PerStepMS = append(spans[k].PerStepMS, arch.UnitsToMS(tasks[i].R, tm.Scale))
		}
		spans[k].MS = arch.UnitsToMS(total, tm.Scale)
	}
	return spans, rounds, nil
}

// inputStream is the stream a scenario's arrival model injects: strictly
// periodic and sporadic models are (P, 0, 0), periodic with jitter is
// (P, J, 0), and bursty is (P, J, D).
func inputStream(kind arch.EventKind, st *arch.ScenarioTiming) Stream {
	switch kind {
	case arch.KindPeriodic, arch.KindPeriodicUnknownOffset, arch.KindSporadic:
		return Stream{P: st.Period}
	case arch.KindPeriodicJitter:
		return Stream{P: st.Period, J: st.Jitter}
	}
	return Stream{P: st.Period, J: st.Jitter, D: st.MinSep}
}

// analyzeResource bounds every task on one resource: with the method's
// kernel on a shared one, with tdmaResponse on a time-division bus.
func (m Method) analyzeResource(r *resource) error {
	for _, t := range r.tasks {
		var (
			R   int64
			err error
		)
		if r.sched == arch.SchedTDMA {
			// Dedicated slots: no cross-scenario interference.
			R, err = tdmaResponse(t)
		} else {
			hp, blocking := r.interference(t)
			R, err = m.Shared(t, hp, blocking, r.sched == arch.SchedFPPreempt)
		}
		if err != nil {
			return fmt.Errorf("%s: resource %s task %s: %w", m.Name, r.name, t.Name, err)
		}
		t.R = R
	}
	return nil
}

// interference classifies the other tasks on r for task t: the tasks that
// interfere with it, and the longest one that may block it.
func (r *resource) interference(t *Task) (hp []*Task, blocking int64) {
	for _, o := range r.tasks {
		if o == t {
			continue
		}
		switch {
		case r.sched == arch.SchedNondet:
			// Any pending work may be chosen first: everyone interferes,
			// and any one job may block.
			hp = append(hp, o)
			if o.C > blocking {
				blocking = o.C
			}
		case o.sc == t.sc && o.Prio == t.Prio:
			// Folded into ChainC.
		case o.Prio > t.Prio || (o.Prio == t.Prio && o.seq < t.seq):
			// Higher priority interferes; cross-scenario equal priorities
			// are broken by declaration order (the unique-priority
			// requirement of classical busy-window analysis).
			hp = append(hp, o)
		case r.sched != arch.SchedFPPreempt && o.C > blocking:
			// Non-preemptive: one lower-priority job may block.
			blocking = o.C
		}
	}
	return hp, blocking
}

// tdmaResponse bounds the response of task t on a one-message-per-slot TDMA
// bus, one grant every t.TDMACycle: under the worst alignment grants occur
// at k·cycle after the critical instant, and the q-th queued message is
// served at grant max(q, floor(a_q/cycle)+1).
func tdmaResponse(t *Task) (int64, error) {
	const maxQ = 4096
	cycle := t.TDMACycle
	worst := int64(0)
	for q := int64(1); q <= maxQ; q++ {
		aq := t.In.Event(q)
		k := max(q, aq/cycle+1)
		if resp := k*cycle + t.C - aq; resp > worst {
			worst = resp
		}
		// The backlog clears once the next arrival lands after the grant
		// that served the q-th message; a fresh message then waits at most
		// one cycle, which the q = 1 case already covers.
		if t.In.Event(q+1) >= k*cycle {
			return worst, nil
		}
	}
	return 0, fmt.Errorf("TDMA backlog does not clear (slot rate below arrival rate)")
}

// Package sim is a discrete-event simulator for the architecture
// descriptions of internal/arch. It plays the role POOSL/SHESIM plays in the
// paper's Table 2: the same system is executed with concrete, randomly
// sampled event streams, and the largest observed response time is reported.
//
// Simulation can only ever underestimate the worst case — the paper's
// central observation about simulation-based performance analysis — because
// only finitely many offset/jitter choices are exercised. The cross-check
// tests in this package assert exactly that relation against the model
// checker. Durations, arrival parameters and TDMA slots are read from the
// system's timing view (arch.System.Timing), the integers the model checker
// is compiled from, so a system the checker refuses is refused here too.
package sim

import (
	"container/heap"
	"fmt"
	"math/big"
	"math/rand"
	"sort"

	"repro/internal/arch"
)

// Options configures a simulation campaign.
type Options struct {
	// Seed makes the campaign reproducible.
	Seed int64
	// HorizonMS is the simulated time per replication in milliseconds
	// (default 60000).
	HorizonMS int64
	// Replications is the number of independent runs, each with freshly
	// sampled offsets and jitters (default 20; a negative count is refused).
	Replications int
}

func (o Options) withDefaults() Options {
	if o.HorizonMS == 0 {
		o.HorizonMS = 60000
	}
	if o.Replications == 0 {
		o.Replications = 20
	}
	return o
}

// Result summarizes the observed response times of one requirement.
type Result struct {
	Req *arch.Requirement
	// MaxMS is the largest observed response time (a lower bound on the
	// WCRT).
	MaxMS *big.Rat
	// MeanMS is the mean over all completed activations.
	MeanMS *big.Rat
	// P50MS, P95MS, P99MS are latency percentiles over all activations —
	// the distribution view a discrete-event simulator offers that the
	// worst-case techniques cannot.
	P50MS, P95MS, P99MS *big.Rat
	// Completed counts measured activations across all replications.
	Completed int64
}

// Simulate runs the campaign and reports per-requirement observations.
func Simulate(sys *arch.System, reqs []*arch.Requirement, opts Options) (map[string]*Result, error) {
	opts = opts.withDefaults()
	if opts.Replications < 0 {
		return nil, fmt.Errorf("sim: simulation replications: negative count %d", opts.Replications)
	}
	tm, err := sys.Timing()
	if err != nil {
		return nil, err
	}
	horizon, err := tm.HorizonUnits(opts.HorizonMS, "simulation horizon_ms")
	if err != nil {
		return nil, err
	}
	out := map[string]*Result{}
	type acc struct {
		max     int64
		sum     *big.Int
		count   int64
		samples []int64
	}
	accs := map[string]*acc{}
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		out[r.Name] = &Result{Req: r}
		accs[r.Name] = &acc{sum: new(big.Int)}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for rep := 0; rep < opts.Replications; rep++ {
		run := newRun(sys, tm, horizon, rand.New(rand.NewSource(rng.Int63())))
		run.execute()
		for _, r := range reqs {
			a := accs[r.Name]
			for _, inst := range run.finished {
				if inst.sc != r.Scenario {
					continue
				}
				start := inst.inject
				if r.FromStep >= 0 {
					start = inst.doneAt[r.FromStep]
				}
				lat := inst.doneAt[r.ToStep] - start
				if lat > a.max {
					a.max = lat
				}
				a.sum.Add(a.sum, big.NewInt(lat))
				a.count++
				a.samples = append(a.samples, lat)
			}
		}
	}
	for name, a := range accs {
		res := out[name]
		res.Completed = a.count
		res.MaxMS = arch.UnitsToMS(a.max, tm.Scale)
		if a.count > 0 {
			mean := new(big.Rat).SetFrac(a.sum, new(big.Int).Mul(tm.Scale, big.NewInt(a.count)))
			res.MeanMS = mean
		} else {
			res.MeanMS = new(big.Rat)
		}
		sortInt64(a.samples)
		res.P50MS = arch.UnitsToMS(percentile(a.samples, 50), tm.Scale)
		res.P95MS = arch.UnitsToMS(percentile(a.samples, 95), tm.Scale)
		res.P99MS = arch.UnitsToMS(percentile(a.samples, 99), tm.Scale)
	}
	return out, nil
}

// instance is one activation of a scenario flowing through its step chain.
type instance struct {
	sc        *arch.Scenario
	step      int
	prio      int // the current step's effective priority
	inject    int64
	seq       int64 // FIFO tiebreaker within equal priority
	remaining int64 // work left in the current step (for preemption)
	doneAt    []int64
}

// resource is the runtime state of one processor or bus.
type resource struct {
	name       string
	sched      arch.SchedKind
	preemptive bool
	tdma       *arch.TDMAConfig // non-nil for time-division buses
	queue      []*instance
	running    *instance
	lastStart  int64 // when the running instance (re)started
	token      int64 // invalidates stale completion events
}

// event is a calendar entry.
type event struct {
	at    int64
	kind  int // 0 arrival, 1 completion, 2 TDMA grant
	inst  *instance
	res   *resource
	sc    *arch.Scenario // grant owner (kind 2)
	token int64
	idx   int
}

type calendar []*event

func (c calendar) Len() int { return len(c) }
func (c calendar) Less(i, j int) bool {
	if c[i].at != c[j].at {
		return c[i].at < c[j].at
	}
	// Arrivals before completions at equal times keeps queueing pessimistic.
	return c[i].kind < c[j].kind
}
func (c calendar) Swap(i, j int) { c[i], c[j] = c[j], c[i]; c[i].idx = i; c[j].idx = j }
func (c *calendar) Push(x any)   { e := x.(*event); e.idx = len(*c); *c = append(*c, e) }
func (c *calendar) Pop() any {
	old := *c
	n := len(old)
	e := old[n-1]
	*c = old[:n-1]
	return e
}

// run is one replication.
type run struct {
	sys      *arch.System
	horizon  int64
	rng      *rand.Rand
	cal      calendar
	res      map[any]*resource
	durs     map[*arch.Scenario][]int64
	finished []*instance
	seq      int64
}

func newRun(sys *arch.System, tm *arch.Timing, horizon int64, rng *rand.Rand) *run {
	r := &run{
		sys: sys, horizon: horizon, rng: rng,
		res:  map[any]*resource{},
		durs: map[*arch.Scenario][]int64{},
	}
	for _, p := range sys.Processors {
		r.res[p] = &resource{name: p.Name, sched: p.Sched,
			preemptive: p.Sched == arch.SchedFPPreempt}
	}
	for _, b := range sys.Buses {
		res := &resource{name: b.Name, sched: b.Sched,
			preemptive: b.Sched == arch.SchedFPPreempt}
		if b.Sched == arch.SchedTDMA {
			res.tdma = b.TDMA
		}
		r.res[b] = res
	}
	for i, sc := range sys.Scenarios {
		r.durs[sc] = tm.Scenarios[i].Steps
		for _, t := range r.sampleArrivals(sc.Arrival.Kind, &tm.Scenarios[i]) {
			inst := &instance{sc: sc, inject: t,
				doneAt: make([]int64, len(sc.Steps))}
			heap.Push(&r.cal, &event{at: t, kind: 0, inst: inst})
		}
	}
	// TDMA buses: schedule a grant per slot per cycle up to the horizon
	// (plus slack for in-flight work).
	for _, b := range sys.Buses {
		tt := tm.TDMA[b]
		if tt == nil {
			continue
		}
		for i, sl := range tt.Slots {
			for t := sl.Start; t <= horizon+2*tt.Cycle; t += tt.Cycle {
				heap.Push(&r.cal, &event{at: t, kind: 2, res: r.res[b], sc: b.TDMA.Slots[i].Scenario})
			}
		}
	}
	return r
}

// sampleArrivals draws one concrete event stream of the given kind with the
// scenario's arrival parameters st, up to the horizon.
func (r *run) sampleArrivals(kind arch.EventKind, st *arch.ScenarioTiming) []int64 {
	period, jitter, minSep := st.Period, st.Jitter, st.MinSep
	var times []int64
	switch kind {
	case arch.KindPeriodic:
		for t := st.Offset; t <= r.horizon; t += period {
			times = append(times, t)
		}
	case arch.KindPeriodicUnknownOffset:
		phase := r.rng.Int63n(period)
		for t := phase; t <= r.horizon; t += period {
			times = append(times, t)
		}
	case arch.KindSporadic:
		// Separations of at least one period, with occasional slack: a
		// sporadic source admits infinitely many behaviors, of which a
		// simulation samples only a few.
		t := r.rng.Int63n(period)
		for t <= r.horizon {
			times = append(times, t)
			gap := period
			if r.rng.Intn(2) == 0 {
				gap += r.rng.Int63n(period/2 + 1)
			}
			t += gap
		}
	case arch.KindPeriodicJitter:
		phase := r.rng.Int63n(period)
		for k := int64(0); ; k++ {
			t := phase + k*period + r.rng.Int63n(jitter+1)
			if phase+k*period > r.horizon {
				break
			}
			times = append(times, t)
		}
	case arch.KindBursty:
		phase := r.rng.Int63n(period)
		var raw []int64
		for k := int64(0); phase+k*period <= r.horizon; k++ {
			raw = append(raw, phase+k*period+r.rng.Int63n(jitter+1))
		}
		// Order-preserving FIFO release with the minimal separation.
		sortInt64(raw)
		last := int64(-1 << 62)
		for _, t := range raw {
			if t <= last+minSep {
				t = last + minSep + 1
			}
			times = append(times, t)
			last = t
		}
	}
	return times
}

func sortInt64(a []int64) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// execute drains the calendar.
func (r *run) execute() {
	for r.cal.Len() > 0 {
		e := heap.Pop(&r.cal).(*event)
		switch e.kind {
		case 0: // arrival of an instance at its current step's resource
			r.enqueue(e.at, e.inst)
		case 1: // completion of the running instance on a resource
			res := e.res
			if res.token != e.token || res.running == nil {
				continue // superseded by a preemption
			}
			r.complete(e.at, res)
		case 2: // TDMA grant: start one pending message of the slot owner
			res := e.res
			if res.running != nil {
				continue
			}
			best := -1
			for i, inst := range res.queue {
				if inst.sc == e.sc && (best < 0 || inst.seq < res.queue[best].seq) {
					best = i
				}
			}
			if best >= 0 {
				inst := res.queue[best]
				res.queue = append(res.queue[:best], res.queue[best+1:]...)
				r.start(e.at, res, inst)
			}
		}
	}
}

func (r *run) resourceOf(inst *instance) *resource {
	st := &inst.sc.Steps[inst.step]
	if st.IsCompute() {
		return r.res[st.Proc]
	}
	return r.res[st.Bus]
}

// enqueue delivers an instance to its step's resource, possibly preempting,
// at the step's priority (a step may override its scenario's). Fresh
// arrivals get the step's full duration as remaining work; preempted
// instances re-enter the queue keeping their banked remainder.
func (r *run) enqueue(now int64, inst *instance) {
	inst.seq = r.seq
	r.seq++
	inst.prio = inst.sc.Steps[inst.step].EffectivePriority(inst.sc)
	inst.remaining = r.durs[inst.sc][inst.step]
	res := r.resourceOf(inst)
	r.offer(now, res, inst)
}

// offer places an instance on a resource: run it, preempt for it, or queue it.
// On TDMA buses instances always queue and wait for their slot grant.
func (r *run) offer(now int64, res *resource, inst *instance) {
	if res.tdma != nil {
		res.queue = append(res.queue, inst)
		return
	}
	if res.running == nil {
		r.start(now, res, inst)
		return
	}
	if res.preemptive && inst.prio > res.running.prio {
		// Preempt: bank the remaining work of the running instance.
		prev := res.running
		prev.remaining -= now - res.lastStart
		res.queue = append(res.queue, prev)
		res.running = nil
		res.token++
		r.start(now, res, inst)
		return
	}
	res.queue = append(res.queue, inst)
}

// start begins (or resumes) executing an instance on an idle resource.
func (r *run) start(now int64, res *resource, inst *instance) {
	res.running = inst
	res.lastStart = now
	res.token++
	heap.Push(&r.cal, &event{at: now + inst.remaining, kind: 1, res: res, token: res.token})
}

// complete finishes the running instance's current step and dispatches the
// next pending one.
func (r *run) complete(now int64, res *resource) {
	inst := res.running
	res.running = nil
	inst.doneAt[inst.step] = now
	if inst.step+1 < len(inst.sc.Steps) {
		inst.step++
		r.enqueue(now, inst)
	} else if now <= r.horizon {
		r.finished = append(r.finished, inst)
	}
	r.dispatch(now, res)
}

// dispatch picks the next instance for an idle resource per its scheduler.
// TDMA buses dispatch only on grant events.
func (r *run) dispatch(now int64, res *resource) {
	if res.tdma != nil || len(res.queue) == 0 || res.running != nil {
		return
	}
	best := 0
	switch res.sched {
	case arch.SchedNondet:
		best = r.rng.Intn(len(res.queue))
	default: // fixed priority, FIFO among equals
		for i := 1; i < len(res.queue); i++ {
			q, b := res.queue[i], res.queue[best]
			if q.prio > b.prio || (q.prio == b.prio && q.seq < b.seq) {
				best = i
			}
		}
	}
	inst := res.queue[best]
	res.queue = append(res.queue[:best], res.queue[best+1:]...)
	r.start(now, res, inst)
}

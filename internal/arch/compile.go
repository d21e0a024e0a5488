package arch

import (
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/internal/ta"
)

// Options tunes model compilation.
type Options struct {
	// QueueCap bounds every step's pending-event counter; exceeding it
	// surfaces as an analysis error (system overload or cap too small).
	// Default 8.
	QueueCap int64
	// HorizonMS is the observation horizon of the measuring automaton in
	// milliseconds: response times up to this value are computed exactly,
	// anything beyond reports as unbounded. Default 2000.
	HorizonMS int64
	// HorizonMSFor optionally overrides HorizonMS per requirement, so
	// requirements with very different time scales each get a tight
	// extrapolation horizon in the one network CompileAll builds. nil, or a
	// non-positive return, falls back to HorizonMS.
	HorizonMSFor func(*Requirement) int64
}

// horizonMS is req's effective observation horizon in milliseconds.
func (o Options) horizonMS(req *Requirement) int64 {
	if o.HorizonMSFor != nil {
		if h := o.HorizonMSFor(req); h > 0 {
			return h
		}
	}
	return o.HorizonMS
}

func (o Options) withDefaults() Options {
	if o.QueueCap == 0 {
		o.QueueCap = 8
	}
	if o.HorizonMS == 0 {
		o.HorizonMS = 2000
	}
	return o
}

// Observer locates the measuring automaton inside the compiled network.
type Observer struct {
	Proc ta.ProcID
	Seen ta.LocID
	Y    ta.Clock
}

// CompiledSet is a system description translated once for a whole set of
// requirements: one network carrying N measuring observers (Fig. 9), each
// with its own clock and "seen" location, listening on shared broadcast
// completion channels. It is the one handle to a compiled architecture:
// every question is a method — Analyze (every WCRT from one exploration),
// Witness (a critical-instant trace for one of them) and DeadlockFree. The
// observers are pure listeners — they never emit, guard only their own
// variables, and pass through committed zero-time states — so each one
// measures exactly what it would measure compiled alone, and a set of one
// requirement is the single-requirement analysis.
type CompiledSet struct {
	Sys   *System
	Reqs  []*Requirement
	Net   *ta.Network
	Scale *big.Int // model time units per millisecond
	// Horizons holds each requirement's observation horizon in units,
	// parallel to Reqs.
	Horizons []int64
	// Obs locates each requirement's measuring automaton, parallel to Reqs.
	Obs []Observer
}

// UnitsToMS converts a model-time value to exact milliseconds.
func (cs *CompiledSet) UnitsToMS(u int64) *big.Rat { return UnitsToMS(u, cs.Scale) }

// AtSeen returns the state predicate "observer i is in its seen location".
func (cs *CompiledSet) AtSeen(i int) func(*core.State) bool {
	proc, seen := cs.Obs[i].Proc, cs.Obs[i].Seen
	return func(s *core.State) bool { return s.Locs[proc] == seen }
}

// CompileAll translates the system plus every requirement into ONE network
// of timed automata following the paper's patterns: one automaton per
// processor (Fig. 4 or Fig. 5 depending on the scheduler), one per bus
// (Fig. 6), one environment automaton per scenario (Fig. 7a–d, Fig. 8),
// built exactly once, and one measuring observer (Fig. 9) per requirement.
// Observation signals (injection of a scenario, completion of a step) become
// broadcast channels shared by every observer that listens to them, so a
// step completion that ends one requirement's span and starts another's is a
// single edge heard by both observers.
//
// The horizon of each observer comes from Options.HorizonMSFor when set,
// else Options.HorizonMS. Requirement names must be unique within one
// compilation (they name the observer automata).
func CompileAll(sys *System, reqs []*Requirement, opts Options) (*CompiledSet, error) {
	opts = opts.withDefaults()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("arch: CompileAll needs at least one requirement to observe")
	}
	names := map[string]bool{}
	for _, req := range reqs {
		if req == nil {
			return nil, fmt.Errorf("arch: CompileAll: nil requirement")
		}
		if err := req.Validate(); err != nil {
			return nil, err
		}
		if sys.ScenarioByName(req.Scenario.Name) != req.Scenario {
			return nil, fmt.Errorf("arch: requirement %s references a scenario outside the system", req.Name)
		}
		if names[req.Name] {
			return nil, fmt.Errorf("arch: duplicate requirement name %q in one compilation", req.Name)
		}
		names[req.Name] = true
	}
	tm, err := sys.timing()
	if err != nil {
		return nil, err
	}
	horizons := make([]int64, len(reqs))
	for i, req := range reqs {
		if horizons[i], err = toUnits(new(big.Rat).SetInt64(opts.horizonMS(req)), tm.Scale,
			timeField{kind: "requirement", name: req.Name, field: "horizon"}); err != nil {
			return nil, err
		}
	}

	b := &builder{
		sys:      sys,
		reqs:     reqs,
		opts:     opts,
		tm:       tm,
		net:      ta.NewNetwork(sys.Name),
		qv:       map[*Scenario][]ta.IntVar{},
		injectCh: map[*Scenario]ta.ChanID{},
		doneCh:   map[scStep]ta.ChanID{},
	}
	b.hurry = b.net.AddChan("hurry", ta.BroadcastUrgent)

	// Pending-event counters, one per scenario step (the shared-variable
	// interface between environment, processors, and buses described in
	// Sections 3.1–3.2).
	for _, sc := range sys.Scenarios {
		vars := make([]ta.IntVar, len(sc.Steps))
		for i := range sc.Steps {
			vars[i] = b.net.AddVar(sc.Name+"."+sc.Steps[i].Name+".q", 0, 0, opts.QueueCap)
		}
		b.qv[sc] = vars
	}

	// Observation channels: each requirement's start signal is either the
	// injection of the measured scenario's events or the completion of
	// FromStep; its end signal is the completion of ToStep. Requirements
	// listening to the same signal share one broadcast channel.
	b.starts = make([]ta.ChanID, len(reqs))
	b.ends = make([]ta.ChanID, len(reqs))
	for i, req := range reqs {
		if req.FromStep == -1 {
			b.starts[i] = b.injectChan(req.Scenario)
		} else {
			b.starts[i] = b.doneChan(req.Scenario, req.FromStep)
		}
		b.ends[i] = b.doneChan(req.Scenario, req.ToStep)
	}

	for i, sc := range sys.Scenarios {
		b.buildEnv(sc, &tm.Scenarios[i])
	}
	if err := b.buildResources(); err != nil {
		return nil, err
	}
	obs := make([]Observer, len(reqs))
	for i := range reqs {
		obs[i] = b.buildObserver(i, horizons[i])
	}

	if err := b.net.Finalize(); err != nil {
		return nil, fmt.Errorf("arch: compiled network invalid: %w", err)
	}
	return &CompiledSet{
		Sys: sys, Reqs: reqs, Net: b.net,
		Scale: tm.Scale, Horizons: horizons, Obs: obs,
	}, nil
}

func doneName(sc *Scenario, step int) string {
	return "done_" + sc.Name + "_" + sc.Steps[step].Name
}

// scStep keys a (scenario, step index) completion signal.
type scStep struct {
	sc   *Scenario
	step int
}

// builder carries shared compilation state.
type builder struct {
	sys   *System
	reqs  []*Requirement
	opts  Options
	tm    *Timing
	net   *ta.Network
	hurry ta.Channel
	qv    map[*Scenario][]ta.IntVar

	// injectCh / doneCh are the observation broadcast channels, created on
	// demand and shared by every requirement listening to the same signal.
	injectCh map[*Scenario]ta.ChanID
	doneCh   map[scStep]ta.ChanID
	// starts / ends are each requirement's observation channels, parallel
	// to reqs.
	starts, ends []ta.ChanID
}

// injectChan returns (creating on first use) the broadcast channel that
// announces event injections of scenario sc.
func (b *builder) injectChan(sc *Scenario) ta.ChanID {
	if id, ok := b.injectCh[sc]; ok {
		return id
	}
	ch := b.net.AddChan("inject_"+sc.Name, ta.Broadcast)
	b.injectCh[sc] = ch.ID
	return ch.ID
}

// doneChan returns (creating on first use) the broadcast channel that
// announces completions of step i of scenario sc.
func (b *builder) doneChan(sc *Scenario, i int) ta.ChanID {
	key := scStep{sc, i}
	if id, ok := b.doneCh[key]; ok {
		return id
	}
	ch := b.net.AddChan(doneName(sc, i), ta.Broadcast)
	b.doneCh[key] = ch.ID
	return ch.ID
}

// injectSync returns the sync label for event injections of scenario sc:
// a broadcast when some requirement measures them, internal otherwise.
func (b *builder) injectSync(sc *Scenario) ta.Sync {
	if id, ok := b.injectCh[sc]; ok {
		return ta.Sync{Chan: id, Dir: ta.Emit}
	}
	return ta.NoSync
}

// doneSync returns the sync label for the completion of step i of scenario
// sc: a broadcast when some observer listens to it, internal otherwise.
func (b *builder) doneSync(sc *Scenario, i int) ta.Sync {
	if id, ok := b.doneCh[scStep{sc, i}]; ok {
		return ta.Sync{Chan: id, Dir: ta.Emit}
	}
	return ta.NoSync
}

// sized gives p's location and edge lists their final capacities, so that
// AddLocation and AddEdge fill one allocation each instead of growing them.
func sized(p *ta.Process, locs, edges int) *ta.Process {
	p.Locations = make([]ta.Location, 0, locs)
	p.Edges = make([]ta.Edge, 0, edges)
	return p
}

// buildEnv emits the environment automaton of one scenario (Fig. 7a–d and
// Fig. 8): it feeds the first step's queue according to the arrival model
// and announces each injection on the scenario's inject channel when
// observed.
func (b *builder) buildEnv(sc *Scenario, st *ScenarioTiming) {
	q0 := b.qv[sc][0]
	release := ta.Inc(q0, 1)
	sync := b.injectSync(sc)
	x := b.net.AddClock(sc.Name + ".env.x")
	edges := 2
	if sc.Arrival.Kind == KindBursty {
		edges = 6
	}
	p := sized(b.net.AddProcess("ENV_"+sc.Name), 2, edges)

	period, offset, jitter := st.Period, st.Offset, st.Jitter
	switch sc.Arrival.Kind {
	case KindPeriodic:
		l0 := p.AddLocation("offset", ta.Normal, ta.CLE(x, offset))
		l1 := p.AddLocation("run", ta.Normal, ta.CLE(x, period))
		p.AddEdge(ta.Edge{Src: l0, Dst: l1, ClockGuard: ta.CEq(x, offset),
			Resets: []ta.Reset{{Clock: x.ID, Value: 0}}, Update: release, Sync: sync})
		p.AddEdge(ta.Edge{Src: l1, Dst: l1, ClockGuard: ta.CEq(x, period),
			Resets: []ta.Reset{{Clock: x.ID, Value: 0}}, Update: release, Sync: sync})

	case KindPeriodicUnknownOffset:
		l0 := p.AddLocation("offset", ta.Normal, ta.CLE(x, period))
		l1 := p.AddLocation("run", ta.Normal, ta.CLE(x, period))
		// The first event is released anywhere within one period; the free
		// initial phase is exactly Fig. 7b.
		p.AddEdge(ta.Edge{Src: l0, Dst: l1,
			Resets: []ta.Reset{{Clock: x.ID, Value: 0}}, Update: release, Sync: sync})
		p.AddEdge(ta.Edge{Src: l1, Dst: l1, ClockGuard: ta.CEq(x, period),
			Resets: []ta.Reset{{Clock: x.ID, Value: 0}}, Update: release, Sync: sync})

	case KindSporadic:
		l0 := p.AddLocation("init", ta.Normal)
		l1 := p.AddLocation("run", ta.Normal)
		p.AddEdge(ta.Edge{Src: l0, Dst: l1,
			Resets: []ta.Reset{{Clock: x.ID, Value: 0}}, Update: release, Sync: sync})
		p.AddEdge(ta.Edge{Src: l1, Dst: l1,
			ClockGuard: []ta.Constraint{ta.CGE(x, period)},
			Resets:     []ta.Reset{{Clock: x.ID, Value: 0}}, Update: release, Sync: sync})

	case KindPeriodicJitter:
		// rel: the k-th event is released at kP + δ, δ ∈ [0, J] (the x ≤ J
		// invariant forces the release); wait: let the period elapse.
		rel := p.AddLocation("rel", ta.Normal, ta.CLE(x, jitter))
		wait := p.AddLocation("wait", ta.Normal, ta.CLE(x, period))
		p.AddEdge(ta.Edge{Src: rel, Dst: wait, Update: release, Sync: sync})
		p.AddEdge(ta.Edge{Src: wait, Dst: rel, ClockGuard: ta.CEq(x, period),
			Resets: []ta.Reset{{Clock: x.ID, Value: 0}}})

	case KindBursty:
		b.buildBurstyEnv(sc, st, p, x, release, sync)
	}
}

// buildBurstyEnv emits the Fig. 8 automaton for J > P: pending events
// accumulate every period, each must be sent at most J after its nominal
// release, and consecutive sends are separated by more than D.
func (b *builder) buildBurstyEnv(sc *Scenario, st *ScenarioTiming, p *ta.Process, x ta.Clock,
	release ta.Update, sync ta.Sync) {
	period, jitter, minSep := st.Period, st.Jitter, st.MinSep
	// Outstanding events never exceed ceil(J/P)+1.
	cap64 := (jitter+period-1)/period + 2
	pending := b.net.AddVar(sc.Name+".pending", 1, 0, cap64)
	snd := b.net.AddVar(sc.Name+".snd", 0, 0, cap64)
	y := b.net.AddClock(sc.Name + ".env.y")
	var z ta.Clock
	if minSep > 0 {
		z = b.net.AddClock(sc.Name + ".env.z")
	}

	// Phase A: the deadline of the oldest unsent event is J after its
	// nominal release; phase B: P for all subsequent deadlines.
	locA := p.AddLocation("burstA", ta.Normal, ta.CLE(x, period), ta.CLE(y, jitter))
	locB := p.AddLocation("burstB", ta.Normal, ta.CLE(x, period), ta.CLE(y, period))

	sendEdge := func(loc ta.LocID) ta.Edge {
		e := ta.Edge{
			Src: loc, Dst: loc,
			Guard:  ta.VarCmp(pending, ta.Gt, 0),
			Update: ta.Do(ta.Inc(pending, -1), release, ta.Inc(snd, 1)),
			Sync:   sync,
		}
		if minSep > 0 {
			e.ClockGuard = []ta.Constraint{ta.CGT(z, minSep)}
			e.Resets = []ta.Reset{{Clock: z.ID, Value: 0}}
		}
		return e
	}
	tickEdge := func(loc ta.LocID) ta.Edge {
		return ta.Edge{Src: loc, Dst: loc, ClockGuard: ta.CEq(x, period),
			Resets: []ta.Reset{{Clock: x.ID, Value: 0}}, Update: ta.Inc(pending, 1)}
	}
	p.AddEdge(tickEdge(locA))
	p.AddEdge(sendEdge(locA))
	p.AddEdge(ta.Edge{Src: locA, Dst: locB,
		ClockGuard: ta.CEq(y, jitter), Guard: ta.VarCmp(snd, ta.Gt, 0),
		Resets: []ta.Reset{{Clock: y.ID, Value: 0}}, Update: ta.Inc(snd, -1)})
	p.AddEdge(tickEdge(locB))
	p.AddEdge(sendEdge(locB))
	p.AddEdge(ta.Edge{Src: locB, Dst: locB,
		ClockGuard: ta.CEq(y, period), Guard: ta.VarCmp(snd, ta.Gt, 0),
		Resets: []ta.Reset{{Clock: y.ID, Value: 0}}, Update: ta.Inc(snd, -1)})
}

// rop is one operation (computation or transfer) mapped onto a resource.
type rop struct {
	name    string
	sc      *Scenario
	step    int
	in      ta.IntVar
	next    ta.IntVar
	hasNext bool
	dur     int64
	prio    int
	period  int64 // of the op's scenario
}

// completion returns the update and sync of the op's completion edge:
// feed the next step's queue and announce completion when observed.
func (b *builder) completion(op rop) (ta.Update, ta.Sync) {
	var upd ta.Update
	if op.hasNext {
		upd = ta.Inc(op.next, 1)
	}
	return upd, b.doneSync(op.sc, op.step)
}

// buildResources emits one automaton per processor and bus that has mapped
// operations.
func (b *builder) buildResources() error {
	for _, p := range b.sys.Processors {
		ops := b.opsOn(func(st *Step) bool { return st.Proc == p })
		if len(ops) == 0 {
			continue
		}
		if err := b.buildResource(p.Name, p.Sched, ops); err != nil {
			return err
		}
	}
	for _, bus := range b.sys.Buses {
		ops := b.opsOn(func(st *Step) bool { return st.Bus == bus })
		if len(ops) == 0 {
			continue
		}
		if bus.Sched == SchedTDMA {
			if err := b.buildTDMABus(bus, ops); err != nil {
				return err
			}
			continue
		}
		if err := b.buildResource(bus.Name, bus.Sched, ops); err != nil {
			return err
		}
	}
	return nil
}

// buildTDMABus emits the time-division bus: a cycle automaton broadcasts a
// grant at each slot start, and the bus automaton starts one pending message
// of the slot's owner on each grant (broadcast reception is maximal, so
// grants are never lazily skipped). Messages arriving mid-cycle wait for
// their scenario's next slot.
func (b *builder) buildTDMABus(bus *Bus, ops []rop) error {
	cfg, tt := bus.TDMA, b.tm.TDMA[bus]
	// Every scenario with traffic on this bus needs a slot wide enough for
	// its largest message.
	scenarios := map[*Scenario]bool{}
	for _, op := range ops {
		if cfg.slotOf(op.sc) < 0 {
			return fmt.Errorf("arch: bus %s: scenario %s has traffic but no TDMA slot", bus.Name, op.sc.Name)
		}
		scenarios[op.sc] = true
	}
	for _, op := range ops {
		if sl := tt.Slots[cfg.slotOf(op.sc)]; op.dur > sl.End-sl.Start {
			return fmt.Errorf("arch: bus %s: message %s (%d units) exceeds scenario %s's slot",
				bus.Name, op.name, op.dur, op.sc.Name)
		}
	}

	// Cycle automaton: one location per slot start, in table order.
	grants := map[*Scenario]ta.Channel{}
	tc := b.net.AddClock(bus.Name + ".cycle")
	cyc := b.net.AddProcess(bus.Name + "_CYCLE")
	type slotEvt struct {
		start int64
		sc    *Scenario
	}
	var evts []slotEvt
	for i := range cfg.Slots {
		sl := &cfg.Slots[i]
		if !scenarios[sl.Scenario] {
			continue // slot for a scenario without traffic here: skip
		}
		evts = append(evts, slotEvt{tt.Slots[i].Start, sl.Scenario})
		if _, ok := grants[sl.Scenario]; !ok {
			grants[sl.Scenario] = b.net.AddChan(
				"grant_"+bus.Name+"_"+sl.Scenario.Name, ta.Broadcast)
		}
	}
	if len(evts) == 0 {
		return fmt.Errorf("arch: bus %s: no usable TDMA slots", bus.Name)
	}
	sized(cyc, len(evts)+1, len(evts)+1)
	locs := make([]ta.LocID, len(evts)+1)
	for i, e := range evts {
		locs[i] = cyc.AddLocation(fmt.Sprintf("before_%d", i), ta.Normal, ta.CLE(tc, e.start))
	}
	locs[len(evts)] = cyc.AddLocation("wrap", ta.Normal, ta.CLE(tc, tt.Cycle))
	for i, e := range evts {
		cyc.AddEdge(ta.Edge{Src: locs[i], Dst: locs[i+1],
			ClockGuard: ta.CEq(tc, e.start),
			Sync:       ta.Sync{Chan: grants[e.sc].ID, Dir: ta.Emit}})
	}
	cyc.AddEdge(ta.Edge{Src: locs[len(evts)], Dst: locs[0],
		ClockGuard: ta.CEq(tc, tt.Cycle),
		Resets:     []ta.Reset{{Clock: tc.ID, Value: 0}}})

	// Bus automaton: grants start transfers; transfers always fit their
	// slot, so the bus is idle at every grant.
	x := b.net.AddClock(bus.Name + ".x")
	proc := sized(b.net.AddProcess(bus.Name), 1+len(ops), 2*len(ops))
	idle := proc.AddLocation("idle", ta.Normal)
	for _, op := range ops {
		run := proc.AddLocation("run_"+op.name, ta.Normal, ta.CLE(x, op.dur))
		proc.AddEdge(ta.Edge{
			Src: idle, Dst: run,
			Guard:  ta.VarCmp(op.in, ta.Gt, 0),
			Sync:   ta.Sync{Chan: grants[op.sc].ID, Dir: ta.Recv},
			Resets: []ta.Reset{{Clock: x.ID, Value: 0}},
			Update: ta.Inc(op.in, -1),
		})
		upd, sync := b.completion(op)
		proc.AddEdge(ta.Edge{Src: run, Dst: idle,
			ClockGuard: ta.CEq(x, op.dur), Update: upd, Sync: sync})
	}
	return nil
}

func (b *builder) opsOn(sel func(*Step) bool) []rop {
	var ops []rop
	for si, sc := range b.sys.Scenarios {
		for i := range sc.Steps {
			st := &sc.Steps[i]
			if !sel(st) {
				continue
			}
			op := rop{
				name: sc.Name + "." + st.Name,
				sc:   sc, step: i,
				in:     b.qv[sc][i],
				dur:    b.tm.Scenarios[si].Steps[i],
				prio:   st.EffectivePriority(sc),
				period: b.tm.Scenarios[si].Period,
			}
			if i+1 < len(sc.Steps) {
				op.next = b.qv[sc][i+1]
				op.hasNext = true
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// dispatchGuard returns the data guard for dispatching op under the given
// scheduler: pending work, and for fixed priority no strictly
// higher-priority work pending on the same resource.
func dispatchGuard(sched SchedKind, ops []rop, op rop) ta.Guard {
	gs := []ta.Guard{ta.VarCmp(op.in, ta.Gt, 0)}
	if sched == SchedFP || sched == SchedFPPreempt {
		for _, other := range ops {
			if other.prio > op.prio {
				gs = append(gs, ta.VarCmp(other.in, ta.Eq, 0))
			}
		}
	}
	return ta.And(gs...)
}

// buildResource emits the automaton of one processor or bus: Fig. 4 for
// non-preemptive scheduling (nondeterministic or fixed-priority dispatch),
// Fig. 5 for preemptive fixed priority.
func (b *builder) buildResource(name string, sched SchedKind, ops []rop) error {
	// Non-preemptive schedulers run every op to completion (Fig. 4).
	// Preemptive fixed priority (Fig. 5) supports two priority classes:
	// the high class runs to completion and preempts the low class, whose
	// dynamic deadline D accumulates the preemption time.
	his, los := ops, []rop(nil)
	if sched == SchedFPPreempt {
		var err error
		if his, los, err = splitClasses(name, ops); err != nil {
			return err
		}
	}
	x := b.net.AddClock(name + ".x")
	// idle, a run location per op and a preemption location per (low, high)
	// pair; every location but idle has one edge in and one edge out.
	locs := 1 + len(his) + len(los)*(1+len(his))
	proc := sized(b.net.AddProcess(name), locs, 2*(locs-1))
	idle := proc.AddLocation("idle", ta.Normal)

	hurrySync := ta.Sync{Chan: b.hurry.ID, Dir: ta.Emit}

	for _, op := range his {
		run := proc.AddLocation("run_"+op.name, ta.Normal, ta.CLE(x, op.dur))
		proc.AddEdge(ta.Edge{
			Src: idle, Dst: run,
			Guard:  dispatchGuard(sched, ops, op),
			Sync:   hurrySync,
			Resets: []ta.Reset{{Clock: x.ID, Value: 0}},
			Update: ta.Inc(op.in, -1),
		})
		upd, sync := b.completion(op)
		proc.AddEdge(ta.Edge{Src: run, Dst: idle,
			ClockGuard: ta.CEq(x, op.dur), Update: upd, Sync: sync})
	}
	if len(los) == 0 {
		return nil
	}
	// Safe static range for the dynamic deadline: the busy-window fixpoint
	// w = C_lo + Σ_hi (queueCap + ceil(w/P_hi))·C_hi. Queued backlog is
	// bounded by the queue cap (enforced at run time) and new arrivals by
	// the period, so w bounds every reachable D. Divergence means the
	// paper's warning applies — D would grow forever — and is reported as
	// an error.
	dmax, err := b.preemptionBudget(name, his, los)
	if err != nil {
		return err
	}
	y := b.net.AddClock(name + ".y")
	d := b.net.AddVar(name+".D", 0, 0, dmax)
	for _, op := range los {
		run := proc.AddLocation("run_"+op.name, ta.Normal, ta.CLEVar(x, d))
		proc.AddEdge(ta.Edge{
			Src: idle, Dst: run,
			Guard:  dispatchGuard(sched, ops, op),
			Sync:   hurrySync,
			Resets: []ta.Reset{{Clock: x.ID, Value: 0}},
			Update: ta.Do(ta.Inc(op.in, -1), ta.SetConst(d, op.dur)),
		})
		upd, sync := b.completion(op)
		proc.AddEdge(ta.Edge{Src: run, Dst: idle,
			ClockGuard: ta.CEqVar(x, d),
			Update:     ta.Do(ta.SetConst(d, 0), upd), Sync: sync})
		for _, h := range his {
			pre := proc.AddLocation("pre_"+op.name+"_"+h.name, ta.Normal, ta.CLE(y, h.dur))
			proc.AddEdge(ta.Edge{
				Src: run, Dst: pre,
				Guard:  ta.VarCmp(h.in, ta.Gt, 0),
				Sync:   hurrySync,
				Resets: []ta.Reset{{Clock: y.ID, Value: 0}},
				Update: ta.Inc(h.in, -1),
			})
			hupd, hsync := b.completion(h)
			proc.AddEdge(ta.Edge{Src: pre, Dst: run,
				ClockGuard: ta.CEq(y, h.dur),
				Update:     ta.Do(ta.Inc(d, h.dur), hupd), Sync: hsync})
		}
	}
	return nil
}

// preemptionBudget bounds the dynamic deadline D of the Fig. 5 template on
// one resource by iterating the busy-window equation over the low ops' worst
// base demand and the high ops' arrival rates.
func (b *builder) preemptionBudget(name string, his, los []rop) (int64, error) {
	base := int64(0)
	for _, op := range los {
		if op.dur > base {
			base = op.dur
		}
	}
	w := base
	for iter := 0; iter < 1000; iter++ {
		next := base
		for _, h := range his {
			arrivals := b.opts.QueueCap + (w+h.period-1)/h.period
			next += arrivals * h.dur
		}
		if next == w {
			return w, nil
		}
		if next > 1<<50 {
			break
		}
		w = next
	}
	return 0, fmt.Errorf("arch: resource %s: the preemption accumulator D is unbounded (the low-priority class can be preempted forever); model checking is impossible, as the paper notes", name)
}

// splitClasses partitions ops into the high-priority class and the
// (single-priority) low class required by the Fig. 5 template.
func splitClasses(name string, ops []rop) (his, los []rop, err error) {
	prios := map[int]bool{}
	maxPrio := ops[0].prio
	for _, op := range ops {
		prios[op.prio] = true
		if op.prio > maxPrio {
			maxPrio = op.prio
		}
	}
	if len(prios) > 2 {
		return nil, nil, fmt.Errorf("arch: resource %s: the preemptive template supports at most two priority classes, got %d", name, len(prios))
	}
	for _, op := range ops {
		if op.prio == maxPrio && len(prios) == 2 {
			his = append(his, op)
		} else if len(prios) == 1 {
			// A single class cannot preempt itself: all ops run to
			// completion, none are preemptible.
			his = append(his, op)
		} else {
			los = append(los, op)
		}
	}
	return his, los, nil
}

// buildObserver emits the generalized Fig. 9 measuring automaton for
// requirement i: it counts in-flight activations between the start and end
// signals (n), picks one nondeterministically (m := n, y := 0) and, assuming
// FIFO processing as the paper does, recognizes its completion when m reaches
// zero, visiting the committed "seen" location where y equals the response
// time exactly.
//
// A single-requirement compilation keeps the historical names (OBS, obs.m,
// obs.n, obs.y) so existing traces, DOT/UPPAAL exports, and tests are
// unchanged; batch compilations qualify each observer by its requirement.
func (b *builder) buildObserver(i int, horizon int64) Observer {
	req := b.reqs[i]
	procName, varPrefix := "OBS", "obs."
	if len(b.reqs) > 1 {
		procName = "OBS_" + req.Name
		varPrefix = "obs." + req.Name + "."
	}
	capN := b.opts.QueueCap*int64(len(req.Scenario.Steps)) + 2
	m := b.net.AddVar(varPrefix+"m", -1, -1, capN)
	n := b.net.AddVar(varPrefix+"n", 0, 0, capN)
	y := b.net.AddClock(varPrefix + "y")
	b.net.EnsureMaxConst(y.ID, horizon)

	p := sized(b.net.AddProcess(procName), 2, 7)
	l := p.AddLocation("watch", ta.Normal)
	seen := p.AddLocation("seen", ta.Committed)

	startRecv := ta.Sync{Chan: b.starts[i], Dir: ta.Recv}
	endRecv := ta.Sync{Chan: b.ends[i], Dir: ta.Recv}

	// Pass an activation by. While no measurement is in progress (m == -1)
	// the response clock is meaningless; freeing it keeps the zone graph
	// small (active-clock reduction).
	p.AddEdge(ta.Edge{Src: l, Dst: l, Sync: startRecv, Update: ta.Inc(n, 1),
		Guard: ta.VarCmp(m, ta.Eq, -1), Frees: []ta.ClockID{y.ID}})
	p.AddEdge(ta.Edge{Src: l, Dst: l, Sync: startRecv, Update: ta.Inc(n, 1),
		Guard: ta.VarCmp(m, ta.Ge, 0)})
	// Select this activation for measurement (at most one at a time).
	p.AddEdge(ta.Edge{
		Src: l, Dst: l, Sync: startRecv,
		Guard:  ta.VarCmp(m, ta.Eq, -1),
		Update: ta.Do(ta.Set(m, ta.V(n)), ta.Inc(n, 1)),
		Resets: []ta.Reset{{Clock: y.ID, Value: 0}},
	})
	// Completions ahead of the measured activation.
	p.AddEdge(ta.Edge{Src: l, Dst: l, Sync: endRecv,
		Guard:  ta.VarCmp(m, ta.Gt, 0),
		Update: ta.Do(ta.Inc(m, -1), ta.Inc(n, -1))})
	// Completions while nothing is being measured.
	p.AddEdge(ta.Edge{Src: l, Dst: l, Sync: endRecv,
		Guard:  ta.VarCmp(m, ta.Eq, -1),
		Update: ta.Inc(n, -1), Frees: []ta.ClockID{y.ID}})
	// The measured activation completes: y is its response time.
	p.AddEdge(ta.Edge{Src: l, Dst: seen, Sync: endRecv,
		Guard:  ta.VarCmp(m, ta.Eq, 0),
		Update: ta.Do(ta.SetConst(m, -1), ta.Inc(n, -1))})
	p.AddEdge(ta.Edge{Src: seen, Dst: l, Frees: []ta.ClockID{y.ID}})

	return Observer{Proc: ta.ProcID(len(b.net.Procs) - 1), Seen: seen, Y: y}
}

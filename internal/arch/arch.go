// Package arch implements the paper's modeling strategy as an automated
// model constructor: a distributed embedded architecture is described as
// processors, buses, scenarios (annotated UML sequence diagrams: chains of
// computation and communication steps), event arrival models, and timeliness
// requirements — and compiled into the network of timed automata of
// Figures 4–9 for analysis with internal/core.
//
// All timing data is kept as exact rationals (milliseconds); System.Timing
// derives the common integer time base the compiler and every other engine
// compute with, so the model checker computes exact bounds.
package arch

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// SchedKind selects the scheduling policy of a resource.
type SchedKind int

const (
	// SchedNondet is the non-deterministic non-preemptive scheduler of
	// Fig. 4: any pending operation may be dispatched.
	SchedNondet SchedKind = iota
	// SchedFP is the non-preemptive fixed-priority scheduler: the pending
	// operation of highest priority is dispatched; a running operation
	// always completes.
	SchedFP
	// SchedFPPreempt is the preemptive fixed-priority scheduler of Fig. 5:
	// higher-priority work interrupts lower-priority work, whose remaining
	// deadline D is extended by the preemption time.
	SchedFPPreempt
	// SchedTDMA is a time-division bus: each scenario owns a slot in a
	// fixed cycle and one of its pending messages is granted the bus at
	// each of its slot starts (the template of Perathoner et al. that the
	// paper's Section 3.2 points to). Only valid for buses, and requires
	// the bus's TDMA configuration.
	SchedTDMA
)

func (k SchedKind) String() string {
	switch k {
	case SchedNondet:
		return "nondet"
	case SchedFP:
		return "fp"
	case SchedFPPreempt:
		return "fp-preemptive"
	case SchedTDMA:
		return "tdma"
	}
	return "?sched"
}

// Processor is a processing element with a capacity in million instructions
// per second.
type Processor struct {
	Name  string
	MIPS  int64
	Sched SchedKind
}

// Bus is a communication link with a capacity in kilobits per second.
//
// SchedFP models realistic serial buses (RS-485 style: a started transfer
// always completes, higher-priority messages wait). SchedFPPreempt models an
// idealized priority bus where urgent messages interrupt bulk transfers —
// the abstraction the paper's published numbers imply for the priority
// traffic (the AddressLookup and ChangeVolume rows are constant across
// event models, which rules out transfer blocking).
type Bus struct {
	Name       string
	KBitPerSec int64
	Sched      SchedKind
	// TDMA configures the slot table when Sched is SchedTDMA.
	TDMA *TDMAConfig
}

// TDMAConfig is the slot table of a time-division bus.
type TDMAConfig struct {
	CycleMS *big.Rat
	Slots   []TDMASlot
}

// TDMASlot grants one scenario the bus during [StartMS, EndMS) of every
// cycle; one pending message of the scenario starts at each slot start.
type TDMASlot struct {
	Scenario *Scenario
	StartMS  *big.Rat
	EndMS    *big.Rat
}

// slotOf returns the index of the slot of the given scenario, or -1.
func (c *TDMAConfig) slotOf(sc *Scenario) int {
	for i := range c.Slots {
		if c.Slots[i].Scenario == sc {
			return i
		}
	}
	return -1
}

// Step is one stage of a scenario: either a computation on a processor or a
// message transfer over a bus.
type Step struct {
	Name string
	// Proc and Instructions describe a computation step.
	Proc         *Processor
	Instructions int64
	// Bus and Bytes describe a transfer step.
	Bus   *Bus
	Bytes int64
	// Priority overrides the scenario priority for this step when non-zero,
	// allowing intra-scenario priority assignment (e.g. a keypress handler
	// ranked above the screen update of the same application).
	Priority int
}

// EffectivePriority returns the step's priority within scenario sc.
func (s *Step) EffectivePriority(sc *Scenario) int {
	if s.Priority != 0 {
		return s.Priority
	}
	return sc.Priority
}

// WithPriority overrides the priority of the most recently added step and
// returns the scenario for chaining.
func (sc *Scenario) WithPriority(prio int) *Scenario {
	if len(sc.Steps) == 0 {
		panic("arch: WithPriority before any step")
	}
	sc.Steps[len(sc.Steps)-1].Priority = prio
	return sc
}

// IsCompute reports whether the step runs on a processor.
func (s *Step) IsCompute() bool { return s.Proc != nil }

// DurationMS returns the exact worst-case duration of the step in
// milliseconds: instructions/(MIPS·1000) or bytes·8/kbit·s⁻¹.
func (s *Step) DurationMS() *big.Rat {
	if s.IsCompute() {
		return exactFrac(s.Instructions, 1, s.Proc.MIPS, 1000)
	}
	return exactFrac(s.Bytes, 8, s.Bus.KBitPerSec, 1)
}

// exactFrac returns (a·ka)/(b·kb) for ka, kb > 0 and b ≠ 0. Both products
// are formed in int64 when they fit, and in big.Int when one would wrap.
func exactFrac(a, ka, b, kb int64) *big.Rat {
	if num, ok := mulFits(a, ka); ok {
		if den, ok := mulFits(b, kb); ok {
			return new(big.Rat).SetFrac64(num, den)
		}
	}
	num := new(big.Int).Mul(big.NewInt(a), big.NewInt(ka))
	return new(big.Rat).SetFrac(num, new(big.Int).Mul(big.NewInt(b), big.NewInt(kb)))
}

// mulFits returns a·k for k > 0, and whether a is non-negative and the
// product fits in int64.
func mulFits(a, k int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(k))
	return int64(lo), a >= 0 && hi == 0 && lo <= math.MaxInt64
}

// Scenario is an end-to-end application: an external event triggers a chain
// of steps across the architecture. Priority orders scenarios on shared
// resources (higher value = higher priority).
type Scenario struct {
	Name     string
	Priority int
	Arrival  EventModel
	Steps    []Step
}

// Compute appends a computation step and returns the scenario for chaining.
func (sc *Scenario) Compute(name string, p *Processor, instructions int64) *Scenario {
	sc.Steps = append(sc.Steps, Step{Name: name, Proc: p, Instructions: instructions})
	return sc
}

// Transfer appends a message-transfer step and returns the scenario for
// chaining.
func (sc *Scenario) Transfer(name string, b *Bus, bytes int64) *Scenario {
	sc.Steps = append(sc.Steps, Step{Name: name, Bus: b, Bytes: bytes})
	return sc
}

// StepIndex returns the index of the step with the given name, or -1.
func (sc *Scenario) StepIndex(name string) int {
	for i := range sc.Steps {
		if sc.Steps[i].Name == name {
			return i
		}
	}
	return -1
}

// System is a deployment: hardware resources plus the concurrently running
// scenarios.
type System struct {
	Name       string
	Processors []*Processor
	Buses      []*Bus
	Scenarios  []*Scenario
}

// NewSystem returns an empty system description.
func NewSystem(name string) *System { return &System{Name: name} }

// AddProcessor declares a processor.
func (s *System) AddProcessor(name string, mips int64, sched SchedKind) *Processor {
	p := &Processor{Name: name, MIPS: mips, Sched: sched}
	s.Processors = append(s.Processors, p)
	return p
}

// AddBus declares a communication bus.
func (s *System) AddBus(name string, kbitPerSec int64, sched SchedKind) *Bus {
	b := &Bus{Name: name, KBitPerSec: kbitPerSec, Sched: sched}
	s.Buses = append(s.Buses, b)
	return b
}

// AddScenario declares a scenario; steps are added with Compute/Transfer.
func (s *System) AddScenario(name string, priority int, arrival EventModel) *Scenario {
	sc := &Scenario{Name: name, Priority: priority, Arrival: arrival}
	s.Scenarios = append(s.Scenarios, sc)
	return sc
}

// ScenarioByName returns the scenario with the given name, or nil.
func (s *System) ScenarioByName(name string) *Scenario {
	for _, sc := range s.Scenarios {
		if sc.Name == name {
			return sc
		}
	}
	return nil
}

// Validate checks structural well-formedness of the system description.
func (s *System) Validate() error {
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("arch: system %s has no scenarios", s.Name)
	}
	for _, p := range s.Processors {
		if p.MIPS <= 0 {
			return fmt.Errorf("arch: processor %s has non-positive capacity", p.Name)
		}
	}
	for _, b := range s.Buses {
		if b.KBitPerSec <= 0 {
			return fmt.Errorf("arch: bus %s has non-positive capacity", b.Name)
		}
		if (b.Sched == SchedTDMA) != (b.TDMA != nil) {
			return fmt.Errorf("arch: bus %s: SchedTDMA and a TDMA slot table go together", b.Name)
		}
		if b.TDMA != nil {
			if err := b.TDMA.validate(b.Name); err != nil {
				return err
			}
		}
	}
	for _, p := range s.Processors {
		if p.Sched == SchedTDMA {
			return fmt.Errorf("arch: processor %s: TDMA applies to buses only", p.Name)
		}
	}
	names := map[string]bool{}
	for _, sc := range s.Scenarios {
		if names[sc.Name] {
			return fmt.Errorf("arch: duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		if len(sc.Steps) == 0 {
			return fmt.Errorf("arch: scenario %s has no steps", sc.Name)
		}
		if err := sc.Arrival.Validate(); err != nil {
			return fmt.Errorf("arch: scenario %s %w", sc.Name, err)
		}
		for i := range sc.Steps {
			st := &sc.Steps[i]
			if (st.Proc == nil) == (st.Bus == nil) {
				return fmt.Errorf("arch: scenario %s step %s must use exactly one resource",
					sc.Name, st.Name)
			}
			if st.IsCompute() && st.Instructions <= 0 {
				return fmt.Errorf("arch: scenario %s step %s has non-positive instruction count",
					sc.Name, st.Name)
			}
			if !st.IsCompute() && st.Bytes <= 0 {
				return fmt.Errorf("arch: scenario %s step %s has non-positive size",
					sc.Name, st.Name)
			}
		}
	}
	return nil
}

// validate checks the slot table: positive cycle, slots inside the cycle,
// in order and non-overlapping.
func (c *TDMAConfig) validate(bus string) error {
	if c.CycleMS == nil || c.CycleMS.Sign() <= 0 {
		return fmt.Errorf("arch: bus %s: TDMA cycle must be positive", bus)
	}
	prevEnd := new(big.Rat)
	for i := range c.Slots {
		sl := &c.Slots[i]
		if sl.Scenario == nil {
			return fmt.Errorf("arch: bus %s: TDMA slot %d has no scenario", bus, i)
		}
		if sl.StartMS == nil || sl.EndMS == nil || sl.StartMS.Sign() < 0 ||
			sl.EndMS.Cmp(sl.StartMS) <= 0 || sl.EndMS.Cmp(c.CycleMS) > 0 {
			return fmt.Errorf("arch: bus %s: TDMA slot %d is not a window within the cycle", bus, i)
		}
		if sl.StartMS.Cmp(prevEnd) < 0 {
			return fmt.Errorf("arch: bus %s: TDMA slot %d overlaps its predecessor", bus, i)
		}
		prevEnd = sl.EndMS
	}
	return nil
}

// Requirement is a timeliness requirement: the worst-case delay from a start
// point to the completion of a step of one scenario.
type Requirement struct {
	Name     string
	Scenario *Scenario
	// FromStep is the index of the step whose completion starts the
	// measurement, or -1 to measure from event injection.
	FromStep int
	// ToStep is the index of the step whose completion ends the measurement.
	ToStep int
}

// EndToEnd returns the requirement covering the scenario from injection to
// the completion of its last step.
func EndToEnd(name string, sc *Scenario) *Requirement {
	return &Requirement{Name: name, Scenario: sc, FromStep: -1, ToStep: len(sc.Steps) - 1}
}

// Span returns the requirement from the completion of step from (-1 for
// injection) to the completion of step to.
func Span(name string, sc *Scenario, from, to int) *Requirement {
	return &Requirement{Name: name, Scenario: sc, FromStep: from, ToStep: to}
}

// Validate checks the requirement against its scenario.
func (r *Requirement) Validate() error {
	if r.Scenario == nil {
		return fmt.Errorf("arch: requirement %s has no scenario", r.Name)
	}
	if r.FromStep < -1 || r.FromStep >= len(r.Scenario.Steps) {
		return fmt.Errorf("arch: requirement %s: FromStep %d out of range", r.Name, r.FromStep)
	}
	if r.ToStep < 0 || r.ToStep >= len(r.Scenario.Steps) {
		return fmt.Errorf("arch: requirement %s: ToStep %d out of range", r.Name, r.ToStep)
	}
	if r.FromStep >= r.ToStep {
		return fmt.Errorf("arch: requirement %s: FromStep must precede ToStep", r.Name)
	}
	return nil
}

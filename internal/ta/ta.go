// Package ta provides an UPPAAL-style modeling language for networks of
// timed automata: processes with locations (normal, urgent, committed),
// edges with clock guards, data guards over bounded integer variables,
// clock resets and variable updates, and synchronization over binary,
// broadcast, urgent, and urgent-broadcast channels.
//
// A Network is built with the Add* methods, then Finalize validates it and
// precomputes the edge indices and maximal clock constants needed by the
// zone-graph explorer in internal/core.
package ta

import (
	"fmt"
)

// ClockID indexes a clock in the network; clock 0 is the implicit reference
// clock and is never returned by AddClock.
type ClockID int

// VarID indexes a bounded integer variable of the network.
type VarID int

// ChanID indexes a synchronization channel of the network.
type ChanID int

// LocID indexes a location within one process.
type LocID int

// ProcID indexes a process within the network.
type ProcID int

// Clock is a named handle to a network clock, as returned by AddClock.
type Clock struct {
	ID   ClockID
	Name string
}

// IntVar is a named handle to a bounded integer variable.
type IntVar struct {
	ID   VarID
	Name string
}

// ChanKind distinguishes the four UPPAAL synchronization disciplines.
type ChanKind int

const (
	// Binary channels pair exactly one emitter with one receiver.
	Binary ChanKind = iota
	// BinaryUrgent channels are binary and additionally forbid delay
	// whenever a matching emit/receive pair is enabled.
	BinaryUrgent
	// Broadcast channels pair one emitter with every process whose receive
	// edge is enabled (possibly none).
	Broadcast
	// BroadcastUrgent channels are broadcast and forbid delay whenever an
	// emit edge is enabled. This is the "hurry!" pattern of the paper.
	BroadcastUrgent
)

func (k ChanKind) String() string {
	switch k {
	case Binary:
		return "chan"
	case BinaryUrgent:
		return "urgent chan"
	case Broadcast:
		return "broadcast chan"
	case BroadcastUrgent:
		return "urgent broadcast chan"
	}
	return "?chan"
}

// Urgent reports whether the channel kind forbids delay when enabled.
func (k ChanKind) Urgent() bool { return k == BinaryUrgent || k == BroadcastUrgent }

// IsBroadcast reports whether the channel kind is a broadcast discipline.
func (k ChanKind) IsBroadcast() bool { return k == Broadcast || k == BroadcastUrgent }

// Channel is a named handle to a synchronization channel.
type Channel struct {
	ID   ChanID
	Kind ChanKind
	Name string
}

// SyncDir is the direction of an edge's synchronization action.
type SyncDir int

const (
	// Tau marks an internal edge without synchronization.
	Tau SyncDir = iota
	// Emit marks a sending edge (c!).
	Emit
	// Recv marks a receiving edge (c?).
	Recv
)

// Sync describes the synchronization label of an edge.
type Sync struct {
	Chan ChanID
	Dir  SyncDir
}

// NoSync is the synchronization label of an internal edge.
var NoSync = Sync{Dir: Tau}

// LocKind classifies locations by their delay discipline.
type LocKind int

const (
	// Normal locations allow time to pass subject to the invariant.
	Normal LocKind = iota
	// UrgentLoc locations forbid delay while any process resides in them.
	UrgentLoc
	// Committed locations forbid delay and force the next transition to
	// leave a committed location.
	Committed
)

func (k LocKind) String() string {
	switch k {
	case Normal:
		return "normal"
	case UrgentLoc:
		return "urgent"
	case Committed:
		return "committed"
	}
	return "?loc"
}

// Location is a node of one process graph.
type Location struct {
	Name      string
	Kind      LocKind
	Invariant []Constraint // conjunction of upper bounds on clocks
}

// Reset sets one clock to a nonnegative integer constant when an edge fires.
type Reset struct {
	Clock ClockID
	Value int64
}

// Edge is a transition of one process.
type Edge struct {
	Src, Dst   LocID
	Guard      Guard        // data guard over integer variables; nil means true
	ClockGuard []Constraint // conjunction of clock constraints; nil means true
	Sync       Sync
	Resets     []Reset
	// Frees lists clocks whose value becomes unconstrained when the edge
	// fires. This is an active-clock reduction: freeing a clock that no
	// guard or invariant reads before its next reset does not change any
	// observable behavior but lets the passed list merge zones that differ
	// only in that clock. The compiler uses it for the measuring observer's
	// response-time clock between measurements.
	Frees  []ClockID
	Update Update // variable update; nil means skip
}

// SyncEdge is one entry of the per-location synchronization index built by
// Finalize: a synchronizing out-edge of the location together with its
// channel and direction, in edge index order. The successor engine's one-pass
// enabled-edge collection iterates these instead of rescanning every
// out-edge once per channel.
type SyncEdge struct {
	Chan ChanID
	Dir  SyncDir
	Edge int32 // index into Process.Edges
}

// Process is one component automaton of the network.
type Process struct {
	Name      string
	Locations []Location
	Edges     []Edge
	Init      LocID

	// The compiled transition index, built by Finalize and immutable
	// afterwards (consumed lock-free by the admitting loop and the lookahead
	// helper of every exploration). Both
	// per-location lists are CSR-style flat arrays: location l owns
	// tauIdx[tauOff[l]:tauOff[l+1]] and syncIdx[syncOff[l]:syncOff[l+1]],
	// the edges with Src == l, each in edge index order.
	tauOff  []int32
	tauIdx  []int32 // indices into Edges of tau out-edges
	syncOff []int32
	syncIdx []SyncEdge
	// committed[l] / noDelay[l] precompute Locations[l].Kind == Committed
	// and Kind ∈ {UrgentLoc, Committed}, the two per-location tests on the
	// successor hot path.
	committed []bool
	noDelay   []bool
}

// AddLocation appends a location and returns its ID. A builder that knows
// how many locations the process gets sizes p.Locations first (make with
// length 0 and that capacity), so the appends fill one allocation instead
// of growing it.
func (p *Process) AddLocation(name string, kind LocKind, invariant ...Constraint) LocID {
	p.Locations = append(p.Locations, Location{Name: name, Kind: kind, Invariant: invariant})
	return LocID(len(p.Locations) - 1)
}

// AddEdge appends an edge between previously added locations. As with
// AddLocation, a builder that knows the process's edge count sizes p.Edges
// first: an Edge is 136 bytes, and growing the list from nil costs about
// twice its final size.
func (p *Process) AddEdge(e Edge) {
	p.Edges = append(p.Edges, e)
}

// TauEdges returns the indices of the internal (tau) edges leaving location
// l, in edge index order. Valid only after Network.Finalize.
func (p *Process) TauEdges(l LocID) []int32 { return p.tauIdx[p.tauOff[l]:p.tauOff[l+1]] }

// SyncEdges returns the synchronizing edges leaving location l with their
// channel and direction, in edge index order. Valid only after
// Network.Finalize.
func (p *Process) SyncEdges(l LocID) []SyncEdge { return p.syncIdx[p.syncOff[l]:p.syncOff[l+1]] }

// CommittedLoc reports whether location l is committed. Valid only after
// Network.Finalize.
func (p *Process) CommittedLoc(l LocID) bool { return p.committed[l] }

// NoDelayLoc reports whether location l forbids delay (urgent or committed).
// Valid only after Network.Finalize.
func (p *Process) NoDelayLoc(l LocID) bool { return p.noDelay[l] }

// VarDecl describes one bounded integer variable.
type VarDecl struct {
	Name     string
	Init     int64
	Min, Max int64
}

// Network is a closed system of processes sharing clocks, variables, and
// channels.
type Network struct {
	Name   string
	Clocks []Clock // Clocks[0] is the reference clock
	Vars   []VarDecl
	Chans  []Channel
	Procs  []*Process

	// MaxConsts[c] is the maximal constant clock c is compared against in
	// any guard or invariant (plus any extra registered via
	// EnsureMaxConst); computed by Finalize and consumed by extrapolation.
	MaxConsts []int64

	// The network-level half of the compiled transition index, built by
	// Finalize and immutable afterwards. chanEmitProcs[c]/chanRecvProcs[c]
	// list the processes owning at least one emit/receive edge on channel c
	// in ascending process order (the urgency test visits only them);
	// chanEmitEdges[c]/chanRecvEdges[c] count those edges network-wide,
	// bounding how many can be simultaneously enabled — the successor
	// engine sizes its per-channel scratch buckets from these, once, so
	// bucketing never allocates. urgentChans lists the urgent channels in
	// ascending order.
	chanEmitProcs [][]ProcID
	chanRecvProcs [][]ProcID
	chanEmitEdges []int32
	chanRecvEdges []int32
	urgentChans   []ChanID

	finalized bool
}

// NewNetwork returns an empty network with the implicit reference clock.
func NewNetwork(name string) *Network {
	return &Network{
		Name:   name,
		Clocks: []Clock{{ID: 0, Name: "t0"}},
	}
}

// AddClock declares a clock and returns its handle.
func (n *Network) AddClock(name string) Clock {
	c := Clock{ID: ClockID(len(n.Clocks)), Name: name}
	n.Clocks = append(n.Clocks, c)
	return c
}

// AddVar declares a bounded integer variable with the given initial value and
// inclusive range.
func (n *Network) AddVar(name string, init, min, max int64) IntVar {
	n.Vars = append(n.Vars, VarDecl{Name: name, Init: init, Min: min, Max: max})
	return IntVar{ID: VarID(len(n.Vars) - 1), Name: name}
}

// AddChan declares a synchronization channel.
func (n *Network) AddChan(name string, kind ChanKind) Channel {
	c := Channel{ID: ChanID(len(n.Chans)), Kind: kind, Name: name}
	n.Chans = append(n.Chans, c)
	return c
}

// AddProcess declares a new empty process and returns it for population.
func (n *Network) AddProcess(name string) *Process {
	p := &Process{Name: name}
	n.Procs = append(n.Procs, p)
	return p
}

// NumClocks returns the clock count including the reference clock, i.e. the
// DBM dimension of the network.
func (n *Network) NumClocks() int { return len(n.Clocks) }

// InitialVars returns a fresh valuation holding every variable's initial
// value.
func (n *Network) InitialVars() []int64 {
	v := make([]int64, len(n.Vars))
	for i, d := range n.Vars {
		v[i] = d.Init
	}
	return v
}

// EnsureMaxConst raises the recorded maximal constant of clock c to at least
// k. Callers measuring sup values of a clock (e.g. WCRT observers) must
// register their observation horizon here before Finalize, otherwise
// extrapolation may abstract the bound away.
func (n *Network) EnsureMaxConst(c ClockID, k int64) {
	for int(c) >= len(n.MaxConsts) {
		n.MaxConsts = append(n.MaxConsts, 0)
	}
	if k > n.MaxConsts[c] {
		n.MaxConsts[c] = k
	}
}

// ChanEmitProcs returns the processes with at least one emit edge on
// channel c, in ascending process order. Valid only after Finalize.
func (n *Network) ChanEmitProcs(c ChanID) []ProcID { return n.chanEmitProcs[c] }

// ChanRecvProcs returns the processes with at least one receive edge on
// channel c, in ascending process order. Valid only after Finalize.
func (n *Network) ChanRecvProcs(c ChanID) []ProcID { return n.chanRecvProcs[c] }

// ChanEdgeCounts returns the network-wide number of emit and receive edges
// on channel c — an upper bound on how many can be enabled in any single
// state. Valid only after Finalize.
func (n *Network) ChanEdgeCounts(c ChanID) (emit, recv int) {
	return int(n.chanEmitEdges[c]), int(n.chanRecvEdges[c])
}

// UrgentChans returns the urgent channels of the network in ascending
// order. Valid only after Finalize.
func (n *Network) UrgentChans() []ChanID { return n.urgentChans }

// ClockByName returns the declared clock with the given name. The reference
// clock, Clocks[0], is not declared and answers to no name.
func (n *Network) ClockByName(name string) (Clock, bool) {
	for i := 1; i < len(n.Clocks); i++ {
		if n.Clocks[i].Name == name {
			return n.Clocks[i], true
		}
	}
	return Clock{}, false
}

// varByName returns the variable with the given name.
func (n *Network) varByName(name string) (IntVar, bool) {
	for i, v := range n.Vars {
		if v.Name == name {
			return IntVar{ID: VarID(i), Name: v.Name}, true
		}
	}
	return IntVar{}, false
}

// chanByName returns the channel with the given name.
func (n *Network) chanByName(name string) (Channel, bool) {
	for _, c := range n.Chans {
		if c.Name == name {
			return c, true
		}
	}
	return Channel{}, false
}

// ProcByName returns the process with the given name, or nil.
func (n *Network) ProcByName(name string) *Process {
	for _, p := range n.Procs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// LocByName returns the location ID with the given name in process p, or -1.
func (p *Process) LocByName(name string) LocID {
	for i, l := range p.Locations {
		if l.Name == name {
			return LocID(i)
		}
	}
	return -1
}

// String renders a summary of the network for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("network %s: %d clocks, %d vars, %d chans, %d procs",
		n.Name, len(n.Clocks)-1, len(n.Vars), len(n.Chans), len(n.Procs))
}

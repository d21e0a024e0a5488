// Package core implements the paper's analysis engine: a zone-based symbolic
// model checker for the networks of timed automata defined in internal/ta,
// in the style of UPPAAL.
//
// It provides symbolic reachability with configurable search order
// (breadth-first, depth-first, randomized depth-first), a passed-state store
// with zone-inclusion subsumption, maximal-constant extrapolation, safety
// checking of properties of the form AG p with counterexample traces, and
// worst-case response time computation as a single-pass clock supremum
// (SupClockQuery), which replaces the paper's binary search over
// AG(seen → y < C) (Property 1) and can replay the run that attains it.
package core

import (
	"fmt"
	"strings"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// State is a symbolic state of the network: one location per process, a
// valuation of the integer variables, and a canonical zone over the clocks.
// Stored states are closed under delay (whenever delay is permitted) and
// extrapolated.
//
// Inside a sweep a State is an expansion's scratch: the state a popped node
// is rebuilt as, or a successor fired from it, from then until the next
// expansion in the same slot recycles it ("Frontier" in explore.go). A state
// that waits in the frontier is not a State but a waiting node, which
// references its store entry and packed payload instead of vectors and a
// matrix. Its discrete part is encoded once, as its entry's packed key
// ("Keys" in store.go), so a State keeps no hash or key of its own. A State
// outlives its sweep only as a heap copy a caller was handed (FoundState,
// trace steps).
type State struct {
	Locs []ta.LocID
	Vars []int64
	// Zone is the state's canonical zone, never nil while the State is in
	// use.
	Zone *dbm.DBM

	// ref is the state's admission record in the exploration's parent log
	// (explore.go), noRef when parent logging is off. The admitting loop
	// writes it before the visitors see the state and copies it into the
	// waiting node; the ctx that rebuilds the state from the node writes it
	// back.
	ref int64
}

// newState returns a State with zeroed discrete vectors of nLocs and nVars
// entries and no zone, carved from slabs together with its vectors, so that
// it points only into the set (and at the matrix header it is given, which
// the set keeps too; dbm.Slabs). A nil set gives a heap State, which may
// outlive the sweep: the initial state, FoundState clones, trace steps. It is
// the one place a State is allocated.
func newState(slabs *dbm.Slabs, nLocs, nVars int) *State {
	s := dbm.Carve[State](slabs)
	s.Locs = dbm.CarveSlice[ta.LocID](slabs, nLocs)
	s.Vars = dbm.CarveSlice[int64](slabs, nVars)
	s.ref = noRef
	return s
}

// Format renders the state compactly: locations, the non-zero variables,
// and each clock's value interval (instead of the full DBM).
func (s *State) Format(net *ta.Network) string {
	var sb strings.Builder
	sb.WriteString("(")
	for i, p := range net.Procs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s.%s", p.Name, p.Locations[s.Locs[i]].Name)
	}
	sb.WriteString(")")
	first := true
	for i, d := range net.Vars {
		if s.Vars[i] == d.Init {
			continue
		}
		if first {
			sb.WriteString(" [")
			first = false
		} else {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%d", d.Name, s.Vars[i])
	}
	if !first {
		sb.WriteString("]")
	}
	sb.WriteString(" {")
	for c := 1; c < s.Zone.Dim(); c++ {
		if c > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s∈[%s,%s]", net.Clocks[c].Name,
			boundStr(s.Zone.Inf(c)), boundStr(s.Zone.Sup(c)))
	}
	sb.WriteString("}")
	return sb.String()
}

func boundStr(b dbm.Bound) string {
	if b == dbm.Infinity {
		return "inf"
	}
	return fmt.Sprintf("%d", b.Value())
}

// LabelKind classifies the synchronization of a transition label. The zero
// value LabelNone marks the pseudo-label of the initial state in traces.
type LabelKind uint8

const (
	// LabelNone is the zero value: no transition (the initial trace step).
	LabelNone LabelKind = iota
	// LabelTau marks an internal transition of a single process.
	LabelTau
	// LabelSync marks a binary channel rendezvous (one emitter, one receiver).
	LabelSync
	// LabelBroadcast marks a broadcast synchronization (one emitter, every
	// enabled receiver).
	LabelBroadcast
)

// String renders the kind exactly as the historical string-typed field did
// ("tau", "sync", "broadcast"), so formatted traces — and with them the
// wire/-json bytes — are unchanged.
func (k LabelKind) String() string {
	switch k {
	case LabelNone:
		return "init"
	case LabelTau:
		return "tau"
	case LabelSync:
		return "sync"
	case LabelBroadcast:
		return "broadcast"
	}
	return "?label"
}

// Label identifies the transition that produced a state, for trace printing.
type Label struct {
	// Kind describes the synchronization.
	Kind LabelKind
	// Chan is the channel name for sync/broadcast labels.
	Chan string
	// Parts lists the participating processes and the edges they took, in
	// firing order (emitter first).
	Parts []LabelPart
}

// LabelPart is one process's participation in a transition.
type LabelPart struct {
	Proc ta.ProcID
	Edge int // index into the process's Edges
}

// Format renders the label with names resolved against the network.
func (l Label) Format(net *ta.Network) string {
	if l.Kind == LabelNone {
		return "init"
	}
	var sb strings.Builder
	if l.Chan != "" {
		fmt.Fprintf(&sb, "%s(%s):", l.Kind, l.Chan)
	} else {
		sb.WriteString(l.Kind.String() + ":")
	}
	for i, part := range l.Parts {
		if i > 0 {
			sb.WriteString(" +")
		}
		p := net.Procs[part.Proc]
		e := p.Edges[part.Edge]
		fmt.Fprintf(&sb, " %s.%s->%s", p.Name,
			p.Locations[e.Src].Name, p.Locations[e.Dst].Name)
	}
	return sb.String()
}

// TraceStep is one step of a counterexample or witness trace.
type TraceStep struct {
	Label Label
	State *State
}

// FormatTrace renders a trace with one step per line.
func FormatTrace(net *ta.Network, trace []TraceStep) string {
	var sb strings.Builder
	for i, step := range trace {
		fmt.Fprintf(&sb, "%3d %-40s %s\n", i, step.Label.Format(net), step.State.Format(net))
	}
	return sb.String()
}

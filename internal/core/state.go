// Package core implements the paper's analysis engine: a zone-based symbolic
// model checker for the networks of timed automata defined in internal/ta,
// in the style of UPPAAL.
//
// It provides symbolic reachability with configurable search order
// (breadth-first, depth-first, randomized depth-first), a passed-state store
// with zone-inclusion subsumption, maximal-constant extrapolation, safety
// checking of properties of the form AG p with counterexample traces, and
// worst-case response time computation both as a single-pass clock supremum
// and via the paper's binary-search strategy over AG(seen → y < C)
// (Property 1).
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
type State struct {
	Locs []ta.LocID
	Vars []int64
	// Zone is the state's canonical zone, never nil: a State exists only
	// while a ctx holds it — fired and not yet decided, admitted and being
	// visited, or popped and being expanded — or after a caller was handed
	// one (FoundState, trace steps). A state that waits in the frontier is
	// not a State but a waiting node, which references the store's packed
	// payload instead of a matrix (explore.go).
	Zone *dbm.DBM

	// key caches discreteHash(Locs, Vars); 0 means not yet computed
	// (discreteHash never returns 0). The discrete part of a state is
	// immutable after construction, so the cache never invalidates. A state
	// is hashed by exactly one goroutine (its creator) before it is shared,
	// so the lazy fill is race-free.
	key uint64

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

// discreteKey returns the cached hash of the state's discrete part,
// computing it on first use.
func (s *State) discreteKey() uint64 {
	if s.key == 0 {
		s.key = discreteHash(s.Locs, s.Vars)
	}
	return s.key
}

// discreteHash hashes the discrete part (locations and variables) of a
// state, mixing each component as one 64-bit word (FNV-1a over words with a
// splitmix-style finalizer). The result is never 0, so 0 can serve as the
// "not yet hashed" sentinel in State.key.
func discreteHash(locs []ta.LocID, vars []int64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 0x9E3779B97F4A7C15
	)
	h := uint64(offset)
	for _, l := range locs {
		h = (h ^ uint64(l)) * prime
	}
	h = (h ^ 0xabcdef) * prime // separator between the two variable-length parts
	for _, v := range vars {
		h = (h ^ uint64(v)) * prime
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	if h == 0 {
		return 1
	}
	return h
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

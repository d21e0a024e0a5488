package core

import "repro/internal/ta"

// This file is the index-free reference the successor engine is checked
// against (succ_index_test.go). It reads only what a network declares: each
// process's Edges, filtered by Src in edge index order, the Kind of its
// locations, and every channel of net.Chans. It uses none of the transition
// index ta.Finalize compiles (per-location edge lists, per-location flags,
// channel tables) and builds broadcast combinations by its own product, so a
// slip in any of those — or in the engine's combination enumerator — shows
// up as a stream difference. The symbolic step itself (engine.fire) is
// shared: the reference decides which labels fire and in what order, fire
// computes their zones.
//
// The order it produces is the engine's enumeration contract (see
// engine.successors): tau edges by (process, edge index); then channel by
// channel in ascending order, binary rendezvous emitter-major and
// broadcasts emitter by emitter, receivers grouped by process.

// refEnabled returns the data-guard-enabled emit and receive edges on
// channel c at the discrete state (locs, vars), each list grouped by process
// in increasing process order and in edge index order within a process.
func refEnabled(net *ta.Network, locs []ta.LocID, vars []int64, c ta.ChanID) (emitters, receivers []LabelPart) {
	for pi, p := range net.Procs {
		for ei := range p.Edges {
			ed := &p.Edges[ei]
			if ed.Src != locs[pi] || ed.Sync.Dir == ta.Tau || ed.Sync.Chan != c || !ta.EvalGuard(ed.Guard, vars) {
				continue
			}
			part := LabelPart{ta.ProcID(pi), ei}
			if ed.Sync.Dir == ta.Emit {
				emitters = append(emitters, part)
			} else {
				receivers = append(receivers, part)
			}
		}
	}
	return emitters, receivers
}

// refLabels lists the transitions of s the committed-location rule admits,
// in contract order, before any of them is fired.
func refLabels(net *ta.Network, s *State) []Label {
	committed := func(pi ta.ProcID) bool { return net.Procs[pi].Locations[s.Locs[pi]].Kind == ta.Committed }
	anyCommitted := false
	for pi := range net.Procs {
		anyCommitted = anyCommitted || committed(ta.ProcID(pi))
	}
	var labels []Label
	add := func(kind LabelKind, ch string, parts []LabelPart) {
		ok := !anyCommitted
		for _, pt := range parts {
			ok = ok || committed(pt.Proc)
		}
		if ok {
			labels = append(labels, Label{Kind: kind, Chan: ch, Parts: parts})
		}
	}

	for pi, p := range net.Procs {
		for ei := range p.Edges {
			ed := &p.Edges[ei]
			if ed.Src == s.Locs[pi] && ed.Sync.Dir == ta.Tau && ta.EvalGuard(ed.Guard, s.Vars) {
				add(LabelTau, "", []LabelPart{{ta.ProcID(pi), ei}})
			}
		}
	}
	for ci := range net.Chans {
		ch := &net.Chans[ci]
		em, rc := refEnabled(net, s.Locs, s.Vars, ta.ChanID(ci))
		for _, e := range em {
			if !ch.Kind.IsBroadcast() {
				for _, r := range rc {
					if r.Proc != e.Proc {
						add(LabelSync, ch.Name, []LabelPart{e, r})
					}
				}
				continue
			}
			// Maximal participation: every other process with an enabled
			// receive edge joins with exactly one of them. The product is
			// built process by process, so the first receiving process
			// varies slowest.
			combos := [][]LabelPart{{e}}
			for qi := range net.Procs {
				var mine []LabelPart
				for _, r := range rc {
					if r.Proc == ta.ProcID(qi) && r.Proc != e.Proc {
						mine = append(mine, r)
					}
				}
				if len(mine) == 0 {
					continue
				}
				var next [][]LabelPart
				for _, c := range combos {
					for _, r := range mine {
						next = append(next, append(append([]LabelPart(nil), c...), r))
					}
				}
				combos = next
			}
			for _, c := range combos {
				add(LabelBroadcast, ch.Name, c)
			}
		}
	}
	return labels
}

// refSuccessors fires refLabels(s) in order through e.fire and returns the
// successor stream the engine must reproduce: the fired successors with
// their positions, up to and including the first error.
func refSuccessors(e *engine, ctx *succCtx, s *State) ([]succ, error) {
	var out []succ
	for _, label := range refLabels(e.net, s) {
		ns, err := e.fire(ctx, s, label)
		if err != nil {
			return out, err
		}
		if ns != nil {
			out = append(out, succ{label, ns, int32(len(out))})
		}
	}
	return out, nil
}

// refUrgentPair reports whether channel c, a binary one, has an enabled
// emitter and receiver in distinct processes.
func refUrgentPair(net *ta.Network, locs []ta.LocID, vars []int64, c ta.ChanID) bool {
	em, rc := refEnabled(net, locs, vars, c)
	for _, e := range em {
		for _, r := range rc {
			if e.Proc != r.Proc {
				return true
			}
		}
	}
	return false
}

// refDelayAllowed is the urgency rule: no delay in an urgent or committed
// location, none while an urgent broadcast channel has an enabled emitter,
// and none while an urgent binary channel has an enabled pair.
func refDelayAllowed(net *ta.Network, locs []ta.LocID, vars []int64) bool {
	for pi, l := range locs {
		if k := net.Procs[pi].Locations[l].Kind; k == ta.UrgentLoc || k == ta.Committed {
			return false
		}
	}
	for ci, ch := range net.Chans {
		switch ch.Kind {
		case ta.BroadcastUrgent:
			if em, _ := refEnabled(net, locs, vars, ta.ChanID(ci)); len(em) > 0 {
				return false
			}
		case ta.BinaryUrgent:
			if refUrgentPair(net, locs, vars, ta.ChanID(ci)) {
				return false
			}
		}
	}
	return true
}

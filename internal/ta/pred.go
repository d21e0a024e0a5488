package ta

import (
	"fmt"
	"strings"
)

// Pred is a parsed state predicate: a conjunction of location tests and data
// comparisons over one network.
type Pred struct {
	at    []locTest
	guard Guard // the data comparisons; nil when there are none
}

// locTest is the atom PROC.loc: process proc is in location loc.
type locTest struct {
	proc ProcID
	loc  LocID
}

// Holds reports whether the predicate holds on the discrete part of a state:
// each process's location and the variable valuation.
func (q *Pred) Holds(locs []LocID, vars []int64) bool {
	for _, a := range q.at {
		if locs[a.proc] != a.loc {
			return false
		}
	}
	return EvalGuard(q.guard, vars)
}

// ParsePred parses a query predicate over the network, with the grammar of
// .ta edge guards plus PROC.loc atoms; the README's tacheck section states
// it. Names resolve against the network's declarations, as a guard's do.
func ParsePred(n *Network, s string) (*Pred, error) {
	p, q := parser{net: n}, &Pred{}
	var data []string
	for _, atom := range strings.Split(s, "&&") {
		atom = strings.TrimSpace(atom)
		lhs, op, rhs, cmpErr := splitCmp(atom)
		var err error
		switch cls, _, _, isClock := p.clockAtom(lhs, op, rhs); {
		case atom == "":
		case cmpErr != nil:
			var a locTest
			a, err = locAtom(n, atom)
			q.at = append(q.at, a)
		case isClock:
			err = fmt.Errorf("%q compares clock %s; a predicate reads only locations and variables", atom, cls[0].Name)
		default:
			data = append(data, atom)
		}
		if err != nil {
			return nil, fmt.Errorf("ta: predicate %q: %w", s, err)
		}
	}
	if len(q.at) == 0 && len(data) == 0 {
		return nil, fmt.Errorf("ta: empty predicate")
	}
	// The comparisons are a guard without clock atoms: parseGuard reads them.
	_, g, err := p.parseGuard(strings.Join(data, "&&"))
	if err != nil {
		return nil, fmt.Errorf("ta: predicate %q: %w", s, err)
	}
	q.guard = g
	return q, nil
}

// locAtom resolves the atom PROC.loc.
func locAtom(n *Network, atom string) (locTest, error) {
	procName, locName, found := strings.Cut(atom, ".")
	if !found {
		return locTest{}, fmt.Errorf("atom %q is neither PROC.loc nor a comparison", atom)
	}
	for pi, proc := range n.Procs {
		if proc.Name == procName {
			if l := proc.LocByName(locName); l >= 0 {
				return locTest{ProcID(pi), l}, nil
			}
			return locTest{}, fmt.Errorf("process %s has no location %q", procName, locName)
		}
	}
	return locTest{}, fmt.Errorf("unknown process %q", procName)
}

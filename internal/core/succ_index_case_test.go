// Differential oracle over the paper's case-study networks (external test
// package: arch imports core, so these cannot live in-package). The compiled
// ICRNS networks exercise the index at realistic scale — broadcast completion
// channels shared by several observers, urgent dispatch channels, committed
// pass-through locations.
package core_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/icrns"
)

// caseNet compiles the AL·pno combination with two observers.
func caseNet(t *testing.T) *arch.CompiledSet {
	t.Helper()
	sys, all := icrns.Build(icrns.ComboAL, icrns.ColPNO, icrns.DefaultConfig())
	reqs := []*arch.Requirement{all[icrns.ReqHandleTMC], all[icrns.ReqAddressLookup]}
	cs, err := arch.CompileAll(sys, reqs, arch.Options{
		HorizonMSFor: func(r *arch.Requirement) int64 { return icrns.HorizonMS(r.Name) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestCaseStudyIndexedMatchesScan compares the successor engine with the
// index-free reference on every state of the whole AL·pno sweep with two
// observers. Equal successor streams on every admitted state make every
// sweep of this network equal — its stats, its suprema sequentially and with
// Workers=4, and its replayed traces, which select successors by position.
func TestCaseStudyIndexedMatchesScan(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study sweep in -short mode")
	}
	core.DiffExplore(t, caseNet(t).Net, 0)
}

// TestCaseStudyTraceIdentical pins the replayed trace of a case-study
// witness: parent-log records keep only successor positions, so the trace
// must replay step by step through the index-free reference, and two
// sequential runs must agree on the verdict, the stats and the trace bytes.
func TestCaseStudyTraceIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study sweep in -short mode")
	}
	cs := caseNet(t)
	pred := cs.AtSeen(0)
	c, err := core.NewChecker(cs.Net)
	if err != nil {
		t.Fatal(err)
	}

	found1, trace1, stats1, err := c.Reachable(pred, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !found1 {
		t.Fatal("observer seen location unreachable — predicate broken")
	}
	if !pred(trace1[len(trace1)-1].State) {
		t.Fatal("witness does not end in the observer's seen location")
	}
	core.ReplayTraceByReference(t, c, trace1)

	found2, trace2, stats2, err := c.Reachable(pred, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if found1 != found2 {
		t.Fatalf("reachability verdict differs between runs: %v, %v", found1, found2)
	}
	if stats1.Stored != stats2.Stored || stats1.Popped != stats2.Popped {
		t.Fatalf("reachable stats differ between runs: %+v, %+v", stats1, stats2)
	}
	f1, f2 := core.FormatTrace(cs.Net, trace1), core.FormatTrace(cs.Net, trace2)
	if f1 != f2 {
		t.Fatalf("replayed traces differ between runs:\nfirst:\n%s\nsecond:\n%s", f1, f2)
	}
}

// The lookahead helper against the case study and the benchmark's chain
// system, compared where their verdicts leave the engine: wire bytes and
// formatted witness traces (external test package: arch imports core).
package core_test

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/wire"
)

// chainSet compiles n periodic scenarios with known offsets on one
// nondeterministic processor, one end-to-end requirement each: the
// benchmark's archchain system, shortened.
func chainSet(t *testing.T, n int) *arch.CompiledSet {
	t.Helper()
	sys := arch.NewSystem("chain")
	cpu := sys.AddProcessor("CPU", 10, arch.SchedNondet)
	reqs := make([]*arch.Requirement, n)
	for i := range reqs {
		sc := sys.AddScenario(fmt.Sprintf("s%d", i), i+1, arch.Periodic(arch.MS(int64(40+40*(i%2)), 1), arch.MS(int64(3*i), 1)))
		sc.Compute(fmt.Sprintf("op%d", i), cpu, 45000)
		reqs[i] = arch.EndToEnd(fmt.Sprintf("r%d", i), sc)
	}
	cs, err := arch.CompileAll(sys, reqs, arch.Options{HorizonMS: 120})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// verdictBytes analyzes cs and returns its wire bytes, the sweep's duration
// zeroed, and every requirement's formatted witness trace.
func verdictBytes(t *testing.T, cs *arch.CompiledSet, opts core.Options) (string, []string, core.Stats) {
	t.Helper()
	all, err := cs.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	resp := wire.FromAllResult(all)
	resp.Stats.DurationNS = 0
	data, err := wire.Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]string, len(all.Results))
	for i, r := range all.Results {
		if traces[i], err = cs.Witness(i, r, opts); err != nil {
			t.Fatal(err)
		}
	}
	return string(data), traces, all.Stats
}

// TestLookaheadCaseStudyBitIdentical runs the AL·pno sweep with two
// observers and a 6-scenario chain with the lookahead helper forced on from
// the first expansion and forced off: the wire bytes, the Stats and every
// witness trace must be equal.
func TestLookaheadCaseStudyBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study sweep in -short mode")
	}
	for _, set := range []struct {
		name string
		cs   *arch.CompiledSet
	}{
		{"AL·pno", caseNet(t)},
		{"chain of 6", chainSet(t, 6)},
	} {
		on, onTraces, onStats := verdictBytes(t, set.cs, core.WithLookahead(core.Options{}, true))
		off, offTraces, offStats := verdictBytes(t, set.cs, core.WithLookahead(core.Options{}, false))
		if on != off {
			t.Errorf("%s: wire bytes differ\nwith the helper:\n%s\nwithout:\n%s", set.name, on, off)
		}
		if onStats.Live != offStats.Live {
			t.Errorf("%s: %d zones live with the helper, %d without", set.name, onStats.Live, offStats.Live)
		}
		for i := range onTraces {
			if onTraces[i] != offTraces[i] {
				t.Errorf("%s: witness %d differs\nwith the helper:\n%s\nwithout:\n%s", set.name, i, onTraces[i], offTraces[i])
			}
		}
	}
}

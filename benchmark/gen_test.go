package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/benchmark/expected"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/wire"
)

// The same seed must give byte-identical inputs and the same schedule;
// another seed must give other inputs.
func TestGeneratorsAreDeterministic(t *testing.T) {
	a, b, c := genVariants(7, 500), genVariants(7, 500), genVariants(8, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("genVariants: same seed, different models")
	}
	same := 0
	seen := map[string]bool{}
	for i := range a {
		if a[i].model == c[i].model {
			same++
		}
		if seen[a[i].model] {
			t.Fatalf("variant %d repeats an earlier model", i)
		}
		seen[a[i].model] = true
	}
	if same > 0 {
		t.Fatalf("genVariants: %d of %d models identical under another seed", same, len(a))
	}
	if !bytes.Equal(archChainJSON(10), archChainJSON(10)) || fischerTA("f", 5, 2, 2) != fischerTA("f", 5, 2, 2) {
		t.Fatal("seed-independent generators are not reproducible")
	}

	w, err := newServe(3, smokeSize)
	if err != nil {
		t.Fatal(err)
	}
	var schedules [2][]string
	for k := range schedules {
		in, err := w.open()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			data, err := json.Marshal(in.(*serveInst).fresh(w.(*serveLoad).po))
			if err != nil {
				t.Fatal(err)
			}
			schedules[k] = append(schedules[k], string(data))
		}
		if err := in.close(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(schedules[0], schedules[1]) || schedules[0][0] == schedules[0][1] {
		t.Fatal("serve_cold: the same seed must give the same schedule of distinct submissions")
	}
}

// The two seed-independent generated models are pinned to their exploration
// sizes, so a generator edit cannot silently change the work every timing
// rests on.
func TestPinnedSizes(t *testing.T) {
	t.Parallel()
	cs, err := compileArch(archChainJSON(fullSize.chainN), arch.Options{HorizonMS: archChainHorizonMS})
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.Net.NumClocks(); got != 22 {
		t.Errorf("archchain has %d clocks, want 22", got)
	}
	all, err := cs.Analyze(core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if all.Stats.Stored != expected.ArchChainStored || all.Stats.Transitions != expected.ArchChainTransitions {
		t.Errorf("archchain: stored %d transitions %d, pinned %d / %d",
			all.Stats.Stored, all.Stats.Transitions, expected.ArchChainStored, expected.ArchChainTransitions)
	}

	out, _, err := taAnalysis(fischerTA("fischer", fullSize.fischerN, 2, 2), fischerQueries(), core.Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.TAResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Stored != expected.Fischer5Stored || resp.Stats.Transitions != expected.Fischer5Transitions {
		t.Errorf("fischer: stored %d transitions %d, pinned %d / %d",
			resp.Stats.Stored, resp.Stats.Transitions, expected.Fischer5Stored, expected.Fischer5Transitions)
	}
}

// An unsafe Fischer variant (wait constant below the write bound) must be
// reported unsafe, or the analytic answer checks nothing.
func TestFischerVerdictFollowsConstants(t *testing.T) {
	for _, c := range []struct{ write, wait int64 }{{3, 2}, {2, 2}, {1, 5}, {9, 8}} {
		out, _, err := taAnalysis(fischerTA("f", 2, c.write, c.wait), fischerQueries(), core.Options{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var resp wire.TAResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		if err := expected.CheckFischer(resp, c.write, c.wait); err != nil {
			t.Errorf("write %d wait %d: %v", c.write, c.wait, err)
		}
		if err := expected.CheckFischer(resp, c.wait+1, c.write-1); (err == nil) == (c.wait >= c.write) {
			// Swapped-and-shifted constants flip safety exactly when the
			// original was safe; the check must notice.
			t.Errorf("write %d wait %d: check accepts the verdict of other constants: %v", c.write, c.wait, err)
		}
	}
}

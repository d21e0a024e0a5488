package wire

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
)

func tinyTA(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/tiny.ta")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTARunMatchesDirectQueries runs the four query kinds through the shared
// TARun path and checks each verdict against the known answers on tiny.ta.
func TestTARunMatchesDirectQueries(t *testing.T) {
	specs := []TAQuery{
		{Kind: "reach", Pred: "RAD.busy"},
		{Kind: "safety", Pred: "rec<=4"},
		{Kind: "sup", Clock: "x", Pred: "RAD.busy"},
		{Kind: "deadlock"},
	}
	net, err := ParseTAModel(tinyTA(t), specs, 20)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewTARun(net, specs)
	if err != nil {
		t.Fatal(err)
	}
	checker, err := core.NewChecker(net)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := checker.RunQueries(core.Options{}, run.Queries()...)
	if err != nil {
		t.Fatal(err)
	}
	resp := run.Response(stats)
	if len(resp.Queries) != 4 {
		t.Fatalf("got %d query results", len(resp.Queries))
	}
	if !resp.Queries[0].Verdict || resp.Queries[0].Trace == "" {
		t.Errorf("reach RAD.busy: %+v, want reachable with a trace", resp.Queries[0])
	}
	if !resp.Queries[1].Verdict || resp.Queries[1].Trace != "" {
		t.Errorf("safety rec<=4: %+v, want holds without a trace", resp.Queries[1])
	}
	sup := resp.Queries[2]
	if !sup.Verdict || sup.Sup != "<=3" || sup.SupValue != 3 || !sup.SupAttained || sup.SupUnbounded {
		t.Errorf("sup x @ RAD.busy: %+v, want <=3 attained", sup)
	}
	if !resp.Queries[3].Verdict || resp.Queries[3].Trace != "" {
		t.Errorf("tiny model is deadlock-free (the generate/drain cycle never wedges): %+v", resp.Queries[3])
	}
	if resp.Stats.Stored == 0 || resp.Stats.DurationNS <= 0 {
		t.Errorf("stats not populated: %+v", resp.Stats)
	}
}

// TestTARunValidation covers the spec error paths.
func TestTARunValidation(t *testing.T) {
	net, err := ParseTAModel(tinyTA(t), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, specs := range [][]TAQuery{
		nil,
		{{Kind: "warp"}},
		{{Kind: "reach", Pred: "NO.loc"}},
		{{Kind: "sup", Clock: "ghost", Pred: "RAD.busy"}},
	} {
		if _, err := NewTARun(net, specs); err == nil {
			t.Errorf("specs %+v: expected an error", specs)
		}
	}
	if _, err := ParseTAModel(tinyTA(t), []TAQuery{{Kind: "sup", Clock: "ghost", Pred: "x"}}, 10); err == nil {
		t.Error("unknown sup clock with a horizon must fail at parse")
	}
}

// TestUnknownSupClockOneError pins one message for a sup clock the model
// does not declare, whether or not a horizon is registered for it. The
// reference clock has no name: "t0" is unknown too.
func TestUnknownSupClockOneError(t *testing.T) {
	for _, name := range []string{"nope", "t0", ""} {
		want := fmt.Sprintf("wire: unknown clock %q", name)
		specs := []TAQuery{{Kind: "sup", Clock: name, Pred: "RAD.busy"}}
		for _, maxConst := range []int64{0, 20} {
			if _, err := ParseTAModel(tinyTA(t), specs, maxConst); err == nil || err.Error() != want {
				t.Errorf("ParseTAModel sup %q, max_const %d: %v, want %s", name, maxConst, err, want)
			}
		}
		net, err := ParseTAModel(tinyTA(t), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewTARun(net, specs); err == nil || err.Error() != want {
			t.Errorf("NewTARun sup %q: %v, want %s", name, err, want)
		}
	}
}

// TestDeclaredT0IsMeasured is the regression test for the reference clock
// shadowing a declared clock named t0: tiny.ta with its clock x renamed t0
// must answer what tiny.ta answers for x.
func TestDeclaredT0IsMeasured(t *testing.T) {
	src := regexp.MustCompile(`\bx\b`).ReplaceAllString(tinyTA(t), "t0")
	if !strings.Contains(src, "clock:t0") {
		t.Fatalf("renaming x left no clock t0:\n%s", src)
	}
	for _, maxConst := range []int64{0, 20} {
		specs := []TAQuery{{Kind: "sup", Clock: "t0", Pred: "RAD.busy"}}
		net, err := ParseTAModel(src, specs, maxConst)
		if err != nil {
			t.Fatal(err)
		}
		run, err := NewTARun(net, specs)
		if err != nil {
			t.Fatal(err)
		}
		checker, err := core.NewChecker(net)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := checker.RunQueries(core.Options{}, run.Queries()...)
		if err != nil {
			t.Fatal(err)
		}
		if got := run.Response(stats).Queries[0].Sup; got != "<=3" {
			t.Errorf("max_const %d: sup t0 @ RAD.busy = %q, want <=3", maxConst, got)
		}
	}
}

// TestFromAllResultExact pins the arch encoding: exact rational strings, the
// paper-table display, and stats mirroring.
func TestFromAllResultExact(t *testing.T) {
	data, err := os.ReadFile("../../testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	sys, reqs, err := arch.ParseSystem(data)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := arch.CompileAll(sys, reqs, arch.Options{HorizonMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp := FromAllResult(all)
	if len(resp.Results) != len(reqs) {
		t.Fatalf("got %d results for %d requirements", len(resp.Results), len(reqs))
	}
	for i, r := range resp.Results {
		want := all.Results[i]
		if r.Req != want.Req.Name || r.MS != want.MS.RatString() || r.Display != want.String() ||
			r.Exact != want.Exact || r.Attained != want.Attained {
			t.Errorf("result %d: wire %+v does not mirror %+v", i, r, want)
		}
	}
	if resp.Stats.Stored != all.Stats.Stored {
		t.Errorf("stats stored %d != %d", resp.Stats.Stored, all.Stats.Stored)
	}
	// The wire form must be valid JSON with stable field names.
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var back ArchResponse
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Results[0].MS != resp.Results[0].MS {
		t.Error("JSON round trip lost the exact MS string")
	}
}

// TestLabelKindWireBytesStable pins the wire spelling of transition kinds
// after core.Label.Kind became an integer enum: formatted traces — the only
// place labels reach the wire — must still say "init", "tau", "sync", and
// "broadcast", and the JSON response must round-trip byte-identically.
func TestLabelKindWireBytesStable(t *testing.T) {
	specs := []TAQuery{{Kind: "reach", Pred: "RAD.busy"}}
	net, err := ParseTAModel(tinyTA(t), specs, 20)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewTARun(net, specs)
	if err != nil {
		t.Fatal(err)
	}
	checker, err := core.NewChecker(net)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := checker.RunQueries(core.Options{}, run.Queries()...)
	if err != nil {
		t.Fatal(err)
	}
	resp := run.Response(stats)
	trace := resp.Queries[0].Trace
	if trace == "" {
		t.Fatal("reach RAD.busy produced no trace")
	}
	// The witness passes through the urgent broadcast "hurry", so the trace
	// must carry the historical spellings of both the initial pseudo-label
	// and the broadcast kind.
	for _, want := range []string{"init", "broadcast(hurry):"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace lost the %q spelling:\n%s", want, trace)
		}
	}
	for _, enum := range []core.LabelKind{core.LabelNone, core.LabelTau, core.LabelSync, core.LabelBroadcast} {
		if s := enum.String(); s != map[core.LabelKind]string{
			core.LabelNone: "init", core.LabelTau: "tau",
			core.LabelSync: "sync", core.LabelBroadcast: "broadcast",
		}[enum] {
			t.Errorf("LabelKind(%d).String() = %q", enum, s)
		}
	}
	// Byte-identical JSON round trip: unmarshal and re-marshal.
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var back TAResponse
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Errorf("wire bytes not stable under round trip:\n%s\n%s", b, b2)
	}
	if back.Queries[0].Trace != trace {
		t.Error("round trip altered the trace string")
	}
}

// TestEncodeBytes pins the one encoder's byte format — what `archcheck -json`,
// `tacheck -json` and a served result body all emit: two-space indent, a
// trailing newline, and encoding/json's default escaping ("<" as \u003c).
func TestEncodeBytes(t *testing.T) {
	got, err := Encode(TAResponse{Queries: []TAQueryResult{{Kind: "sup", Sup: "<=3", SupValue: 3, SupAttained: true}}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "queries": [
    {
      "kind": "sup",
      "verdict": false,
      "sup": "\u003c=3",
      "sup_value": 3,
      "sup_attained": true
    }
  ],
  "stats": {
    "stored": 0,
    "popped": 0,
    "transitions": 0,
    "deadlocks": 0,
    "truncated": false,
    "duration_ns": 0
  }
}
`
	if string(got) != want {
		t.Errorf("Encode bytes:\n%s\nwant:\n%s", got, want)
	}
}

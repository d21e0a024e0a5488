//go:build faultinject

package pubsub_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/serve/api"
)

// Chaos coverage for the dispatch path (CI job "chaos", -tags faultinject):
// faults armed at the serve/dispatch site — fired as a proxy job starts
// routing — must keep the blast radius at one job and one node, with the
// cluster still answering correctly.

// nonOwnerOf picks a cluster frontend that does not own the key.
func nonOwnerOf(t *testing.T, nodes []*clusterNode, key string) *clusterNode {
	t.Helper()
	owner := nodes[0].dispatch.Owner(key)
	for _, n := range nodes {
		if n.dispatch.Self() != owner {
			return n
		}
	}
	t.Fatal("every node owns the key")
	return nil
}

// TestChaosDispatchErrorFallsBack injects an error into the routing step:
// the affected frontend must degrade to computing locally (correct verdicts,
// fallback counted) instead of failing the job.
func TestChaosDispatchErrorFallsBack(t *testing.T) {
	defer faultinject.Reset()
	req := &api.SubmitRequest{Kind: "arch", Model: readFile(t, "../../../testdata/tiny.json"),
		Options: api.SubmitOptions{HorizonMS: 100}}
	id := learnJobID(t, req)
	_, nodes := newCluster(t, 2, serve.Config{CPUTokens: 2})
	proxy := nonOwnerOf(t, nodes, id)

	faultinject.Set("serve/dispatch", faultinject.Fault{Kind: faultinject.KindError})
	defer faultinject.Clear("serve/dispatch")

	sr, st := submitAwait(t, proxy, req, time.Minute)
	if sr.JobID != id {
		t.Fatalf("cluster derived job id %s, learned %s", sr.JobID, id)
	}
	if st.State != api.StateDone {
		t.Fatalf("non-owner under dispatch fault: %s (%s)", st.State, st.Error)
	}
	if fb := proxy.server.Stats().DispatchFallbacks; fb != 1 {
		t.Errorf("dispatch fault produced %d fallbacks, want 1", fb)
	}
	if got := totalExplorations(nodes); got != 1 {
		t.Errorf("degraded frontend ran %d explorations, want 1 (local fallback)", got)
	}
}

// TestChaosDispatchPanicContained injects a panic into the routing step: the
// proxy job fails alone — contained, grant-free, table slot recycled — and a
// resubmission succeeds through the recovered path (served from the owner's
// retained completion or the replicated cache).
func TestChaosDispatchPanicContained(t *testing.T) {
	defer faultinject.Reset()
	req := &api.SubmitRequest{Kind: "arch", Model: readFile(t, "../../../testdata/tiny.json"),
		Options: api.SubmitOptions{HorizonMS: 100}}
	id := learnJobID(t, req)
	_, nodes := newCluster(t, 2, serve.Config{CPUTokens: 2})
	proxy := nonOwnerOf(t, nodes, id)

	faultinject.Set("serve/dispatch", faultinject.Fault{Kind: faultinject.KindPanic})
	_, st := submitAwait(t, proxy, req, time.Minute)
	faultinject.Clear("serve/dispatch")
	if st.State != api.StateFailed || !strings.Contains(st.Error, "job panicked") {
		t.Fatalf("proxy under injected panic: %s (%q), want failed (job panicked)", st.State, st.Error)
	}
	// The panic fired before routing: no envelope reached the owner, no
	// sweep ran anywhere.
	if got := totalExplorations(nodes); got != 0 {
		t.Errorf("panicked proxy cost %d explorations, want 0", got)
	}

	// The failed table entry is replaced; the retry routes normally and the
	// owner computes.
	_, st = submitAwait(t, proxy, req, time.Minute)
	if st.State != api.StateDone {
		t.Fatalf("retry after contained dispatch panic: %s (%s)", st.State, st.Error)
	}
	if got := totalExplorations(nodes); got != 1 {
		t.Errorf("cluster ran %d explorations for the retry, want 1", got)
	}
	// Both frontends now serve the same bytes.
	a, err := nodes[0].client.Result(context.Background(), st.JobID)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nodes[1].client.Result(context.Background(), st.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("frontends serve different bytes after recovery")
	}
}

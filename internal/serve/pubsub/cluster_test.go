package pubsub_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/icrns"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/serve/pubsub"
	"repro/internal/wire"
)

// These tests are the cluster extension of the serve package's HTTP oracle:
// an N-node in-process fleet sharing one memory broker, where every frontend
// must hand back byte-identical wire results no matter which node computed
// them, and a cross-node thundering herd must cost exactly one exploration
// cluster-wide.

type clusterNode struct {
	server   *serve.Server
	base     string
	dispatch *pubsub.Dispatcher
	cache    *pubsub.Cache
	client   *client.Client
}

// newCluster boots n managers over one shared broker, each wearing its HTTP
// facade on an httptest listener.
func newCluster(t *testing.T, n int, cfg serve.Config) (pubsub.Broker, []*clusterNode) {
	t.Helper()
	broker := pubsub.NewMemBroker()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
	}
	nodes := make([]*clusterNode, n)
	for i, id := range ids {
		d, c, err := pubsub.NewNode(broker, id, ids, 0)
		if err != nil {
			t.Fatal(err)
		}
		nodeCfg := cfg
		nodeCfg.Dispatch = d
		nodeCfg.Results = c
		s := serve.New(nodeCfg)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			_ = s.Shutdown(10 * time.Second)
		})
		nodes[i] = &clusterNode{server: s, base: ts.URL, dispatch: d, cache: c,
			client: client.New(ts.URL, nil)}
	}
	return broker, nodes
}

func totalExplorations(nodes []*clusterNode) int64 {
	var sum int64
	for _, n := range nodes {
		sum += n.server.Stats().Explorations
	}
	return sum
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// learnJobID derives a submission's content-addressed job id on a throwaway
// single-node server (content addressing is deterministic and backend-free),
// so a test can pick the NON-owner frontend deterministically — submitting
// to the owner first would replicate the result and short-circuit the proxy
// path under test.
func learnJobID(t *testing.T, req *api.SubmitRequest) string {
	t.Helper()
	s := serve.New(serve.Config{CPUTokens: 2})
	t.Cleanup(func() { _ = s.Shutdown(10 * time.Second) })
	resp, err := s.Submit(req)
	if err != nil {
		t.Fatalf("learning job id: %v", err)
	}
	return resp.JobID
}

// submitAwait pushes one submission through a node's typed client and waits
// for the terminal state.
func submitAwait(t *testing.T, n *clusterNode, req *api.SubmitRequest, timeout time.Duration) (*api.SubmitResponse, *api.StatusResponse) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	sr, err := n.client.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := n.client.Await(ctx, sr.JobID, 0)
	if err != nil {
		t.Fatalf("await %s: %v", sr.JobID, err)
	}
	return sr, st
}

// TestClusterOracleCaseStudyModels is the fleet version of the PR 5 HTTP
// oracle: the paper's AL-combination case-study cells submitted to every node
// of a three-node cluster must come back byte-for-byte identical from all
// frontends — the bytes of the one node that computed, relayed or replicated
// verbatim — and semantically identical to a direct CompiledSet.Analyze call.
// One submission fan-out costs one exploration cluster-wide.
func TestClusterOracleCaseStudyModels(t *testing.T) {
	_, nodes := newCluster(t, 3, serve.Config{CPUTokens: 2})
	names := []string{icrns.ReqHandleTMC, icrns.ReqAddressLookup}
	horizons := map[string]int64{}
	for _, n := range names {
		horizons[n] = icrns.HorizonMS(n)
	}
	var wantExplorations int64
	for _, col := range []icrns.Column{icrns.ColPO, icrns.ColPNO} {
		sys, reqmap := icrns.Build(icrns.ComboAL, col, icrns.DefaultConfig())
		reqs := make([]*arch.Requirement, len(names))
		for i, n := range names {
			reqs[i] = reqmap[n]
		}
		src, err := arch.MarshalSystem(sys, reqs)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := arch.CompileAll(sys, reqs,
			arch.Options{HorizonMSFor: func(r *arch.Requirement) int64 { return horizons[r.Name] }})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := cs.Analyze(core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := wire.FromAllResult(direct)
		wantExplorations++

		req := &api.SubmitRequest{
			Kind:         "arch",
			Model:        string(src),
			Requirements: names,
			Options:      api.SubmitOptions{HorizonMSByReq: horizons},
		}
		var bodies [][]byte
		for i, n := range nodes {
			_, st := submitAwait(t, n, req, 2*time.Minute)
			if st.State != api.StateDone {
				t.Fatalf("col %v node %d: %s (%s)", col, i, st.State, st.Error)
			}
			body, err := n.client.Result(context.Background(), st.JobID)
			if err != nil {
				t.Fatalf("col %v node %d result: %v", col, i, err)
			}
			bodies = append(bodies, body)
		}
		// The replication invariant, literally: every frontend serves the
		// owner's bytes, duration fields included.
		for i := 1; i < len(bodies); i++ {
			if !bytes.Equal(bodies[0], bodies[i]) {
				t.Errorf("col %v: node %d result bytes differ from node 0", col, i)
			}
		}
		// And those bytes agree with the direct library call on everything
		// but wall-clock duration.
		var got wire.ArchResponse
		if err := json.Unmarshal(bodies[0], &got); err != nil {
			t.Fatal(err)
		}
		got.Stats.DurationNS = 0
		ref := want
		ref.Stats.DurationNS = 0
		gotJSON, _ := json.Marshal(got)
		refJSON, _ := json.Marshal(ref)
		if !bytes.Equal(gotJSON, refJSON) {
			t.Errorf("col %v: served %s != direct %s", col, gotJSON, refJSON)
		}
	}
	if got := totalExplorations(nodes); got != wantExplorations {
		t.Errorf("cluster ran %d explorations for %d distinct submissions", got, wantExplorations)
	}
}

// TestClusterThunderingHerd hammers all three frontends with the same ta
// submission concurrently: cluster-wide singleflight must collapse the herd
// onto ONE exploration on the key's owner, with every waiter receiving the
// same bytes. Run under -race in CI.
func TestClusterThunderingHerd(t *testing.T) {
	_, nodes := newCluster(t, 3, serve.Config{CPUTokens: 2})
	model := readFile(t, "../../../testdata/tiny.ta")
	req := &api.SubmitRequest{
		Kind:    "ta",
		Model:   model,
		Queries: []wire.TAQuery{{Kind: "reach", Pred: "RAD.busy"}, {Kind: "deadlock"}},
	}

	const perNode = 4
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
		errs   []error
	)
	for _, n := range nodes {
		for g := 0; g < perNode; g++ {
			wg.Add(1)
			go func(n *clusterNode) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				sr, err := n.client.Submit(ctx, req)
				if err == nil {
					_, err = n.client.Await(ctx, sr.JobID, 0)
				}
				var body []byte
				if err == nil {
					body, err = n.client.Result(ctx, sr.JobID)
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					bodies = append(bodies, body)
				}
				mu.Unlock()
			}(n)
		}
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatalf("herd submission: %v", err)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("herd waiter %d got different bytes", i)
		}
	}
	if got := totalExplorations(nodes); got != 1 {
		t.Errorf("cluster-wide herd ran %d explorations, want 1", got)
	}
	// The non-owner frontends answered with peer-computed bytes; their
	// /metrics must say so.
	var remote int64
	for _, n := range nodes {
		m, err := n.client.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		v, ok := client.Metric(m, "taserved_remote_hits_total")
		if !ok {
			t.Fatalf("node %s metrics missing taserved_remote_hits_total", n.dispatch.Self())
		}
		remote += v
	}
	if remote == 0 {
		t.Error("no node reported remote hits after a cross-node herd")
	}
}

// TestReplicatedCacheServesAnyFrontend completes a job via one frontend and
// then asks the others: with the result replicated on the completions feed,
// every node must answer done immediately — no second exploration, no
// dispatch round-trip — with the owner's exact bytes.
func TestReplicatedCacheServesAnyFrontend(t *testing.T) {
	_, nodes := newCluster(t, 3, serve.Config{CPUTokens: 2})
	req := &api.SubmitRequest{Kind: "arch", Model: readFile(t, "../../../testdata/tiny.json"),
		Options: api.SubmitOptions{HorizonMS: 100}}

	sr, st := submitAwait(t, nodes[0], req, time.Minute)
	if st.State != api.StateDone {
		t.Fatalf("seed job: %s (%s)", st.State, st.Error)
	}
	want, err := nodes[0].client.Result(context.Background(), sr.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if got := totalExplorations(nodes); got != 1 {
		t.Fatalf("seed cost %d explorations, want 1", got)
	}
	// Every replica hears the announcement — after the job shows done, not
	// before: the completion is published once the job is terminal and
	// delivered asynchronously, so wait for each replica (the resubmissions
	// below expect a cache hit) instead of asserting on the instant.
	deadline := time.Now().Add(time.Minute)
	for i, n := range nodes {
		for n.cache.Len() != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("node %d replicated %d results, want 1", i, n.cache.Len())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i, n := range nodes[1:] {
		sr2, err := n.client.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("node %d resubmit: %v", i+1, err)
		}
		if sr2.JobID != sr.JobID || sr2.State != api.StateDone || sr2.Created {
			t.Fatalf("node %d resubmit = %+v, want done cache hit on %s", i+1, sr2, sr.JobID)
		}
		got, err := n.client.Result(context.Background(), sr2.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("node %d served different bytes than the computing node", i+1)
		}
	}
	if got := totalExplorations(nodes); got != 1 {
		t.Errorf("cache-served resubmissions cost explorations: total %d, want 1", got)
	}
}

// TestErrorsNeverReplicated fails a job on its owner and checks the failure
// relays with its exact wire code but never enters any replica: resubmission
// recomputes from scratch.
func TestErrorsNeverReplicated(t *testing.T) {
	_, nodes := newCluster(t, 3, serve.Config{CPUTokens: 2})
	req := &api.SubmitRequest{Kind: "arch", Model: readFile(t, "../../../testdata/tiny.json"),
		Options: api.SubmitOptions{HorizonMS: 100, StateBudget: 1}}

	sr, st := submitAwait(t, nodes[0], req, time.Minute)
	if st.State != api.StateFailed || st.Error != wire.CodeStateBudget {
		t.Fatalf("budget job: %s (%q), want failed %q", st.State, st.Error, wire.CodeStateBudget)
	}
	owner := nodes[0].dispatch.Owner(sr.JobID)
	// The relayed failure reports the same code on a frontend that did not
	// run the sweep (pick one that is not the owner, if the submitter was).
	var other *clusterNode
	for _, n := range nodes[1:] {
		if n.dispatch.Self() != owner {
			other = n
			break
		}
	}
	_, st2 := submitAwait(t, other, req, time.Minute)
	if st2.State != api.StateFailed || st2.Error != wire.CodeStateBudget {
		t.Fatalf("relayed budget failure: %s (%q), want failed %q", st2.State, st2.Error, wire.CodeStateBudget)
	}
	for i, n := range nodes {
		if n.cache.Len() != 0 {
			t.Errorf("node %d replicated a failure (%d cached results)", i, n.cache.Len())
		}
	}
	// Each attempt recomputed: failures are never served from anywhere — read
	// at this instant, so the second verdict cannot be the first one replayed.
	if got := totalExplorations(nodes); got != 2 {
		t.Errorf("two failed submissions cost %d explorations, want 2 (recompute, never cache)", got)
	}
}

// TestDuplicateCompletionIdempotent re-announces a finished job's completion
// event: at-least-once delivery means every layer — watchers, replicas, the
// job table — must absorb duplicates without state damage.
func TestDuplicateCompletionIdempotent(t *testing.T) {
	_, nodes := newCluster(t, 2, serve.Config{CPUTokens: 2})
	req := &api.SubmitRequest{Kind: "arch", Model: readFile(t, "../../../testdata/tiny.json"),
		Options: api.SubmitOptions{HorizonMS: 100}}
	sr, st := submitAwait(t, nodes[0], req, time.Minute)
	if st.State != api.StateDone {
		t.Fatalf("seed job: %s (%s)", st.State, st.Error)
	}
	want, err := nodes[0].client.Result(context.Background(), sr.JobID)
	if err != nil {
		t.Fatal(err)
	}

	ev := api.CompletionEvent{Key: sr.JobID, Node: "replayer", Kind: "arch",
		State: api.StateDone, Result: want}
	for i := 0; i < 3; i++ {
		if err := nodes[0].dispatch.Announce(ev); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range nodes {
		if n.cache.Len() != 1 {
			t.Errorf("node %d holds %d results after duplicate announcements, want 1", i, n.cache.Len())
		}
		st, err := n.client.Status(context.Background(), sr.JobID)
		if err == nil && st.State != api.StateDone {
			t.Errorf("node %d job state %s after duplicates, want done", i, st.State)
		}
		got, ok := n.cache.Get(sr.JobID)
		if !ok || !bytes.Equal(got.Result, want) {
			t.Errorf("node %d cached bytes changed under duplicate announcements", i)
		}
	}
}

// TestWaitOnProxyJob parks a status wait on a non-owner frontend's proxy job
// while the owner does not exist yet, then boots the owner: the wait must end
// when the relayed completion is adopted — not at its timeout — and the
// frontend must serve the owner's bytes.
func TestWaitOnProxyJob(t *testing.T) {
	req := &api.SubmitRequest{Kind: "arch", Model: readFile(t, "../../../testdata/tiny.json"),
		Options: api.SubmitOptions{HorizonMS: 100}}
	id := learnJobID(t, req)

	broker := pubsub.NewMemBroker()
	ids := []string{"n0", "n1"}
	boot := map[string]func() *client.Client{}
	var ownerID string
	for _, self := range ids {
		d, c, err := pubsub.NewNode(broker, self, ids, 0)
		if err != nil {
			t.Fatal(err)
		}
		ownerID = d.Owner(id)
		boot[self] = func() *client.Client {
			s := serve.New(serve.Config{CPUTokens: 2, Dispatch: d, Results: c})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() {
				ts.Close()
				_ = s.Shutdown(10 * time.Second)
			})
			return client.New(ts.URL, nil)
		}
	}
	frontendID := ids[0]
	if frontendID == ownerID {
		frontendID = ids[1]
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	frontend := boot[frontendID]()
	sr, err := frontend.Submit(ctx, req)
	if err != nil || sr.JobID != id || !sr.Created {
		t.Fatalf("frontend submit = %+v, %v", sr, err)
	}
	type answer struct {
		st  *api.StatusResponse
		err error
		at  time.Time
	}
	got := make(chan answer, 1)
	go func() {
		st, err := frontend.StatusWait(ctx, id, 30*time.Second)
		got <- answer{st, err, time.Now()}
	}()
	for {
		text, err := frontend.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := client.Metric(text, "taserved_status_waiters"); n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case a := <-got:
		t.Fatalf("the wait was answered (%+v, %v) before any node could compute", a.st, a.err)
	case <-time.After(20 * time.Millisecond):
	}

	// The owner subscribes, hears the retained envelope, computes, announces.
	booted := time.Now()
	owner := boot[ownerID]()
	a := <-got
	if a.err != nil || a.st.State != api.StateDone {
		t.Fatalf("wait on the proxy = %+v, %v; want done", a.st, a.err)
	}
	if lag := a.at.Sub(booted); lag > 5*time.Second {
		t.Errorf("the wait ended %v after the owner booted", lag)
	}
	want, err := owner.Result(ctx, id)
	if err != nil {
		t.Fatalf("owner result: %v", err)
	}
	have, err := frontend.Result(ctx, id)
	if err != nil {
		t.Fatalf("frontend result: %v", err)
	}
	if !bytes.Equal(have, want) {
		t.Errorf("the frontend serves different bytes than the owner:\n%s\n%s", have, want)
	}
}

package pubsub_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/pubsub"
	"repro/internal/wire"
)

// Delivery-semantics tests for the in-process broker and the adapters on top
// of it: at-least-once delivery with duplicates, retention for late joiners,
// and the transport-death paths (broker down at dispatch time, broker dying
// mid-wait) degrading to local compute instead of hanging.

// TestWatchJoinAfterPublish announces a completion before anyone watches the
// key: a later Watch must still hear it (last-message retention), which is
// what lets a proxy created after the owner finished resolve immediately.
func TestWatchJoinAfterPublish(t *testing.T) {
	broker := pubsub.NewMemBroker()
	d, _, err := pubsub.NewNode(broker, "n0", []string{"n0", "n1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev := api.CompletionEvent{Key: "k1", Node: "n1", State: api.StateDone, Result: []byte("r")}
	if err := d.Announce(ev); err != nil {
		t.Fatal(err)
	}
	got := make(chan api.CompletionEvent, 1)
	cancel, err := d.Watch("k1", func(ev api.CompletionEvent) {
		select {
		case got <- ev:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	select {
	case g := <-got:
		if g.Key != "k1" || g.State != api.StateDone || string(g.Result) != "r" {
			t.Fatalf("late watcher got %+v", g)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late watcher never received the retained completion")
	}
}

// TestWatchNeverReplaysFailure announces a failed and a canceled completion
// before anyone watches the key: a later Watch must hear neither (a failure
// belongs to the attempt that produced it; the watcher's own envelope earns a
// recompute), while a done completion announced before them is still replayed.
func TestWatchNeverReplaysFailure(t *testing.T) {
	broker := pubsub.NewMemBroker()
	d, _, err := pubsub.NewNode(broker, "n0", []string{"n0", "n1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	watch := func(key string) []api.CompletionEvent {
		var got []api.CompletionEvent
		cancel, err := d.Watch(key, func(ev api.CompletionEvent) { got = append(got, ev) })
		if err != nil {
			t.Fatal(err)
		}
		cancel() // the replay, if any, is delivered inside Watch
		return got
	}
	for _, ev := range []api.CompletionEvent{
		{Key: "k1", Node: "n1", State: api.StateFailed, Error: wire.CodeStateBudget},
		{Key: "k1", Node: "n1", State: api.StateCanceled, Error: wire.CodeCanceled},
	} {
		if err := d.Announce(ev); err != nil {
			t.Fatal(err)
		}
		if got := watch("k1"); len(got) != 0 {
			t.Fatalf("late watcher was replayed %+v", got)
		}
	}
	done := api.CompletionEvent{Key: "k2", Node: "n1", State: api.StateDone, Result: []byte("r")}
	failed := api.CompletionEvent{Key: "k2", Node: "n1", State: api.StateFailed, Error: wire.CodeDeadlineExceeded}
	for _, ev := range []api.CompletionEvent{done, failed} {
		if err := d.Announce(ev); err != nil {
			t.Fatal(err)
		}
	}
	if got := watch("k2"); len(got) != 1 || got[0].State != api.StateDone {
		t.Fatalf("late watcher of a done key got %+v, want the done event alone", got)
	}
}

// TestWatchAtLeastOnceDuplicates announces the same completion repeatedly:
// the watcher hears every delivery (the broker does not dedupe), which is
// exactly why the manager's event handling must be idempotent.
func TestWatchAtLeastOnceDuplicates(t *testing.T) {
	broker := pubsub.NewMemBroker()
	d, _, err := pubsub.NewNode(broker, "n0", []string{"n0", "n1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	cancel, err := d.Watch("k1", func(api.CompletionEvent) { calls.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	ev := api.CompletionEvent{Key: "k1", Node: "n1", State: api.StateDone, Result: []byte("r")}
	for i := 0; i < 3; i++ {
		if err := d.Announce(ev); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got < 3 {
		t.Fatalf("watcher saw %d deliveries of 3 announcements", got)
	}
}

// TestWatchBrokerDeathSynthesizesFailure closes the broker under a live
// watcher: the watcher must receive a synthetic failed completion carrying
// the named dispatch-failure code rather than waiting forever.
func TestWatchBrokerDeathSynthesizesFailure(t *testing.T) {
	broker := pubsub.NewMemBroker()
	d, _, err := pubsub.NewNode(broker, "n0", []string{"n0", "n1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan api.CompletionEvent, 1)
	cancel, err := d.Watch("k1", func(ev api.CompletionEvent) {
		select {
		case got <- ev:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	_ = broker.Close()
	select {
	case ev := <-got:
		if ev.State != api.StateFailed || ev.Error != wire.CodeDispatchFailed {
			t.Fatalf("broker death delivered %+v, want failed/%s", ev, wire.CodeDispatchFailed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher hung on a dead broker")
	}
}

// manyKeysRequest returns the i-th of a family of distinct tiny submissions
// (distinct horizons → distinct content keys), so at least one key lands on
// any given ring member.
func manyKeysRequest(t *testing.T, model string, i int) *api.SubmitRequest {
	t.Helper()
	return &api.SubmitRequest{Kind: "arch", Model: model,
		Options: api.SubmitOptions{HorizonMS: int64(100 + i)}}
}

// TestBrokerDownFallsBackToLocalCompute kills the broker after the node came
// up: envelopes for peer-owned keys cannot be sent, so the manager must
// compute them locally (under a freshly acquired grant) instead of failing
// or hanging. Every job completes; the fallback counter records the degraded
// dispatches.
func TestBrokerDownFallsBackToLocalCompute(t *testing.T) {
	broker := pubsub.NewMemBroker()
	d, c, err := pubsub.NewNode(broker, "n0", []string{"n0", "ghost"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{CPUTokens: 2, Dispatch: d, Results: c})
	t.Cleanup(func() { _ = s.Shutdown(10 * time.Second) })
	_ = broker.Close()

	model := readFile(t, "../../../testdata/tiny.json")
	const keys = 32
	peerOwned := 0
	for i := 0; i < keys; i++ {
		req := manyKeysRequest(t, model, i)
		resp, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if d.Owner(resp.JobID) != "n0" {
			peerOwned++
		}
	}
	if peerOwned == 0 {
		t.Fatal("ring assigned no key to the peer; test exercises nothing")
	}
	deadline := time.Now().Add(time.Minute)
	for {
		st := s.Stats()
		if st.DispatchFallbacks >= int64(peerOwned) && st.Explorations >= keys {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not drain under a dead broker: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBrokerDiesMidWait dispatches to a peer that will never answer (it has
// no manager), then kills the broker while proxies wait: the synthetic
// dispatch-failure event must flip every waiting proxy to local compute — no
// hang, no lost job.
func TestBrokerDiesMidWait(t *testing.T) {
	broker := pubsub.NewMemBroker()
	d, c, err := pubsub.NewNode(broker, "n0", []string{"n0", "ghost"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{CPUTokens: 2, Dispatch: d, Results: c})
	t.Cleanup(func() { _ = s.Shutdown(10 * time.Second) })

	model := readFile(t, "../../../testdata/tiny.json")
	const keys = 32
	dispatched := 0
	for i := 0; i < keys; i++ {
		req := manyKeysRequest(t, model, i)
		resp, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if d.Owner(resp.JobID) == "ghost" {
			dispatched++
		}
	}
	if dispatched == 0 {
		t.Fatal("ring assigned no key to the ghost peer; test exercises nothing")
	}
	// The ghost-owned proxies are now parked waiting for completions that
	// will never come. Kill the transport under them.
	_ = broker.Close()
	deadline := time.Now().Add(time.Minute)
	for {
		st := s.Stats()
		if st.Explorations >= keys {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxies hung after broker death: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := s.Stats(); st.DispatchFallbacks < int64(dispatched) {
		t.Errorf("only %d fallbacks for %d ghost-owned keys", st.DispatchFallbacks, dispatched)
	}
}

// TestReceiveDownRoutesLocally constructs the manager against an
// already-dead broker: Receive fails at startup, so the node must disable
// routing entirely and compute everything locally — a frontend that cannot
// hear envelopes must not advertise ownership.
func TestReceiveDownRoutesLocally(t *testing.T) {
	broker := pubsub.NewMemBroker()
	d, c, err := pubsub.NewNode(broker, "n0", []string{"n0", "ghost"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = broker.Close()
	s := serve.New(serve.Config{CPUTokens: 2, Dispatch: d, Results: c})
	t.Cleanup(func() { _ = s.Shutdown(10 * time.Second) })

	model := readFile(t, "../../../testdata/tiny.json")
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(manyKeysRequest(t, model, i)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(time.Minute)
	for {
		st := s.Stats()
		if st.Explorations >= 8 {
			if st.Dispatched != 0 || st.DispatchFallbacks != 0 {
				t.Fatalf("dead-receive node still routed: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not run on dead-receive node: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

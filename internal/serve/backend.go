package serve

import "repro/internal/serve/api"

// This file defines the two pluggable backend seams of the Server and
// their single-node (default) implementations. The server itself is
// transport-agnostic: everything cluster-shaped — who owns a content hash,
// how a submission reaches its owner, how completions and results come back —
// goes through these interfaces. The local backends reduce every operation to
// a no-op, which is what makes the default configuration bit-identical to the
// historical single-node server; internal/serve/pubsub provides the
// multi-node implementations over a publish/subscribe broker.

// Dispatch routes submissions to the node owning their content hash and
// carries completion events between nodes. Implementations must be safe for
// concurrent use; handlers registered with Watch and Receive may be invoked
// from arbitrary goroutines and must be treated as at-least-once deliveries
// (the server tolerates duplicates).
type Dispatch interface {
	// Self reports this node's id.
	Self() string
	// Nodes lists every node id participating in routing, this node
	// included. A single-node backend returns just Self.
	Nodes() []string
	// Owner maps a content key to the node id that must run the job.
	Owner(key string) string
	// Send ships a dispatch envelope (a serialized api.SubmitRequest) to the
	// owner node. An error means the envelope was NOT delivered and the
	// caller should fall back to computing locally.
	Send(owner string, envelope []byte) error
	// Watch subscribes to completion events for one content key. The handler
	// runs at least once per completion announced from here on (duplicates
	// possible), is replayed a done completion announced earlier — never an
	// earlier failure or cancel — and additionally receives a synthetic failed event with code
	// wire.CodeDispatchFailed if the transport dies while watching — a
	// watcher must never hang on a broker that went away. The returned
	// cancel function releases the subscription.
	Watch(key string, fn func(api.CompletionEvent)) (cancel func(), err error)
	// Announce publishes a completion event cluster-wide: to the per-key
	// watchers and to the replication feed every node's result cache
	// consumes.
	Announce(ev api.CompletionEvent) error
	// Receive registers this node's handler for dispatch envelopes addressed
	// to it. Called once by New.
	Receive(fn func(envelope []byte)) error
	// Close releases the backend's subscriptions.
	Close() error
}

// ResultCache is the content-addressed replicated result store: completed
// results (and only results — never errors, never partial states) keyed by
// the submission content hash. Values are immutable once stored; Get must
// return the bytes exactly as Put received them, because those bytes are the
// wire response. Implementations are fed by the server (adopted proxy
// completions) and, in cluster mode, by the dispatch backend's replication
// feed, and must tolerate duplicate Puts of the same key.
type ResultCache interface {
	// Get returns the cached completion for key, if any.
	Get(key string) (api.CompletionEvent, bool)
	// Put stores a completion. Implementations must ignore events whose
	// State is not done — failures are recomputed on resubmission, exactly
	// like the single-node job table does.
	Put(ev api.CompletionEvent)
	// Len reports the number of cached results, for metrics.
	Len() int
}

// localDispatch is the single-node Dispatch: this node owns every key, so no
// envelope, completion event, or subscription ever exists. It is the
// Config.Dispatch default and keeps the server's behavior bit-identical to
// the pre-cluster server.
type localDispatch struct{}

func (localDispatch) Self() string                       { return "local" }
func (localDispatch) Nodes() []string                    { return []string{"local"} }
func (localDispatch) Owner(string) string                { return "local" }
func (localDispatch) Send(string, []byte) error          { return nil }
func (localDispatch) Announce(api.CompletionEvent) error { return nil }
func (localDispatch) Receive(func([]byte)) error         { return nil }
func (localDispatch) Close() error                       { return nil }
func (localDispatch) Watch(string, func(api.CompletionEvent)) (func(), error) {
	return func() {}, nil
}

// noCache is the single-node ResultCache: always a miss. The job table
// already doubles as the node-local result cache (job id == content key), so
// a separate store would only duplicate retention policy; replication is
// meaningful only with a cluster backend.
type noCache struct{}

func (noCache) Get(string) (api.CompletionEvent, bool) { return api.CompletionEvent{}, false }
func (noCache) Put(api.CompletionEvent)                {}
func (noCache) Len() int                               { return 0 }

// Package api is the transport contract of the taserved analysis service:
// the request/response bodies and job states that travel between clients and
// the server, and — in cluster mode — between nodes as dispatch
// envelopes. It holds types only, so the typed client
// (internal/serve/client), the server (internal/serve), and the
// dispatch backends (internal/serve/pubsub) can all share one contract
// without import cycles. internal/serve aliases every name, so existing code
// written against serve.SubmitRequest keeps compiling unchanged.
package api

import (
	"encoding/json"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Job states on the wire.
const (
	StateQueued   = "queued"   // admitted, waiting for a CPU token
	StateRunning  = "running"  // holding its token, sweep in progress
	StateDone     = "done"     // result available
	StateFailed   = "failed"   // analysis error (DeadlineExceeded included)
	StateCanceled = "canceled" // canceled by a client or by shutdown
)

// SubmitRequest is the body of POST /v1/jobs — and, verbatim, the dispatch
// envelope a frontend ships to the node owning the submission's content hash
// (normalization is deterministic, so the owner re-derives the same job id).
type SubmitRequest struct {
	// Kind selects the model format: "arch" (JSON architecture description,
	// the archcheck input) or "ta" (textual timed-automata network, the
	// tacheck input).
	Kind string `json:"kind"`
	// Model is the model source, verbatim.
	Model string `json:"model"`
	// Requirements optionally restricts an arch analysis to the named
	// requirements, in the given order; empty means all, file order.
	Requirements []string `json:"requirements,omitempty"`
	// Queries lists the questions of a ta analysis; all of them ride one
	// exploration.
	Queries []wire.TAQuery `json:"queries,omitempty"`
	Options SubmitOptions  `json:"options"`
}

// SubmitOptions tunes one submission. Every field participates in the
// content key: two submissions share a job (and its cached result) exactly
// when their normalized forms coincide.
type SubmitOptions struct {
	// HorizonMS is the arch observation horizon (default 2000; negative is
	// rejected).
	HorizonMS int64 `json:"horizon_ms,omitempty"`
	// HorizonMSByReq overrides the horizon per requirement; an entry that is
	// not positive falls back to HorizonMS.
	HorizonMSByReq map[string]int64 `json:"horizon_ms_by_req,omitempty"`
	// QueueCap bounds the arch pending-event counters (default 8; negative
	// is rejected).
	QueueCap int64 `json:"queue_cap,omitempty"`
	// MaxStates truncates the exploration (0 = exhaustive).
	MaxStates int `json:"max_states,omitempty"`
	// StateBudget hard-caps the exploration: exceeding it fails the job with
	// error "StateBudgetExceeded" (unlike max_states, which truncates).
	StateBudget int `json:"state_budget,omitempty"`
	// MaxBytes bounds the job's zone memory; exceeding it fails the job with
	// error "MemoryBudgetExceeded" and partial progress. When the server
	// runs with a global memory budget this is also the job's admission
	// grant (clamped to the budget); 0 requests the server's default share.
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// Order is the search order: bfs (default), df, rdf.
	Order string `json:"order,omitempty"`
	// Seed feeds rdf shuffling.
	Seed int64 `json:"seed,omitempty"`
	// MaxConst is the extrapolation horizon for ta sup queries (0 or
	// negative: the model's own constants).
	MaxConst int64 `json:"max_const,omitempty"`
	// DeadlineMS bounds the job's wall clock from submission (admission wait
	// included); 0 selects the server default. An expired job fails with
	// error "DeadlineExceeded".
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Witness additionally captures a critical-instant trace per requirement
	// (arch only), replayed from the job's one exploration, for
	// GET …/trace.
	Witness bool `json:"witness,omitempty"`
}

// SubmitResponse is the body answering POST /v1/jobs.
type SubmitResponse struct {
	JobID string `json:"job_id"`
	// State is the job state at response time; "done" means the result is
	// already available (result-cache hit).
	State string `json:"state"`
	// Created reports whether this submission started a new analysis; false
	// means it joined a live twin or hit a finished result.
	Created bool `json:"created"`
}

// StatusResponse is the body answering GET /v1/jobs/{id}: the job as of the
// moment the server answers. Without a query that moment is at once. With
// ?wait_ms=N (a non-negative decimal integer; anything else is 400
// bad_request) the server holds the answer until the job is terminal or N
// milliseconds have passed, whichever is first — N above the server's cap of
// 30 s is clamped to it, not refused — and also answers early when the caller
// goes away or the node starts shutting down. The body is the same either
// way, so a waiter tells "finished" from "timed out" by State; an unknown id
// is 404 without waiting. With ?result=1 (the only value it takes; anything
// else is 400 bad_request) a done job's answer also carries Result, so a
// waiter reads the verdict without a GET …/result of its own.
type StatusResponse struct {
	JobID       string       `json:"job_id"`
	Kind        string       `json:"kind"`
	State       string       `json:"state"`
	Error       string       `json:"error,omitempty"`
	SubmittedAt time.Time    `json:"submitted_at"`
	StartedAt   *time.Time   `json:"started_at,omitempty"`
	FinishedAt  *time.Time   `json:"finished_at,omitempty"`
	Progress    ProgressBody `json:"progress"`
	// Result is a done job's raw wire JSON, byte-identical to GET
	// …/result, present only when the call asked with ?result=1. Like
	// CompletionEvent.Result it travels base64: embedded raw, the status
	// body's indenting encoder would re-format it.
	Result []byte `json:"result,omitempty"`
}

// CancelResponse is the body answering POST /v1/jobs/{id}/cancel: the job's
// state immediately after the cancellation request (cancellation is
// cooperative, so a running job may still report running here and reach
// canceled shortly after).
type CancelResponse struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// ProgressBody is the live view of a running exploration, sampled from the
// engine's counters.
type ProgressBody struct {
	Stored      int64 `json:"stored"`
	Popped      int64 `json:"popped"`
	Transitions int64 `json:"transitions"`
	Deadlocks   int64 `json:"deadlocks"`
	Frontier    int64 `json:"frontier"`
	Running     bool  `json:"running"`
	// StoredBytes is the passed store's actual resident footprint: entries
	// with their packed discrete keys, zone records and packed zone bytes.
	StoredBytes int64 `json:"stored_bytes"`
	// InternHits / InternMisses count the store's entry lookups: a hit found
	// its discrete state's entry, a miss created one (core.Progress).
	InternHits   int64 `json:"intern_hits"`
	InternMisses int64 `json:"intern_misses"`
}

// ProfileResponse is the body answering GET /v1/jobs/{id}/profile, available
// once the job is terminal (409 with the current state before that).
type ProfileResponse struct {
	JobID       string    `json:"job_id"`
	Kind        string    `json:"kind"`
	State       string    `json:"state"`
	SubmittedAt time.Time `json:"submitted_at"`
	// WallNS is the job's wall clock in nanoseconds: submission through its
	// last recorded instant (finish, or the result announce when that ends
	// later).
	WallNS int64 `json:"wall_ns"`
	// Spans are the job's lifecycle stages (queue_wait, admission_wait,
	// compute, replicate), absolute Unix-ns intervals in recording order.
	Spans []obs.Span `json:"spans"`
	// Sweep is the engine's core.SweepProfile JSON — phase spans (parse,
	// compile, explore, trace-replay) plus the sweep's sampled series —
	// present only when this node ran the sweep (absent for proxied and
	// adopted results). Kept raw so the api package does not depend on core.
	Sweep json.RawMessage `json:"sweep,omitempty"`
}

// CompletionEvent is the cluster-wide announcement of a job reaching a
// terminal state, published by the node that ran (or adopted) the
// computation and consumed by every frontend holding a proxy for the same
// content key. Result bytes travel verbatim — the event is a relay, never a
// re-encoding — which is what keeps wire bytes identical no matter which
// node serves them. Errors are relayed so waiting proxies fail promptly,
// but only State == done events may enter a replicated result cache.
type CompletionEvent struct {
	// Key is the content hash — job id and cache key.
	Key string `json:"key"`
	// Node is the id of the announcing node.
	Node string `json:"node"`
	// Kind echoes the submission kind ("arch" | "ta").
	Kind string `json:"kind"`
	// State is the terminal job state: done, failed, or canceled.
	State string `json:"state"`
	// Error carries the failure code/message for non-done states (one of the
	// wire.Code* job-failure constants when the failure has a named class).
	Error string `json:"error,omitempty"`
	// Result is the raw wire JSON of a done job, byte-identical to the
	// owner's local result body.
	Result []byte `json:"result,omitempty"`
	// Traces are the captured witness traces of a done job.
	Traces map[string]string `json:"traces,omitempty"`
}

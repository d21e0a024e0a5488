package serve

import (
	"encoding/json"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/serve/api"
	"repro/internal/wire"
)

// This file is the cluster half of the server: how a submission owned by
// a peer becomes a local proxy job, how completion events turn back into job
// results, and how this node's own completions are announced. Everything here
// reduces to a no-op under the default local backend.
//
// Ownership invariant: exactly one node — dispatch.Owner(key) — computes a
// content key; every other frontend holds a proxy job (job.remote, no
// grant) that waits on the key's completion topic. The owner's job table
// dedupes concurrent envelopes exactly like concurrent local submissions, so
// the cluster-wide exploration count for one key is 1. Degraded paths
// (backend down, envelope undeliverable, broker death mid-wait) fall back to
// computing locally under a freshly acquired grant — correctness never
// depends on the transport, only singleflight breadth does.

// proxyRun builds the run closure of a proxy job: subscribe to the key's
// completion topic, ship the request to the owner as its envelope, wait for
// the relayed terminal event. Watch starts before Send so the completion of a
// fast owner cannot slip between the two — which is also why the backend need
// not replay failures: the outcome of the attempt this envelope starts, joins
// or is refused for is announced after the watch is in place.
func (s *Server) proxyRun(sub *submission, req *SubmitRequest, owner string) runFunc {
	return func(j *job) ([]byte, map[string]string, error) {
		if faultinject.Enabled {
			if ferr := faultinject.Fire("serve/dispatch"); ferr != nil {
				return s.localFallback(sub, j)
			}
		}
		envelope, err := json.Marshal(req)
		if err != nil {
			return s.localFallback(sub, j)
		}
		// Buffered by one and drop-on-full: events are terminal, the first
		// decides the job; at-least-once duplicates are discarded here.
		evCh := make(chan api.CompletionEvent, 1)
		cancelWatch, err := s.dispatch.Watch(j.id, func(ev api.CompletionEvent) {
			select {
			case evCh <- ev:
			default:
			}
		})
		if err != nil {
			return s.localFallback(sub, j)
		}
		defer cancelWatch()
		if err := s.dispatch.Send(owner, envelope); err != nil {
			return s.localFallback(sub, j)
		}

		// Cancel releases only this frontend's interest; the owner keeps
		// computing for its other watchers.
		ev, err := awaitAbortable(j.ctx, evCh)
		if err != nil {
			return nil, nil, err
		}
		if ev.State == api.StateFailed && ev.Error == wire.CodeDispatchFailed {
			// The transport died while we waited (synthetic event): the
			// owner may never have seen the envelope. Compute locally
			// rather than surface a transport failure for computable work.
			return s.localFallback(sub, j)
		}
		return s.adoptEvent(ev)
	}
}

// localFallback degrades a proxy job to a node-local computation. The proxy
// was admitted without a grant, so the fallback acquires the submission's
// real grant first — degraded routing never bypasses admission control.
func (s *Server) localFallback(sub *submission, j *job) ([]byte, map[string]string, error) {
	s.fallbacks.Add(1)
	if err := s.tokens.acquire(j.ctx, sub.spec.MaxBytes); err != nil {
		return nil, nil, err
	}
	defer s.tokens.release(sub.spec.MaxBytes)
	return s.compute(sub)(j)
}

// adoptEvent turns a relayed completion into this job's outcome. Done events
// carry the owner's wire bytes verbatim — they are returned untouched and
// fed to the replicated cache. Failure codes are mapped back to the core
// sentinels (wire.ErrorForCode) so job.finish names — and countOutcome counts —
// them identically to a local failure; unnamed failures travel as their
// message.
func (s *Server) adoptEvent(ev api.CompletionEvent) ([]byte, map[string]string, error) {
	switch ev.State {
	case api.StateDone:
		s.remoteHits.Add(1)
		s.results.Put(ev)
		return ev.Result, ev.Traces, nil
	case api.StateCanceled:
		return nil, nil, core.ErrCanceled
	default:
		if serr := wire.ErrorForCode(ev.Error); serr != nil {
			return nil, nil, serr
		}
		return nil, nil, errors.New(ev.Error)
	}
}

// handleEnvelope runs a dispatch envelope addressed to this node. The
// envelope is the sender's SubmitRequest verbatim and intake is
// deterministic, so the re-derived content hash matches the sender's job id
// and the job table dedupes N frontends' envelopes into one computation.
// Admission rejections are announced as failed completions (overloaded /
// shutting_down) so waiting proxies fail fast instead of timing out.
func (s *Server) handleEnvelope(envelope []byte) {
	var req SubmitRequest
	if err := json.Unmarshal(envelope, &req); err != nil {
		return
	}
	sub, err := s.intake(&req)
	if err != nil {
		// The sender derived a job from these same bytes successfully; a
		// failure here means version skew. Nothing useful to announce
		// without a key.
		return
	}
	// Completion (including a joined live twin's) is announced by the
	// onFinish hook; an already-done twin was announced when it finished and
	// its event is retained by the broker for late subscribers.
	_, _, err = s.jobs.submit(sub.id, sub.spec.Kind, false, sub.spec.MaxBytes, sub.deadline, s.compute(sub))
	if err != nil {
		_ = s.dispatch.Announce(api.CompletionEvent{
			Key: sub.id, Node: s.dispatch.Self(), Kind: sub.spec.Kind,
			State: api.StateFailed, Error: s.reject(err).code,
		})
	}
}

// countOutcome is the jobManager's onOutcome hook, called once per executed
// job just before it turns terminal. It counts aborts from the failure class
// of the job's error — so a job canceled or expired while queued for
// admission, a proxy's own cancel or deadline, and a relayed remote abort are
// accounted exactly like one that landed mid-sweep.
func (s *Server) countOutcome(code string) {
	switch code {
	case wire.CodeCanceled:
		s.canceled.Add(1)
	case wire.CodeDeadlineExceeded:
		s.expired.Add(1)
	}
}

// jobFinished is the jobManager's onFinish hook, called once per executed job
// right after it turned terminal: it relays the terminal state cluster-wide.
// Proxy and fallback jobs (job.remote) stay silent — announcing is the
// owner's job, and a proxy's local abort (cancel, deadline) must never
// overwrite the retained real completion of its key. The local backend
// reduces the relay to a snapshot and two no-ops.
func (s *Server) jobFinished(j *job) {
	if j.remote {
		return
	}
	state, errMsg, _, _ := j.snapshot()
	ev := api.CompletionEvent{Key: j.id, Node: s.dispatch.Self(), Kind: j.kind, State: state}
	if state == api.StateDone {
		// Terminal: result/traces are immutable now, and this hook runs on
		// the goroutine that wrote them.
		ev.Result, ev.Traces = j.result, j.traces
	} else {
		ev.Error = errMsg
	}
	// Feed our own replica directly too — the broker loops announcements
	// back, but the cache must not depend on that; Put is idempotent and
	// ignores non-done states.
	start := time.Now()
	s.results.Put(ev)
	_ = s.dispatch.Announce(ev)
	s.jobs.span(j, spanReplicate, start, time.Now())
}

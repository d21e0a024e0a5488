package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/dbm"
	"repro/internal/serve/api"
	"repro/internal/wire"
)

// This file is the HTTP facade: decoding, status codes, and routing. All job
// semantics live behind Submit and the job table; every handler is a thin
// translation onto them.

// Handler returns the HTTP API. The whole contract is versioned under /v1/.
//
//	POST /v1/jobs              submit an analysis; returns the job id
//	GET  /v1/jobs/{id}         status + live progress; ?wait_ms=N holds the
//	                           answer until the job is terminal or N ms pass;
//	                           ?result=1 adds a done job's wire result
//	GET  /v1/jobs/{id}/result  the wire result (done jobs only)
//	GET  /v1/jobs/{id}/trace   captured witness traces
//	GET  /v1/jobs/{id}/profile lifecycle spans + sweep profile (terminal jobs)
//	POST /v1/jobs/{id}/cancel  cooperative cancellation
//	GET  /v1/healthz           liveness + counts
//	GET  /v1/metrics           Prometheus text metrics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleProfile)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

type httpError struct {
	status int
	code   string
	msg    string
	// retryAfter, when nonzero, marks the rejection as retryable: it becomes
	// the Retry-After header and the structured retry guidance on the wire.
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, code: wire.CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

// writeJSON streams one of the service's own bodies (status, errors, health)
// in the style of wire.Encode. Verdict bytes never pass through here: they
// are stored encoded and served verbatim.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders any error as a structured wire.ErrorResponse. Retryable
// rejections additionally carry a Retry-After header plus jittered-backoff
// guidance in the body: the client should wait retry_after_ms plus up to
// retry_jitter_ms of uniform random slack, so a herd of shed clients spreads
// out instead of stampeding back together.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	body := wire.ErrorResponse{Error: err.Error(), Code: wire.CodeInternal}
	if he, ok := err.(*httpError); ok {
		status = he.status
		body.Code = he.code
		if he.retryAfter > 0 {
			body.RetryAfterMS = he.retryAfter.Milliseconds()
			body.RetryJitterMS = body.RetryAfterMS / 2
			w.Header().Set("Retry-After", fmt.Sprint(int64((he.retryAfter+time.Second-1)/time.Second)))
		}
	}
	writeJSON(w, status, body)
}

// maxBodyBytes bounds submissions; model sources are text, 8 MiB is generous.
const maxBodyBytes = 8 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		s.submissions.Add(1)
		writeError(w, badRequest("reading body: %v", err))
		return
	}
	if len(body) > maxBodyBytes {
		s.submissions.Add(1)
		writeError(w, &httpError{
			status: http.StatusRequestEntityTooLarge,
			code:   wire.CodeBodyTooLarge,
			msg:    fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes),
		})
		return
	}
	var req SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.submissions.Add(1)
		writeError(w, badRequest("decoding request: %v", err))
		return
	}
	resp, err := s.Submit(&req)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if resp.State == StateDone {
		status = http.StatusOK
	}
	writeJSON(w, status, resp)
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) *job {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, &httpError{status: http.StatusNotFound, code: wire.CodeNotFound, msg: "unknown job"})
		return nil
	}
	return j
}

// maxStatusWait caps wait_ms; a longer request is clamped to it, not refused.
// Thirty seconds sits under the 60 s idle timeout that proxies and load
// balancers commonly apply to a silent connection, and is long enough that
// following a sweep of any length costs two requests a minute. It is a
// property of the protocol, not of a deployment, so it is not configurable:
// a client that wants longer asks again.
const maxStatusWait = 30 * time.Second

// parseWaitMS reads the wait_ms query value of a status request: absent means
// no wait (the plain status call), a non-negative decimal integer is that many
// milliseconds clamped to maxStatusWait, anything else is a bad request.
func parseWaitMS(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms < 0 {
		return 0, badRequest("wait_ms must be a non-negative integer of milliseconds, got %q", v)
	}
	return time.Duration(min(ms, maxStatusWait.Milliseconds())) * time.Millisecond, nil
}

// parseResultFlag reads the result query value of a status request: absent
// means the plain status body, 1 asks for a done job's wire result in it as
// well, anything else is a bad request.
func parseResultFlag(q url.Values) (bool, error) {
	if !q.Has("result") {
		return false, nil
	}
	if v := q.Get("result"); v != "1" {
		return false, badRequest("result must be 1, got %q", v)
	}
	return true, nil
}

// awaitTerminal parks a status request until the job turns terminal, d passes,
// the request ends (the client went away) or Shutdown is through with the
// jobs — whichever is first. The caller reads the job's state afterwards
// either way.
func (s *Server) awaitTerminal(ctx context.Context, j *job, d time.Duration) {
	if d <= 0 || j.terminal() {
		return
	}
	s.statusWaiters.Add(1)
	defer s.statusWaiters.Add(-1)
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-j.done:
	case <-timer.C:
	case <-ctx.Done():
	case <-s.closing:
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.statusRequests.Add(1)
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	q := r.URL.Query()
	wait, err := parseWaitMS(q.Get("wait_ms"))
	if err != nil {
		writeError(w, err)
		return
	}
	withResult, err := parseResultFlag(q)
	if err != nil {
		writeError(w, err)
		return
	}
	s.awaitTerminal(r.Context(), j, wait)
	state, errMsg, started, finished := j.snapshot()
	p := j.mon.Snapshot()
	resp := StatusResponse{
		JobID:       j.id,
		Kind:        j.kind,
		State:       state,
		Error:       errMsg,
		SubmittedAt: j.submitted,
		Progress: api.ProgressBody{
			Stored:       p.Stored,
			Popped:       p.Popped,
			Transitions:  p.Transitions,
			Deadlocks:    p.Deadlocks,
			Frontier:     p.Frontier,
			Running:      p.Running,
			StoredBytes:  p.StoredBytes,
			InternHits:   p.InternHits,
			InternMisses: p.InternMisses,
		},
	}
	if !started.IsZero() {
		resp.StartedAt = &started
	}
	if !finished.IsZero() {
		resp.FinishedAt = &finished
	}
	if withResult && state == StateDone {
		resp.Result = j.resultBytes()
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeNotReady answers 409 for a job whose state does not have what was asked
// for yet (or never will): the state, plus the failure when there is one.
func writeNotReady(w http.ResponseWriter, state, errMsg string) {
	body := map[string]string{"state": state}
	if errMsg != "" {
		body["error"] = errMsg
	}
	writeJSON(w, http.StatusConflict, body)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	state, errMsg, _, _ := j.snapshot()
	if state != StateDone {
		writeNotReady(w, state, errMsg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(j.resultBytes())
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	state, _, _, _ := j.snapshot()
	if state != StateDone {
		writeNotReady(w, state, "")
		return
	}
	j.mu.Lock()
	traces := j.traces
	j.mu.Unlock()
	if len(traces) == 0 {
		writeError(w, &httpError{status: http.StatusNotFound, code: wire.CodeNotFound,
			msg: "no traces captured (arch jobs record them when submitted with options.witness)"})
		return
	}
	if req := r.URL.Query().Get("req"); req != "" {
		t, ok := traces[req]
		if !ok {
			writeError(w, &httpError{status: http.StatusNotFound, code: wire.CodeNotFound, msg: "no trace for " + req})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{req: t})
		return
	}
	writeJSON(w, http.StatusOK, traces)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	j.cancel()
	state, errMsg, _, _ := j.snapshot()
	writeJSON(w, http.StatusOK, api.CancelResponse{JobID: j.id, State: state, Error: errMsg})
}

// rate is hits/of, zero before anything was counted.
func rate(hits, of int64) float64 {
	if of == 0 {
		return 0
	}
	return float64(hits) / float64(of)
}

// handleHealthz reports graded health, not a flat 200: the body carries the
// admission pressure (queue depth, CPU-token and memory-budget saturation),
// the result-cache hit rate, the zone slab memory the process holds (in use
// plus cached — what /v1/metrics splits by state), the status requests parked
// in a wait_ms wait, and the node's cluster view
// (node id, peer count, remote hit rate), and when admission is saturated —
// new submissions would be shed — the endpoint flips to ok:false / 503 so
// load balancers steer traffic away while the node keeps draining its backlog
// and serving cached results. Degradation is judged per node: a saturated
// node sheds even when its peers are idle.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	active, retained := s.jobs.counts()
	c := s.Stats()
	inUse := s.tokens.inUse()
	degraded := active >= s.cfg.MaxActiveJobs
	storedBytes, ihits, imisses := s.jobs.storedFootprint()
	_, slabInUse, slabCached := dbm.SlabStats()
	body := map[string]any{
		"ok":                    !degraded,
		"degraded":              degraded,
		"uptime_s":              int64(time.Since(s.start).Seconds()),
		"active_jobs":           active,
		"max_active_jobs":       s.cfg.MaxActiveJobs,
		"retained_jobs":         retained,
		"queue_depth":           s.tokens.waiting(),
		"cpu_tokens":            s.cfg.CPUTokens,
		"tokens_in_use":         inUse,
		"cpu_saturation":        float64(inUse) / float64(s.cfg.CPUTokens),
		"memory_budget_bytes":   s.cfg.MemoryBudget,
		"memory_in_use_bytes":   s.tokens.bytesInUse(),
		"stored_zone_bytes":     storedBytes,
		"zone_slab_bytes":       slabInUse + slabCached,
		"intern_hit_rate":       rate(ihits, ihits+imisses),
		"shed_total":            c.Shed,
		"result_cache_hit_rate": rate(c.ResultHits, c.Submissions),
		"node_id":               s.dispatch.Self(),
		"peer_count":            len(s.dispatch.Nodes()),
		"remote_hit_rate":       rate(c.RemoteHits, c.Submissions),
		"replicated_results":    s.results.Len(),
		"status_waiters":        s.statusWaiters.Load(),
	}
	if s.cfg.MemoryBudget > 0 {
		// Saturation takes the worse of the two memory views: granted
		// admission bytes (what jobs reserved) and the live stores' actual
		// packed footprint (what is resident right now). Granted normally
		// dominates — compact zones keep actual use under the grant — so a
		// stored-bytes overtake means the budget accounting is drifting and
		// the node should shed before the kernel notices.
		used := max(s.tokens.bytesInUse(), storedBytes)
		body["memory_saturation"] = float64(used) / float64(s.cfg.MemoryBudget)
	}
	status := http.StatusOK
	if degraded {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// handleMetrics serves /v1/metrics from the obs registry.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WriteText(w)
}

// handleProfile serves a terminal job's profile: its lifecycle spans
// (queue-wait, admission-wait, compute, replicate) plus — when the job ran a
// sweep on this node — the engine's phase spans and sampled series. Non-terminal jobs answer 409, like /result.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	// terminal first: finish sets the state before it closes done, so the
	// snapshot taken after a true terminal() always reads a terminal state.
	term := j.terminal()
	state, errMsg, _, finished := j.snapshot()
	if !term {
		writeNotReady(w, state, errMsg)
		return
	}
	spans := j.spans.Snapshot()
	resp := api.ProfileResponse{
		JobID:       j.id,
		Kind:        j.kind,
		State:       state,
		SubmittedAt: j.submitted,
		Spans:       spans,
	}
	// Wall clock spans submission through the last recorded instant: finish
	// time, or the replicate span's end when the announce outlived it.
	endNS := finished.UnixNano()
	for _, sp := range spans {
		if sp.End() > endNS {
			endNS = sp.End()
		}
	}
	resp.WallNS = endNS - j.submitted.UnixNano()
	if p := j.mon.Profile(); p != nil {
		data, err := json.Marshal(p)
		if err != nil {
			writeError(w, err)
			return
		}
		resp.Sweep = data
	}
	writeJSON(w, http.StatusOK, resp)
}

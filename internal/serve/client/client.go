// Package client is the typed Go client of the taserved HTTP API: the
// /v1/ job lifecycle (submit, status, result, trace, cancel) plus the
// operational endpoints, speaking the internal/serve/api contract. Every
// call takes a context; non-2xx responses surface as *APIError carrying the
// HTTP status and the structured wire.ErrorResponse body (including the
// server's retry guidance on overload rejections). A done job's verdict rides
// home on the status wait that saw it finish, so Submit, Await and Result
// together cost two round trips. The package depends only on the contract
// types, so server-side tests can use it without import cycles.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve/api"
	"repro/internal/wire"
)

// Client talks to one taserved node.
type Client struct {
	base string
	hc   *http.Client
	// maxWait is the longest wait Await asks of the server in one call:
	// maxAwaitWait, except in this package's tests.
	maxWait time.Duration

	// handedData is the wire result the last done Await brought back for job
	// handedID, kept for the Result call on that id that normally follows.
	mu         sync.Mutex
	handedID   string
	handedData []byte
}

// New returns a client for the node at base (e.g. "http://127.0.0.1:8080").
// A nil httpClient selects http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient, maxWait: maxAwaitWait}
}

// APIError is a non-2xx response: the HTTP status plus the decoded
// structured body.
type APIError struct {
	Status int
	Body   wire.ErrorResponse
}

func (e *APIError) Error() string {
	msg := e.Body.Error
	if msg == "" {
		msg = http.StatusText(e.Status)
	}
	if e.Body.Code != "" {
		return fmt.Sprintf("taserved: %s (%s, HTTP %d)", msg, e.Body.Code, e.Status)
	}
	return fmt.Sprintf("taserved: %s (HTTP %d)", msg, e.Status)
}

func (c *Client) do(ctx context.Context, method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

// apiError decodes a non-2xx body into an *APIError. The 409 a job answers
// while it has nothing to give yet ({"state": …, "error": …}) becomes the
// one-line message "job is <state>[: <error>]"; other bodies that are not a
// wire.ErrorResponse keep their raw text as the message.
func apiError(status int, body []byte) *APIError {
	e := &APIError{Status: status}
	var b struct {
		wire.ErrorResponse
		State string `json:"state"`
	}
	if json.Unmarshal(body, &b) == nil {
		e.Body = b.ErrorResponse
		if b.State != "" {
			e.Body.Error = "job is " + b.State
			if b.Error != "" {
				e.Body.Error += ": " + b.Error
			}
		}
	}
	if e.Body.Error == "" {
		e.Body.Error = strings.TrimSpace(string(body))
	}
	return e
}

// Submit posts one analysis. The response reports the content-addressed job
// id and whether the submission started a new job, joined a live twin, or
// hit a cached result (state done).
func (c *Client) Submit(ctx context.Context, req *api.SubmitRequest) (*api.SubmitResponse, error) {
	status, body, err := c.do(ctx, http.MethodPost, "/v1/jobs", req)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return nil, apiError(status, body)
	}
	var sr api.SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// Status fetches one job's state and live progress, as of now.
func (c *Client) Status(ctx context.Context, id string) (*api.StatusResponse, error) {
	return c.StatusWait(ctx, id, 0)
}

// StatusWait is Status with a server-side wait: the server holds its answer
// until the job is terminal or wait has passed (whole milliseconds; it clamps
// the wait to its own cap, 30 s), and answers early — with whatever state the
// job is in — when it starts shutting down. wait <= 0 is the plain call.
func (c *Client) StatusWait(ctx context.Context, id string, wait time.Duration) (*api.StatusResponse, error) {
	return c.statusWait(ctx, id, wait, false)
}

// statusWait is StatusWait that, with withResult, also asks for a done job's
// wire result in the answer (?result=1).
func (c *Client) statusWait(ctx context.Context, id string, wait time.Duration, withResult bool) (*api.StatusResponse, error) {
	path, sep := "/v1/jobs/"+id, "?"
	if wait > 0 {
		path += sep + "wait_ms=" + strconv.FormatInt(max(wait.Milliseconds(), 1), 10) // a sub-ms wait still waits
		sep = "&"
	}
	if withResult {
		path += sep + "result=1"
	}
	status, body, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError(status, body)
	}
	var st api.StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// maxAwaitWait is the longest wait Await asks of the server in one call. It
// equals the server's cap: asking for more would be clamped, and Await would
// take the clamped answer for an early one and pause before asking again.
const maxAwaitWait = 30 * time.Second

// Await blocks until the job reaches a terminal state or the context ends,
// and returns the last status it saw (with ctx.Err() in the second case). It
// does not poll: each call is a StatusWait for what is left of the context
// (at most maxAwaitWait), which the server answers the moment the job turns
// terminal, and a wait that ran its full length is followed by the next one
// at once. interval is only the pause after a wait that came back non-terminal
// early — from a server that ignores wait_ms, or from a node that is draining
// — so that such a server is polled, not hammered; interval <= 0 selects 2ms.
//
// Each wait also asks for the verdict (?result=1). When the job is done, Await
// keeps the bytes the answer carried for the next Result call on that id and
// returns the status without them (Result is nil).
func (c *Client) Await(ctx context.Context, id string, interval time.Duration) (*api.StatusResponse, error) {
	if interval <= 0 {
		interval = 2 * time.Millisecond
	}
	var (
		last  *api.StatusResponse
		pause *time.Timer // created on the first early answer, reset after
	)
	for {
		wait := c.maxWait
		if deadline, ok := ctx.Deadline(); ok {
			// Whole milliseconds, as the wire carries them, and never zero:
			// the last sliver of a context is cut short by the context.
			wait = max(min(wait, time.Until(deadline)).Truncate(time.Millisecond), time.Millisecond)
		}
		asked := time.Now()
		st, err := c.statusWait(ctx, id, wait, true)
		if err != nil {
			if ctx.Err() != nil {
				return last, ctx.Err()
			}
			return nil, err
		}
		last = st
		switch st.State {
		case api.StateDone, api.StateFailed, api.StateCanceled:
			if st.Result != nil { // only a done answer carries one
				c.mu.Lock()
				c.handedID, c.handedData = id, st.Result
				c.mu.Unlock()
				st.Result = nil
			}
			return st, nil
		}
		if time.Since(asked) >= wait {
			continue
		}
		if pause == nil {
			pause = time.NewTimer(interval)
			defer pause.Stop()
		} else {
			pause.Reset(interval)
		}
		select {
		case <-ctx.Done():
			return last, ctx.Err()
		case <-pause.C:
		}
	}
}

// takeHanded returns and forgets the kept wire result when it is id's, and
// nil otherwise.
func (c *Client) takeHanded(id string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.handedID != id {
		return nil
	}
	data := c.handedData
	c.handedID, c.handedData = "", nil
	return data
}

// Result returns a done job's raw wire bytes, exactly as the server stored
// them — callers comparing against CLI output must not re-encode. Right after
// an Await that saw the job done it returns the bytes that wait brought back
// and sends nothing; the client keeps one such result, handed over once, so
// any other call — a second Result, another id, a Result racing another
// Await, a server that did not send the bytes — asks GET …/result.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	if data := c.takeHanded(id); data != nil {
		return data, nil
	}
	status, body, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError(status, body)
	}
	return body, nil
}

// Trace returns a done job's captured witness traces, optionally restricted
// to one requirement name (req == "" fetches all).
func (c *Client) Trace(ctx context.Context, id, req string) (map[string]string, error) {
	path := "/v1/jobs/" + id + "/trace"
	if req != "" {
		path += "?" + url.Values{"req": {req}}.Encode()
	}
	status, body, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError(status, body)
	}
	var traces map[string]string
	if err := json.Unmarshal(body, &traces); err != nil {
		return nil, err
	}
	return traces, nil
}

// Profile returns a terminal job's profile: lifecycle spans plus — when the
// serving node ran the sweep — the engine's phase spans and sampled
// series. Non-terminal jobs answer 409 (surfaced as an *APIError).
func (c *Client) Profile(ctx context.Context, id string) (*api.ProfileResponse, error) {
	status, body, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/profile", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError(status, body)
	}
	var pr api.ProfileResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, err
	}
	return &pr, nil
}

// Cancel requests cooperative cancellation and reports the job's state
// immediately after.
func (c *Client) Cancel(ctx context.Context, id string) (*api.CancelResponse, error) {
	status, body, err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError(status, body)
	}
	var cr api.CancelResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return nil, err
	}
	return &cr, nil
}

// Healthz fetches the node's graded health. ok mirrors the HTTP status: true
// for 200, false for a degraded 503 (the body is valid either way).
func (c *Client) Healthz(ctx context.Context) (body map[string]any, ok bool, err error) {
	status, raw, err := c.do(ctx, http.MethodGet, "/v1/healthz", nil)
	if err != nil {
		return nil, false, err
	}
	if status != http.StatusOK && status != http.StatusServiceUnavailable {
		return nil, false, apiError(status, raw)
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		return nil, false, err
	}
	return body, status == http.StatusOK, nil
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	status, body, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", apiError(status, body)
	}
	return string(body), nil
}

// Metric extracts one gauge/counter value from a Prometheus text exposition
// (exact name match, labels included). Shared by tests and the smoke tool.
func Metric(metrics, name string) (int64, bool) {
	for _, line := range strings.Split(metrics, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			var v int64
			if _, err := fmt.Sscanf(fields[1], "%d", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

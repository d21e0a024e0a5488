package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve/api"
	"repro/internal/wire"
)

// fakeNode serves GET /v1/jobs/{id} from answer, which is handed the call's
// ordinal (from 1) and its wait_ms, and returns the state to report.
func fakeNode(t *testing.T, answer func(r *http.Request, call int, wait time.Duration) string) (*Client, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ms, _ := strconv.ParseInt(r.URL.Query().Get("wait_ms"), 10, 64)
		state := answer(r, int(calls.Add(1)), time.Duration(ms)*time.Millisecond)
		_ = json.NewEncoder(w).Encode(api.StatusResponse{JobID: "j", State: state})
	}))
	t.Cleanup(ts.Close)
	return New(ts.URL, nil), &calls
}

// TestAwaitAgainstAPollingServer is the fallback: a node that ignores wait_ms
// (or is draining) answers early, and interval paces the calls.
func TestAwaitAgainstAPollingServer(t *testing.T) {
	const interval = 20 * time.Millisecond
	c, calls := fakeNode(t, func(_ *http.Request, call int, wait time.Duration) string {
		if wait <= 0 {
			t.Errorf("call %d carried no wait_ms", call)
		}
		if call < 4 {
			return api.StateRunning
		}
		return api.StateDone
	})
	begin := time.Now()
	st, err := c.Await(context.Background(), "j", interval)
	if err != nil || st.State != api.StateDone {
		t.Fatalf("Await = %+v, %v", st, err)
	}
	if calls.Load() != 4 {
		t.Errorf("%d status calls, want 4", calls.Load())
	}
	if took := time.Since(begin); took < 3*interval {
		t.Errorf("three early answers were followed up within %v, want a pause of %v after each", took, interval)
	}
}

// TestAwaitReissuesAFullWaitAtOnce: a wait that ran its length is not an early
// answer, so no pause follows it — with an hour's interval, any pause at all
// would outlast the test's context.
func TestAwaitReissuesAFullWaitAtOnce(t *testing.T) {
	c, calls := fakeNode(t, func(_ *http.Request, call int, wait time.Duration) string {
		if call < 3 {
			time.Sleep(wait)
			return api.StateQueued
		}
		return api.StateFailed
	})
	c.maxWait = 30 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := c.Await(ctx, "j", time.Hour)
	if err != nil || st.State != api.StateFailed {
		t.Fatalf("Await = %+v, %v", st, err)
	}
	if calls.Load() != 3 {
		t.Errorf("%d status calls, want 3", calls.Load())
	}
}

// TestAwaitContextEnds: whether the context runs out inside a request or
// inside the pause between two, Await hands back the last status it saw.
func TestAwaitContextEnds(t *testing.T) {
	t.Run("mid-request", func(t *testing.T) {
		c, _ := fakeNode(t, func(r *http.Request, call int, _ time.Duration) string {
			if call > 1 {
				<-r.Context().Done()
			}
			return api.StateRunning
		})
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		st, err := c.Await(ctx, "j", time.Millisecond)
		if !errors.Is(err, context.DeadlineExceeded) || st == nil || st.State != api.StateRunning {
			t.Errorf("Await = %+v, %v; want the running status and DeadlineExceeded", st, err)
		}
	})
	t.Run("mid-pause", func(t *testing.T) {
		c, calls := fakeNode(t, func(*http.Request, int, time.Duration) string { return api.StateQueued })
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		st, err := c.Await(ctx, "j", time.Hour)
		if !errors.Is(err, context.DeadlineExceeded) || st == nil || st.State != api.StateQueued || calls.Load() != 1 {
			t.Errorf("Await = %+v, %v after %d calls; want the queued status and DeadlineExceeded after 1", st, err, calls.Load())
		}
	})
	t.Run("before the first answer", func(t *testing.T) {
		c, _ := fakeNode(t, func(r *http.Request, _ int, _ time.Duration) string {
			<-r.Context().Done()
			return api.StateRunning
		})
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if st, err := c.Await(ctx, "j", 0); !errors.Is(err, context.DeadlineExceeded) || st != nil {
			t.Errorf("Await = %+v, %v; want no status and DeadlineExceeded", st, err)
		}
	})
}

// TestAwaitAPIError: a refusal is not a status; it ends the await as itself.
func TestAwaitAPIError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(wire.ErrorResponse{Error: "unknown job", Code: wire.CodeNotFound})
	}))
	defer ts.Close()
	st, err := New(ts.URL, nil).Await(context.Background(), "j", 0)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Body.Code != wire.CodeNotFound || st != nil {
		t.Errorf("Await = %+v, %v; want a 404 APIError", st, err)
	}
}

// TestStatusOmitsTheParameter: the plain call is the URL it always was.
func TestStatusOmitsTheParameter(t *testing.T) {
	var plain, waited string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.RawQuery == "" {
			plain = r.URL.Path
		} else {
			waited = r.URL.RawQuery
		}
		_ = json.NewEncoder(w).Encode(api.StatusResponse{JobID: "j", State: api.StateDone})
	}))
	defer ts.Close()
	c := New(ts.URL, nil)
	if _, err := c.Status(context.Background(), "j"); err != nil || plain != "/v1/jobs/j" {
		t.Errorf("Status requested %q, %v", plain, err)
	}
	if _, err := c.StatusWait(context.Background(), "j", 1500*time.Millisecond); err != nil || waited != "wait_ms=1500" {
		t.Errorf("StatusWait requested ?%s, %v", waited, err)
	}
}

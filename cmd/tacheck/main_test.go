package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/wire"
)

// TestMain runs the command itself when the test binary is started with
// TACHECK_MAIN=1, so that a test can drive tacheck as a process without
// building it.
func TestMain(m *testing.M) {
	if os.Getenv("TACHECK_MAIN") == "1" {
		os.Args[0] = "tacheck"
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tacheck runs the command with args and returns its stdout and stderr.
func tacheck(t *testing.T, args ...string) (stdout, stderr []byte, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TACHECK_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.Bytes(), errOut.Bytes(), err
}

// withoutDuration re-encodes a ta result with its wall-clock duration zeroed.
func withoutDuration(t *testing.T, data []byte) []byte {
	t.Helper()
	var resp wire.TAResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("%v: %s", err, data)
	}
	resp.Stats.DurationNS = 0
	out, err := wire.Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGuardPredicateMatchesService runs predicates in the guard grammar
// through `tacheck -json` and through the service: the bytes must agree,
// duration aside.
func TestGuardPredicateMatchesService(t *testing.T) {
	const model = "../../testdata/tiny.ta"
	src, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	specs := []wire.TAQuery{
		{Kind: "reach", Pred: "rec + 1 >= 2"},
		{Kind: "safety", Pred: "2 * rec - 1 < 8"},
		{Kind: "sup", Clock: "x", Pred: "RAD.busy && rec + 1 <= 1"},
	}
	cli, stderr, err := tacheck(t, "-model", model, "-json", "-max-const", "20",
		"-reach", specs[0].Pred, "-safety", specs[1].Pred, "-sup", "x @ "+specs[2].Pred)
	if err != nil {
		t.Fatalf("tacheck: %v: %s", err, stderr)
	}

	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		_ = s.Shutdown(10 * time.Second)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := client.New(ts.URL, nil)
	sr, err := c.Submit(ctx, &api.SubmitRequest{Kind: "ta", Model: string(src), Queries: specs,
		Options: api.SubmitOptions{MaxConst: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Await(ctx, sr.JobID, 0); err != nil || st.State != serve.StateDone {
		t.Fatalf("job %s: %+v, %v", sr.JobID, st, err)
	}
	served, err := c.Result(ctx, sr.JobID)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := withoutDuration(t, cli), withoutDuration(t, served); !bytes.Equal(got, want) {
		t.Errorf("tacheck -json:\n%s\nservice:\n%s", got, want)
	}
	var resp wire.TAResponse
	if err := json.Unmarshal(cli, &resp); err != nil {
		t.Fatal(err)
	}
	if q := resp.Queries; !q[0].Verdict || !q[1].Verdict || q[2].Sup != "<=3" {
		t.Errorf("tiny.ta answers %s, want rec >= 1 reachable, rec <= 4 always, sup x with rec == 0 = <=3", cli)
	}
}

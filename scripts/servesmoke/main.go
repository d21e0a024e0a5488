// Command servesmoke drives the taserved HTTP contract end to end with the
// typed Go client — the programmatic successor of the old curl loop in
// scripts/serve_smoke.sh. Two modes:
//
//	servesmoke -url http://127.0.0.1:PORT
//	    drive an already-running server (the serve_smoke.sh wrapper boots the
//	    real binary, points this tool at it, then checks graceful shutdown)
//
//	servesmoke -cluster 3
//	    boot an N-node in-process fleet over the shared in-memory broker and
//	    verify the fleet invariants: one exploration cluster-wide, remote
//	    cache hits on the other frontends, and byte-identical result bodies
//	    from every node
//
// Run from the repository root (or set -testdata); exits non-zero with a
// "servesmoke: ..." diagnostic on the first failed check.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/serve/pubsub"
	"repro/internal/wire"
)

func main() {
	var (
		url      = flag.String("url", "", "base url of a running taserved to smoke")
		cluster  = flag.Int("cluster", 0, "boot an in-process fleet of this many nodes and smoke it")
		testdata = flag.String("testdata", "testdata", "directory holding tiny.json and tiny.ta")
	)
	flag.Parse()
	switch {
	case *url != "" && *cluster > 0:
		fail("pass -url or -cluster, not both")
	case *url != "":
		smokeSingle(*url, *testdata)
	case *cluster > 1:
		smokeCluster(*cluster, *testdata)
	default:
		fail("pass -url http://... or -cluster N (N >= 2)")
	}
	fmt.Println("serve smoke OK")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servesmoke: "+format+"\n", args...)
	os.Exit(1)
}

func step(name string) { fmt.Println("==", name) }

func readModel(dir, name string) string {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		fail("reading model: %v", err)
	}
	return string(data)
}

// archRequest is the tiny arch sweep every smoke mode submits: two
// requirements, known verdicts ("e2e" meets 30ms).
func archRequest(dir string) *api.SubmitRequest {
	return &api.SubmitRequest{Kind: "arch", Model: readModel(dir, "tiny.json"),
		Options: api.SubmitOptions{HorizonMS: 100}}
}

// taRequest is the combined ta query set: a sup bound plus a deadlock sweep.
func taRequest(dir string) *api.SubmitRequest {
	return &api.SubmitRequest{Kind: "ta", Model: readModel(dir, "tiny.ta"),
		Queries: []wire.TAQuery{
			{Kind: "sup", Clock: "x", Pred: "RAD.busy"},
			{Kind: "deadlock"},
		},
		Options: api.SubmitOptions{MaxConst: 20}}
}

// submitAwait submits and waits for a terminal state, failing unless done.
// Await waits on the server (GET /v1/jobs/{id}?wait_ms=&result=1), so the
// node's own metrics must show that following the job to its end took one
// status request at most, and that no waiter is left parked once it has ended.
func submitAwait(ctx context.Context, c *client.Client, req *api.SubmitRequest) *api.StatusResponse {
	before := metric(ctx, c, "taserved_status_requests_total")
	sr, err := c.Submit(ctx, req)
	if err != nil {
		fail("submit: %v", err)
	}
	st, err := c.Await(ctx, sr.JobID, 0)
	if err != nil {
		fail("awaiting %s: %v", sr.JobID, err)
	}
	if st.State != api.StateDone {
		fail("job %s ended %s (%s)", sr.JobID, st.State, st.Error)
	}
	if n := metric(ctx, c, "taserved_status_requests_total") - before; n > 1 {
		fail("awaiting %s took %d status requests, want at most 1 (is Await polling?)", sr.JobID, n)
	}
	if n := metric(ctx, c, "taserved_status_waiters"); n != 0 {
		fail("%d status waiters still parked after %s ended", n, sr.JobID)
	}
	return st
}

// handedResult reads a job's result right after its Await — the bytes that
// wait brought back, handed over by the client — and fails unless a second
// Result, which asks the server, reads the same bytes.
func handedResult(ctx context.Context, c *client.Client, id string) []byte {
	handed, err := c.Result(ctx, id)
	if err != nil {
		fail("result: %v", err)
	}
	served, err := c.Result(ctx, id)
	if err != nil {
		fail("result again: %v", err)
	}
	if !bytes.Equal(handed, served) {
		fail("the result handed over by Await differs from the server's:\n%s\n%s", handed, served)
	}
	return handed
}

// checkArchResult decodes a tiny.json result body and verifies the known
// verdicts, mirroring the old jq assertions.
func checkArchResult(body []byte) {
	var res struct {
		Results []struct {
			Req string `json:"req"`
			MS  string `json:"ms"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		fail("decoding arch result: %v", err)
	}
	if len(res.Results) != 2 || res.Results[0].Req != "e2e" || res.Results[0].MS != "30" {
		fail("arch result mismatch: %+v", res.Results)
	}
}

// checkTAResult verifies the combined ta query verdicts.
func checkTAResult(body []byte) {
	var res struct {
		Queries []struct {
			Sup     string `json:"sup"`
			Verdict bool   `json:"verdict"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		fail("decoding ta result: %v", err)
	}
	if len(res.Queries) != 2 || res.Queries[0].Sup != "<=3" || !res.Queries[1].Verdict {
		fail("ta result mismatch: %+v", res.Queries)
	}
}

// metric fetches one counter from a node, failing if absent.
func metric(ctx context.Context, c *client.Client, name string) int64 {
	text, err := c.Metrics(ctx)
	if err != nil {
		fail("metrics: %v", err)
	}
	v, ok := client.Metric(text, name)
	if !ok {
		fail("metric %s missing from exposition", name)
	}
	return v
}

// jobSpanFamilies are the per-job latency histograms every node must expose.
var jobSpanFamilies = []string{
	"taserved_job_queue_wait_seconds",
	"taserved_job_admission_wait_seconds",
	"taserved_job_compute_seconds",
	"taserved_job_replicate_seconds",
}

// pubsubFamilies are the dispatch-backend histograms cluster nodes must expose.
var pubsubFamilies = []string{
	"taserved_pubsub_dispatch_seconds",
	"taserved_pubsub_announce_seconds",
	"taserved_pubsub_adopt_seconds",
}

// requireFamilies asserts the exposition declares (TYPE line) every named
// family and passes the shared obs.Lint validator.
func requireFamilies(ctx context.Context, c *client.Client, who string, families ...string) {
	text, err := c.Metrics(ctx)
	if err != nil {
		fail("%s metrics: %v", who, err)
	}
	for _, f := range families {
		if !strings.Contains(text, "# TYPE "+f+" ") {
			fail("%s: metric family %s missing from exposition", who, f)
		}
	}
	if errs := obs.Lint(strings.NewReader(text)); len(errs) > 0 {
		fail("%s: exposition fails lint: %v", who, errs[0])
	}
}

// checkProfile fetches a terminal job's profile and verifies the lifecycle
// spans plus (when the serving node ran the sweep) the engine phases.
func checkProfile(ctx context.Context, c *client.Client, id string, wantSweep bool) {
	pr, err := c.Profile(ctx, id)
	if err != nil {
		fail("profile %s: %v", id, err)
	}
	if pr.WallNS <= 0 || len(pr.Spans) == 0 {
		fail("profile %s: wall_ns=%d spans=%d, want both positive", id, pr.WallNS, len(pr.Spans))
	}
	have := map[string]bool{}
	for _, sp := range pr.Spans {
		have[sp.Name] = true
	}
	for _, name := range []string{"queue_wait", "compute"} {
		if !have[name] {
			fail("profile %s: span %s missing (got %v)", id, name, pr.Spans)
		}
	}
	if !wantSweep {
		return
	}
	var sweep struct {
		Phases []obs.Span `json:"phases"`
		Series []struct {
			Samples []json.RawMessage `json:"samples"`
		} `json:"series"`
	}
	if err := json.Unmarshal(pr.Sweep, &sweep); err != nil || len(pr.Sweep) == 0 {
		fail("profile %s: sweep missing or undecodable: %v", id, err)
	}
	phases := map[string]bool{}
	for _, p := range sweep.Phases {
		phases[p.Name] = true
	}
	for _, name := range []string{"parse", "explore"} {
		if !phases[name] {
			fail("profile %s: sweep phase %s missing (got %+v)", id, name, sweep.Phases)
		}
	}
	if len(sweep.Series) != 1 {
		fail("profile %s: %d series, want exactly one", id, len(sweep.Series))
	}
}

// smokeSingle drives one already-running server through the full lifecycle:
// health, arch submit/wait/result, cache hit on resubmission, combined ta
// query set, metrics.
func smokeSingle(url, testdata string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := client.New(url, nil)

	step("healthz")
	if _, ok, err := c.Healthz(ctx); err != nil || !ok {
		fail("healthz ok=%v err=%v", ok, err)
	}

	step("arch submit + wait")
	req := archRequest(testdata)
	st := submitAwait(ctx, c, req)

	step("result (handed over by the wait, then from the server)")
	checkArchResult(handedResult(ctx, c, st.JobID))

	step("result-cache hit on resubmission")
	sr, err := c.Submit(ctx, req)
	if err != nil {
		fail("resubmit: %v", err)
	}
	if sr.State != api.StateDone || sr.Created {
		fail("resubmission state=%s created=%v, want cached done", sr.State, sr.Created)
	}
	if n := metric(ctx, c, "taserved_explorations_total"); n != 1 {
		fail("explorations after cached resubmit: %d, want 1", n)
	}

	step("ta submit (combined sup + deadlock sweep)")
	st = submitAwait(ctx, c, taRequest(testdata))
	checkTAResult(handedResult(ctx, c, st.JobID))

	step("job profile (spans + sweep phases)")
	checkProfile(ctx, c, st.JobID, true)

	step("histogram/gauge families + exposition lint")
	requireFamilies(ctx, c, "node", append([]string{
		"taserved_jobs_active", "taserved_stored_zone_bytes",
		"taserved_status_requests_total", "taserved_status_waiters",
	}, jobSpanFamilies...)...)
}

// fleetNode is one in-process fleet member: a server over the shared broker
// behind a real TCP listener.
type fleetNode struct {
	id     string
	server *serve.Server
	http   *http.Server
	client *client.Client
}

// smokeCluster boots n fleet nodes over one in-memory broker and checks the
// cluster invariants the CI cluster-smoke job guards: exactly one exploration
// cluster-wide per distinct submission, remote cache hits when the other
// frontends answer, and byte-identical result bodies from every node.
func smokeCluster(n int, testdata string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	broker := pubsub.NewMemBroker()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
	}
	nodes := make([]*fleetNode, n)
	for i, id := range ids {
		dispatch, results, err := pubsub.NewNode(broker, id, ids, 256)
		if err != nil {
			fail("node %s: %v", id, err)
		}
		// Identical admission config on every member — required for
		// content-key agreement across the fleet.
		srv := serve.New(serve.Config{CPUTokens: 2, Dispatch: dispatch, Results: results})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail("node %s listen: %v", id, err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		nodes[i] = &fleetNode{id: id, server: srv, http: hs,
			client: client.New("http://"+ln.Addr().String(), nil)}
	}
	defer func() {
		for _, nd := range nodes {
			_ = nd.server.Shutdown(10 * time.Second)
			_ = nd.http.Close()
		}
	}()

	step(fmt.Sprintf("cluster of %d: arch submit via %s", n, nodes[0].id))
	req := archRequest(testdata)
	st := submitAwait(ctx, nodes[0].client, req)

	step("replicated cache answers every frontend")
	for _, nd := range nodes[1:] {
		sr, err := nd.client.Submit(ctx, req)
		if err != nil {
			fail("resubmit via %s: %v", nd.id, err)
		}
		if sr.JobID != st.JobID {
			fail("%s derived job id %s, want %s", nd.id, sr.JobID, st.JobID)
		}
		if sr.State != api.StateDone || sr.Created {
			fail("%s resubmission state=%s created=%v, want cached done", nd.id, sr.State, sr.Created)
		}
	}

	step("byte-identical results from every node")
	var first []byte
	for i, nd := range nodes {
		body, err := nd.client.Result(ctx, st.JobID)
		if err != nil {
			fail("result via %s: %v", nd.id, err)
		}
		if i == 0 {
			checkArchResult(body)
			first = body
		} else if string(body) != string(first) {
			fail("%s serves different bytes than %s", nd.id, nodes[0].id)
		}
	}

	step("one exploration cluster-wide, remote hits counted")
	var explorations, remoteHits int64
	for _, nd := range nodes {
		explorations += metric(ctx, nd.client, "taserved_explorations_total")
		remoteHits += metric(ctx, nd.client, "taserved_remote_hits_total")
	}
	if explorations != 1 {
		fail("cluster ran %d explorations for one submission, want 1", explorations)
	}
	if remoteHits < int64(n-1) {
		fail("only %d remote hits across %d frontends, want >= %d", remoteHits, n, n-1)
	}

	step("ta job through another frontend")
	taReq := taRequest(testdata)
	st = submitAwait(ctx, nodes[n-1].client, taReq)
	// Resubmitting on the first frontend adopts the replicated completion
	// into its own table, so it can serve the result bytes too.
	if sr, err := nodes[0].client.Submit(ctx, taReq); err != nil || sr.State != api.StateDone {
		fail("ta resubmit via %s: state=%v err=%v", nodes[0].id, sr, err)
	}
	body, err := nodes[0].client.Result(ctx, st.JobID)
	if err != nil {
		fail("ta result via %s: %v", nodes[0].id, err)
	}
	checkTAResult(body)

	step("profile served for the frontend's job")
	// The submitting frontend always has the job; whether its profile carries
	// a sweep depends on who owned the key, so only the spans are required.
	checkProfile(ctx, nodes[n-1].client, st.JobID, false)

	step("histogram families on every node (pubsub included)")
	for _, nd := range nodes {
		requireFamilies(ctx, nd.client, nd.id, append(append([]string{},
			jobSpanFamilies...), pubsubFamilies...)...)
	}
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/benchmark/expected"
	"repro/internal/arch"
	"repro/internal/icrns"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/wire"
)

// pollInterval is the client's Await interval.
const pollInterval = time.Millisecond

// jobTimeout bounds one job; far above any class's latency, so hitting it
// is a failure, not a measurement.
const jobTimeout = 30 * time.Second

const namePlaceholder = "@NAME@"

type serveLoad struct {
	seed int64
	sz   sizing
	// po and pno are the AddressLookup + HandleTMC case-study model under
	// the two exhaustively checkable columns, as JSON text with a
	// placeholder for the system name.
	po, pno  string
	horizons map[string]int64
}

func newServe(seed int64, sz sizing) (workload, error) {
	w := &serveLoad{seed: seed, sz: sz, horizons: map[string]int64{}}
	names := []string{icrns.ReqHandleTMC, icrns.ReqAddressLookup}
	for _, n := range names {
		w.horizons[n] = icrns.HorizonMS(n)
	}
	for col, dst := range map[icrns.Column]*string{icrns.ColPO: &w.po, icrns.ColPNO: &w.pno} {
		sys, reqmap := icrns.Build(icrns.ComboAL, col, icrns.DefaultConfig())
		sys.Name = namePlaceholder
		reqs := make([]*arch.Requirement, len(names))
		for i, n := range names {
			reqs[i] = reqmap[n]
		}
		data, err := arch.MarshalSystem(sys, reqs)
		if err != nil {
			return nil, err
		}
		*dst = string(data)
	}
	return w, nil
}

// request builds the k-th distinct submission of a run: the system name is
// unique per (seed, k), so its content hash has never been seen.
func (w *serveLoad) request(template string, k int) *api.SubmitRequest {
	name := fmt.Sprintf("icrns-%d-%d", w.seed, k)
	return &api.SubmitRequest{Kind: "arch",
		Model:   strings.Replace(template, namePlaceholder, name, 1),
		Options: api.SubmitOptions{HorizonMSByReq: w.horizons}}
}

// node is one in-process taserved behind a real loopback listener.
type node struct {
	srv       *serve.Server
	httpSrv   *http.Server
	served    chan error
	transport *http.Transport
	cl        *client.Client
}

func startNode(cfg serve.Config) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: serve.New(cfg), served: make(chan error, 1), transport: &http.Transport{}}
	n.httpSrv = &http.Server{Handler: n.srv.Handler()}
	go func() { n.served <- n.httpSrv.Serve(ln) }()
	n.cl = client.New("http://"+ln.Addr().String(), &http.Client{Transport: n.transport})
	return n, nil
}

// stop shuts the listener, the job manager and the client's connections
// down and waits for the serving goroutine.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.httpSrv.Shutdown(ctx)
	if serr := <-n.served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	if merr := n.srv.Shutdown(10 * time.Second); err == nil {
		err = merr
	}
	n.transport.CloseIdleConnections()
	return err
}

// jobTiming is what the client observed of one job.
type jobTiming struct {
	total    time.Duration
	polls    int
	serverMS float64 // FinishedAt − SubmittedAt of the job's final status
	id       string
}

// runJob drives one job through the client the way a caller does: Submit,
// Await at the poll interval, Result. With a tracer, Await is spelled out as
// its Status/sleep loop so every HTTP call is a span.
func runJob(cl *client.Client, req *api.SubmitRequest, tr *tracer) ([]byte, jobTiming, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	var jt jobTiming
	t0 := time.Now()
	endUnit := tr.begin(rootSpan)
	defer endUnit()

	end := tr.begin("client.Submit")
	sr, err := cl.Submit(ctx, req)
	end()
	if err != nil {
		return nil, jt, err
	}
	jt.id = sr.JobID
	var st *api.StatusResponse
	if tr == nil {
		st, err = cl.Await(ctx, sr.JobID, pollInterval)
	} else {
		for {
			end = tr.begin("client.Status")
			st, err = cl.Status(ctx, sr.JobID)
			end()
			jt.polls++
			if err != nil || st.State == api.StateDone || st.State == api.StateFailed || st.State == api.StateCanceled {
				break
			}
			end = tr.begin("client.poll_sleep")
			time.Sleep(pollInterval)
			end()
		}
	}
	if err != nil {
		return nil, jt, err
	}
	if st.State != api.StateDone {
		return nil, jt, fmt.Errorf("job %s ended %s: %s", sr.JobID, st.State, st.Error)
	}
	if st.FinishedAt != nil {
		jt.serverMS = ms(st.FinishedAt.Sub(st.SubmittedAt))
	}
	end = tr.begin("client.Result")
	out, err := cl.Result(ctx, sr.JobID)
	end()
	jt.total = time.Since(t0)
	return out, jt, err
}

// checkedJob runs one untraced job and checks its verdict.
func checkedJob(cl *client.Client, req *api.SubmitRequest, col icrns.Column) (jobTiming, error) {
	out, jt, err := runJob(cl, req, nil)
	if err != nil {
		return jt, err
	}
	_, err = checkAL(out, col)
	return jt, err
}

func checkAL(out []byte, col icrns.Column) (wire.ArchResponse, error) {
	var resp wire.ArchResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return resp, err
	}
	return resp, expected.CheckPaperAL(resp, col)
}

type serveInst struct {
	*serveLoad
	node *node
	next int // distinct submissions made so far
	// recent holds the latest submissions, the ones still in the service's
	// job table: what the traced pass's hit class resubmits.
	recent []*api.SubmitRequest

	// Traced-pass bookkeeping: the metrics scrape taken when tracing began,
	// and what the traced jobs reported.
	base       map[string]float64
	tracedJobs []jobTiming
}

func (w *serveLoad) open() (instance, error) {
	n, err := startNode(serve.Config{CPUTokens: 1})
	if err != nil {
		return nil, err
	}
	return &serveInst{serveLoad: w, node: n}, nil
}

// fresh is the run's schedule: the next never-seen model.
func (in *serveInst) fresh(template string) *api.SubmitRequest {
	in.next++
	return in.request(template, in.next)
}

func (in *serveInst) unit(_ int, tr *tracer) (unitResult, error) {
	req := in.fresh(in.po)
	if tr != nil && in.base == nil {
		base, err := in.scrape()
		if err != nil {
			return unitResult{}, err
		}
		in.base = base
	}
	out, jt, err := runJob(in.node.cl, req, tr)
	res := unitResult{dur: jt.total, verdicts: 1, bytes: len(out)}
	if err != nil {
		return res, err
	}
	if in.recent = append(in.recent, req); len(in.recent) > in.sz.servePool {
		in.recent = in.recent[1:]
	}
	if tr != nil {
		in.tracedJobs = append(in.tracedJobs, jt)
	}
	resp, err := checkAL(out, icrns.ColPO)
	res.stats = resp.Stats
	return res, err
}

func (in *serveInst) close() error { return in.node.stop() }

// scrape reads /v1/metrics through the client and returns every sample as
// name → value (labels stay part of the name).
func (in *serveInst) scrape() (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	text, err := in.node.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(fields[1], "%g", &v); err == nil {
			out[fields[0]] = v
		}
	}
	return out, nil
}

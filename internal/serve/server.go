// Package serve exposes the whole analysis stack — ta parse/validate,
// arch compilation, the core multi-query engine — as a concurrent job
// service (command taserved). One type, Server, in three parts:
//
//   - The job pipeline (this file, kinds.go, jobs.go): a submission is
//     normalized and content-hashed (the hash is the job id AND the
//     result-cache key), admitted under a global CPU-token/memory-grant pool,
//     executed through layered singleflight caches (parsed model / compiled
//     network / result), and answered with wire bytes identical to the CLIs'
//     -json output. An arch job is a ta job with one more front-end step, so
//     both kinds share one path from request to verdict bytes; what differs
//     between them is the two-entry kind table in kinds.go. The pipeline
//     knows nothing about HTTP: Submit speaks internal/serve/api values.
//   - Two pluggable backend seams (backend.go): Dispatch routes a submission
//     to the node owning its content hash and relays completion events;
//     ResultCache replicates finished results so any frontend answers any
//     cached submission. The default local backends make a Server exactly
//     the historical single-node server; internal/serve/pubsub implements
//     both over an in-process publish/subscribe broker for fleets formed
//     inside one process (tests, scripts/servesmoke -cluster, the
//     benchmark), with cluster-wide singleflight (the owner computes once,
//     twins on every frontend wait for the completion event).
//   - A thin HTTP facade (http.go): Handler mounts the JSON endpoints under
//     /v1/.
//
// Verdicts are computed by exactly the code paths the CLIs use
// (arch.CompileAll + CompiledSet.Analyze, wire.TARun) and encoded by the one
// encoder they use (wire.Encode); completion events relay those bytes
// verbatim, so a result is bit-identical whether it was computed locally,
// computed on a peer, or served from a replicated cache.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve/api"
	"repro/internal/wire"
)

// The transport contract lives in internal/serve/api so the typed client and
// the dispatch backends can share it without import cycles; the aliases keep
// every existing reference through this package valid.
type (
	SubmitRequest  = api.SubmitRequest
	SubmitOptions  = api.SubmitOptions
	SubmitResponse = api.SubmitResponse
	StatusResponse = api.StatusResponse
)

// Config tunes one Server. Zero values select the documented defaults.
type Config struct {
	// CPUTokens is the global admission budget: the number of sweeps that
	// run at once, each job that computes holding one token. A sweep runs on
	// one goroutine, and a breadth-first sweep past 1,024 expansions also
	// runs a lookahead helper on a second core without a second token
	// (internal/core, "Lookahead"). The helper polls while it waits, so such
	// a token costs up to two cores: on two cores, two Fischer-5 sweeps under
	// two tokens take about as long as the two one after the other, and
	// about 1.5 times as long as two sweeps without helpers would
	// (BenchmarkTwoSweepsAtOnce). Default: NumCPU.
	CPUTokens int
	// MaxActiveJobs bounds jobs queued or running; submissions beyond it are
	// rejected with 429. Default 64.
	MaxActiveJobs int
	// MaxFinishedJobs bounds terminal jobs retained as the result cache
	// (LRU). Default 256.
	MaxFinishedJobs int
	// DefaultDeadline bounds each job's wall clock when the submission does
	// not set deadline_ms: the deadline of the job's context, which the
	// admission wait, a proxy's wait and the sweep all honor. Zero =
	// unbounded.
	DefaultDeadline time.Duration
	// MemoryBudget is the global zone-memory budget in bytes. When set, every
	// job holds a memory grant alongside its CPU token while running: its
	// requested max_bytes (clamped to the budget), or a fair share of
	// MemoryBudget/CPUTokens when the submission does not ask.
	// The grant is also the job's core memory budget, so one runaway
	// submission fails alone with MemoryBudgetExceeded instead of OOM-killing
	// the node. Zero = memory unmetered.
	MemoryBudget int64
	// Dispatch selects the routing backend; nil = single-node (this node
	// owns every submission, behavior identical to the pre-cluster server).
	Dispatch Dispatch
	// Results selects the replicated result cache; nil = none (the job table
	// alone caches results, the single-node behavior).
	Results ResultCache
}

func (c Config) withDefaults() Config {
	if c.CPUTokens <= 0 {
		c.CPUTokens = runtime.NumCPU()
	}
	if c.MaxActiveJobs <= 0 {
		c.MaxActiveJobs = 64
	}
	if c.MaxFinishedJobs <= 0 {
		c.MaxFinishedJobs = 256
	}
	if c.Dispatch == nil {
		c.Dispatch = localDispatch{}
	}
	if c.Results == nil {
		c.Results = noCache{}
	}
	return c
}

// maxModels and maxCompiled bound the parsed-model and compiled-network
// caches (LRU entries).
const (
	maxModels   = 128
	maxCompiled = 128
)

// Server is the job service: it owns admission, the job table, the caches,
// the backend seams, and the HTTP facade over them. Create with New, mount
// Handler, stop with Shutdown.
//
// One pipeline: intake is the only derivation of a job id (HTTP and
// envelope paths), compute the only path from an admitted job to verdict
// bytes, kinds.go the only fork on "arch" / "ta" (the rule "One fork on the
// submission kind" in internal/rules), and the tail of jobManager.execute
// the only place a job turns terminal.
//
// Cache ownership: three caches, the parsed model by source hash (models),
// the compiled network by model, requirement set, horizons and queue cap
// (compiled), and results by the full normalized-submission hash (the job
// table: job id == content key). Their values are immutable after
// construction — ta.Network after Finalize, arch.CompiledSet after
// CompileAll — which is what makes concurrent CompiledSet.Analyze calls on
// one cached value sound; each call builds its own checker and explorer
// state. Singleflight: the first caller computes, concurrent twins wait, and
// errors are never cached. Failed and canceled jobs are dropped on
// resubmission, never served from cache.
//
// Admission: a job holds one CPU token for its whole sweep (FIFO, no
// overtaking), so the pool bounds the jobs running at once — a large
// breadth-first sweep's lookahead helper rides on the job's token.
// A job has one abort signal, its context (job.ctx): a child of the job
// manager's, bounded by the job's deadline and ended by its cancel, by
// shutdown, or by the job turning terminal. The admission wait, a proxy's
// wait (awaitAbortable) and the sweep (core.Options.Context) all stop on it
// and all name the abort with core.AbortErr, so wire states and abort
// counters are uniform wherever the abort lands.
//
// Status waits (awaitTerminal, maxStatusWait in http.go): a wait selects on
// the job's done channel, its timer, the request context and closing, and
// never holds a lock, a grant or a table slot. A status call without result
// keeps its body byte for byte (TestStatusBodyBytes); ?result=1 adds a done
// job's stored bytes as base64 result, byte-identical to GET …/result, and
// any other value is 400. client.Await asks with it and keeps one (id,
// bytes) slot that the next Result on that id takes; any other Result sends
// the GET. There is one stop order: Shutdown (jobs drain, then closing),
// then the listener.
//
// Wire oracles: serve_test.go round-trips the case-study models through HTTP
// against a direct arch.CompileAll + CompiledSet.Analyze, race_test.go pins one-exploration singleflight
// under -race, and key_test.go pins two golden content keys and the
// canonicalization table.
type Server struct {
	cfg    Config
	start  time.Time
	tokens *cpuTokens
	jobs   *jobManager
	// models holds each kind's parsed model under one LRU bound: the value
	// is whatever the kind's resolve step produced (kinds.go) and is
	// immutable after parse — shared by every job that hashes to it.
	models   *flightCache[any]
	compiled *flightCache[*arch.CompiledSet]
	dispatch Dispatch
	results  ResultCache

	// reg is the metrics registry behind /v1/metrics; hists are the job
	// lifecycle-span histograms it owns, by span name (see metrics.go).
	reg   *obs.Registry
	hists map[string]*obs.Histogram

	submissions  atomic.Int64
	dedupLive    atomic.Int64 // submissions that joined a queued/running job
	resultHits   atomic.Int64 // submissions answered by a finished job
	explorations atomic.Int64 // sweeps actually run on THIS node
	canceled     atomic.Int64 // jobs that ended canceled, wherever the abort landed
	expired      atomic.Int64 // jobs that ended DeadlineExceeded, likewise
	shed         atomic.Int64 // submissions rejected 429 at admission
	dispatched   atomic.Int64 // submissions routed to a peer (proxy jobs)
	remoteHits   atomic.Int64 // submissions answered with peer-computed bytes
	fallbacks    atomic.Int64 // dispatches degraded to local compute
	// The status endpoint's own two numbers, bumped by its handler only.
	statusRequests atomic.Int64 // GET /v1/jobs/{id} calls received, any outcome
	statusWaiters  atomic.Int64 // of those, parked in a wait_ms wait right now
	// closing is closed by Shutdown once the jobs have drained or run out of
	// time to: every status wait still parked returns, later ones do not park.
	closing   chan struct{}
	closeOnce sync.Once
	// dispatchDown latches a backend that failed to register its envelope
	// handler at startup: routing is bypassed entirely (everything computes
	// locally) because this node could never serve jobs it owns.
	dispatchDown atomic.Bool
}

// New returns a ready server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		tokens:   newCPUTokens(cfg.CPUTokens, cfg.MemoryBudget),
		models:   newFlightCache[any](maxModels),
		compiled: newFlightCache[*arch.CompiledSet](maxCompiled),
		dispatch: cfg.Dispatch,
		results:  cfg.Results,
		closing:  make(chan struct{}),
	}
	s.jobs = newJobManager(s.tokens, cfg.MaxActiveJobs, cfg.MaxFinishedJobs, s.countOutcome, s.jobFinished, s.observeSpan)
	s.buildRegistry()
	if err := s.dispatch.Receive(s.handleEnvelope); err != nil {
		// A node that cannot receive envelopes must not advertise ownership:
		// degrade to computing everything locally rather than black-holing
		// the keys the ring maps to us.
		s.dispatchDown.Store(true)
	}
	return s
}

// Shutdown stops intake, cancels every live job through the same cooperative
// mechanism the cancel endpoint uses, waits (bounded) for job goroutines to
// drain, and releases the dispatch backend's subscriptions. The HTTP listener
// is the caller's to close, after this call: it keeps answering while the
// jobs drain, so a client parked in a status wait reads its job's final
// "canceled" and a new submission is told 503 shutting_down. A wait on a job
// that did not drain in time is ended here, so the listener's own drain never
// sits out a parked handler.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.jobs.close()
	err := s.jobs.wait(timeout)
	s.closeOnce.Do(func() { close(s.closing) })
	if cerr := s.dispatch.Close(); err == nil {
		err = cerr
	}
	return err
}

// Counters is a point-in-time view of the server's work, exposed for tests
// and /v1/metrics. Explorations counts sweeps run on this node only — summing
// it across a cluster measures cluster-wide singleflight.
type Counters struct {
	Submissions       int64
	DedupedLive       int64
	ResultHits        int64
	Explorations      int64
	Canceled          int64
	Expired           int64
	Shed              int64
	Dispatched        int64
	RemoteHits        int64
	DispatchFallbacks int64
	ModelHits         int64
	ModelMisses       int64
	CompileHits       int64
	CompileMisses     int64
}

// Stats samples the server counters.
func (s *Server) Stats() Counters {
	return Counters{
		Submissions:       s.submissions.Load(),
		DedupedLive:       s.dedupLive.Load(),
		ResultHits:        s.resultHits.Load(),
		Explorations:      s.explorations.Load(),
		Canceled:          s.canceled.Load(),
		Expired:           s.expired.Load(),
		Shed:              s.shed.Load(),
		Dispatched:        s.dispatched.Load(),
		RemoteHits:        s.remoteHits.Load(),
		DispatchFallbacks: s.fallbacks.Load(),
		ModelHits:         s.models.hits.Load(),
		ModelMisses:       s.models.misses.Load(),
		CompileHits:       s.compiled.hits.Load(),
		CompileMisses:     s.compiled.misses.Load(),
	}
}

// jobSpec is the normalized submission — the hashed content. Field order and
// deterministic map encoding (Go sorts map keys) make the canonical JSON
// stable.
type jobSpec struct {
	Kind           string           `json:"kind"`
	ModelHash      string           `json:"model_hash"`
	Requirements   []string         `json:"requirements,omitempty"`
	Queries        []wire.TAQuery   `json:"queries,omitempty"`
	HorizonMS      int64            `json:"horizon_ms"`
	HorizonMSByReq map[string]int64 `json:"horizon_ms_by_req,omitempty"`
	QueueCap       int64            `json:"queue_cap"`
	MaxStates      int              `json:"max_states"`
	StateBudget    int              `json:"state_budget"`
	MaxBytes       int64            `json:"max_bytes"`
	Order          string           `json:"order"`
	Seed           int64            `json:"seed"`
	MaxConst       int64            `json:"max_const,omitempty"`
	DeadlineMS     int64            `json:"deadline_ms"`
	Witness        bool             `json:"witness,omitempty"`
}

// submission is a request resolved to everything a job needs: the normalized
// spec, its content key (the job id), the wall-clock deadline, and the kind's
// table entry with the parsed model it resolved.
type submission struct {
	spec     jobSpec
	id       string
	deadline time.Time
	kind     kind
	model    any
}

func hashBytes(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// intake is the one derivation from a request to a job's identity, shared by
// the HTTP path (Submit) and the fleet path (handleEnvelope): validate the
// submission and apply defaults, let the kind resolve the model through the
// parsed cache and canonicalize its own fields, hash the canonical spec, and
// start the deadline clock. The derivation is deterministic in the request
// and the admission config, which is what lets an owner node re-derive a
// frontend's job id from the forwarded request. Fields that cannot affect
// the answer are canonicalized away so semantically identical requests hash
// to one job. Errors are *httpError values.
func (s *Server) intake(req *SubmitRequest) (*submission, error) {
	if req.Model == "" {
		return nil, badRequest("model is required")
	}
	order, err := core.ParseOrder(req.Options.Order)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	// A deadline is a time.Duration of nanoseconds, which one above this
	// many milliseconds would overflow into the past.
	if limit := math.MaxInt64 / int64(time.Millisecond); req.Options.DeadlineMS > limit {
		return nil, badRequest("deadline_ms %d is beyond the largest, %d", req.Options.DeadlineMS, limit)
	}
	// Resolve the job's memory grant against the global budget: a declared
	// max_bytes is clamped to the budget; an undeclared one defaults to the
	// fair share of one token, MemoryBudget/CPUTokens. Without a server
	// budget the declared value passes through as a pure per-job core budget
	// (no admission hold).
	maxBytes := max(req.Options.MaxBytes, 0)
	if budget := s.cfg.MemoryBudget; budget > 0 {
		if maxBytes == 0 {
			maxBytes = budget / int64(s.cfg.CPUTokens)
		}
		maxBytes = max(min(maxBytes, budget), 1)
	}
	sub := &submission{spec: jobSpec{
		Kind:        req.Kind,
		MaxStates:   max(req.Options.MaxStates, 0),
		StateBudget: max(req.Options.StateBudget, 0),
		MaxBytes:    maxBytes,
		Order:       order.String(),
		DeadlineMS:  max(req.Options.DeadlineMS, 0),
	}}
	// The seed only feeds rdf shuffling.
	if order == core.RDFS {
		sub.spec.Seed = req.Options.Seed
	}
	var ok bool
	if sub.kind, ok = kinds[req.Kind]; !ok {
		return nil, badRequest("unknown kind %q (want arch or ta)", req.Kind)
	}
	if sub.model, err = sub.kind.resolve(s, req, &sub.spec); err != nil {
		return nil, err
	}
	canon, err := json.Marshal(sub.spec)
	if err != nil {
		return nil, err
	}
	sub.id = hashBytes(string(canon))
	if sub.spec.DeadlineMS > 0 {
		sub.deadline = time.Now().Add(time.Duration(sub.spec.DeadlineMS) * time.Millisecond)
	} else if s.cfg.DefaultDeadline > 0 {
		sub.deadline = time.Now().Add(s.cfg.DefaultDeadline)
	}
	return sub, nil
}

// Submit is the transport-agnostic intake: derive the job's identity, then
// answer from (in order) the node-local job table, the replicated result
// cache, or a fresh job — run locally when this node owns the content hash,
// or dispatched to the owner with a local proxy job standing in for status,
// cancel, and result serving. Errors are *httpError values carrying the
// wire code and suggested HTTP status.
func (s *Server) Submit(req *SubmitRequest) (*SubmitResponse, error) {
	s.submissions.Add(1)
	parseStart := time.Now()
	sub, err := s.intake(req)
	parseEnd := time.Now()
	if err != nil {
		return nil, err
	}

	// Replicated cache first — but only past the job table's own say: adopt
	// joins a live or done twin when one exists, so a node never forks a
	// second answer for work it already holds.
	if ev, ok := s.results.Get(sub.id); ok {
		if j, adopted := s.jobs.adopt(sub.id, ev); j != nil {
			state, _, _, _ := j.snapshot()
			if adopted {
				s.remoteHits.Add(1)
			}
			s.countJoin(state)
			return &SubmitResponse{JobID: j.id, State: state, Created: false}, nil
		}
		return nil, s.reject(errShuttingDown)
	}

	// Route: the ring's owner computes; everyone else proxies. A backend that
	// never came up routes everything locally.
	owner := s.dispatch.Owner(sub.id)
	run := s.compute(sub)
	proxy := owner != s.dispatch.Self() && !s.dispatchDown.Load()
	if proxy {
		// A proxy holds no grant: the compute (and its admission) happens on
		// the owner node.
		run = s.proxyRun(sub, req, owner)
	}
	j, created, err := s.jobs.submit(sub.id, sub.spec.Kind, proxy, sub.spec.MaxBytes, sub.deadline, run)
	if err != nil {
		return nil, s.reject(err)
	}
	state, _, _, _ := j.snapshot()
	if created {
		// The parse ran during intake, before the job existed; graft it onto
		// the fresh job's profile. (Model-cache hits record the — now
		// trivial — resolution interval, still the job's real parse cost.)
		j.mon.RecordPhase("parse", parseStart, parseEnd)
		if proxy {
			s.dispatched.Add(1)
		}
	} else {
		s.countJoin(state)
	}
	return &SubmitResponse{JobID: j.id, State: state, Created: created}, nil
}

// countJoin accounts a submission that landed on an existing job: a result
// hit when the job is done (an adopted remote result included), a live
// dedupe otherwise.
func (s *Server) countJoin(state string) {
	if state == api.StateDone {
		s.resultHits.Add(1)
	} else {
		s.dedupLive.Add(1)
	}
}

// reject names a job-table refusal on the wire, for the HTTP response and
// for the failed completion an owner announces to waiting proxies alike.
func (s *Server) reject(err error) *httpError {
	switch err {
	case errBusy:
		// Overload shedding: reject with retry guidance scaled to the queue
		// depth, so clients back off harder the deeper the backlog. Cached
		// results keep being served throughout — only NEW work is shed (the
		// job-table lookup ahead of this rejection hits finished twins first).
		s.shed.Add(1)
		return &httpError{status: http.StatusTooManyRequests, code: wire.CodeOverloaded,
			msg: err.Error(), retryAfter: s.retryAfter()}
	case errShuttingDown:
		return &httpError{status: http.StatusServiceUnavailable,
			code: wire.CodeShuttingDown, msg: err.Error()}
	}
	return &httpError{status: http.StatusInternalServerError, code: wire.CodeInternal, msg: err.Error()}
}

// retryAfter derives shed-retry guidance from the current queue pressure:
// one second of backoff per CPUTokens' worth of active jobs, clamped to
// [1s, 60s]. Deeper backlog → longer suggested wait.
func (s *Server) retryAfter() time.Duration {
	active, _ := s.jobs.counts()
	return min(time.Duration(1+active/s.cfg.CPUTokens)*time.Second, time.Minute)
}

// coreOptions maps the normalized spec plus the job's runtime signals onto
// the engine options.
func coreOptions(spec jobSpec, j *job) core.Options {
	order, _ := core.ParseOrder(spec.Order) // intake stored a valid spelling
	return core.Options{
		Order:       order,
		Seed:        spec.Seed,
		MaxStates:   spec.MaxStates,
		StateBudget: spec.StateBudget,
		MaxBytes:    spec.MaxBytes,
		Context:     j.ctx,
		Monitor:     j.mon,
	}
}

// compute builds the run closure of a job this node computes itself — the
// one path from an admitted job to verdict bytes: bind the submission to a
// runnable sweep (compile, through the cache) under the "compile" phase, run
// the single exploration answering the whole submission, and encode its wire
// value. It runs under pprof labels (job_id, kind, owner), so CPU and
// goroutine profiles of a busy node attribute samples to the jobs that
// burned them.
func (s *Server) compute(sub *submission) runFunc {
	return func(j *job) (result []byte, traces map[string]string, err error) {
		labels := pprof.Labels("job_id", j.id, "kind", j.kind, "owner", s.dispatch.Self())
		pprof.Do(j.ctx, labels, func(context.Context) {
			endCompile := j.mon.BeginPhase("compile")
			var run sweep
			run, err = sub.kind.bind(s, &sub.spec, sub.model)
			endCompile()
			if err != nil {
				return
			}
			s.explorations.Add(1)
			var resp any
			if resp, traces, err = run(coreOptions(sub.spec, j)); err != nil {
				return
			}
			result, err = wire.Encode(resp)
		})
		return result, traces, err
	}
}

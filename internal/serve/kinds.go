package serve

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/ta"
	"repro/internal/wire"
)

// This file is the kind table: the one place the service forks on what a
// submission is (the rule "One fork on the submission kind" in
// internal/rules keeps "arch"/"ta" comparisons out of every other file of the
// package). Everything around the two steps below — option
// defaults and clamps, content hashing, deadlines, admission, the "compile"
// phase span, the exploration counter, engine options, encoding, abort
// accounting — is shared and lives in server.go and jobs.go.

// kind is one entry of the table.
type kind struct {
	// resolve runs at intake: parse req.Model through the server's parsed
	// cache, then validate the kind's own request fields and write them to
	// spec in canonical form (the shared fields are already set). It returns
	// the parsed model for bind. Errors are *httpError values.
	resolve func(s *Server, req *SubmitRequest, spec *jobSpec) (model any, err error)
	// bind runs in the job, under its "compile" phase: turn the resolved
	// model and the final spec into the sweep that answers the submission.
	bind func(s *Server, spec *jobSpec, model any) (sweep, error)
}

// sweep runs the one exploration answering a submission and returns its wire
// value plus any captured traces, keyed the way GET …/trace serves them.
type sweep func(core.Options) (resp any, traces map[string]string, err error)

var kinds = map[string]kind{
	"arch": {resolveArch, bindArch},
	"ta":   {resolveTA, bindTA},
}

// archModel is a parsed architecture description with its requirements
// indexed by name, once, at parse.
type archModel struct {
	sys    *arch.System
	reqs   []*arch.Requirement
	byName map[string]*arch.Requirement
}

// resolveArch rejects what the compiler rejects (a negative horizon or queue
// cap) and canonicalizes what it ignores to the default: zero is the default
// horizon or cap, and a per-requirement horizon that is not positive, equals
// the job's horizon, or names a requirement outside the job is dropped.
func resolveArch(s *Server, req *SubmitRequest, spec *jobSpec) (any, error) {
	if req.Options.HorizonMS < 0 || req.Options.QueueCap < 0 {
		return nil, badRequest("horizon_ms and queue_cap must not be negative")
	}
	spec.HorizonMS, spec.QueueCap = req.Options.HorizonMS, req.Options.QueueCap
	if spec.HorizonMS == 0 {
		spec.HorizonMS = arch.DefaultHorizonMS
	}
	if spec.QueueCap == 0 {
		spec.QueueCap = arch.DefaultQueueCap
	}
	spec.Witness = req.Options.Witness
	spec.ModelHash = hashBytes("arch", req.Model)
	parsed, _, err := s.models.do(spec.ModelHash, func() (any, error) {
		sys, reqs, err := arch.ParseSystem([]byte(req.Model))
		if err != nil {
			return nil, err
		}
		m := &archModel{sys: sys, reqs: reqs, byName: make(map[string]*arch.Requirement, len(reqs))}
		for _, r := range reqs {
			m.byName[r.Name] = r
		}
		return m, nil
	})
	if err != nil {
		return nil, badRequest("parsing arch model: %v", err)
	}
	m := parsed.(*archModel)
	names := req.Requirements
	if len(names) == 0 {
		for _, r := range m.reqs {
			names = append(names, r.Name)
		}
	}
	if len(names) == 0 {
		return nil, badRequest("arch model has no requirements")
	}
	for i, n := range names {
		if m.byName[n] == nil {
			return nil, badRequest("unknown requirement %q", n)
		}
		if slices.Contains(names[:i], n) {
			return nil, badRequest("requirement %q named twice", n)
		}
	}
	inert := func(n string, h int64) bool { return h <= 0 || h == spec.HorizonMS || !slices.Contains(names, n) }
	anyInert := false
	for n, h := range req.Options.HorizonMSByReq {
		if m.byName[n] == nil {
			return nil, badRequest("horizon_ms_by_req names unknown requirement %q", n)
		}
		anyInert = anyInert || inert(n, h)
	}
	spec.Requirements = names
	spec.HorizonMSByReq = req.Options.HorizonMSByReq
	if anyInert {
		// Drop on a copy: the request's map is the caller's.
		spec.HorizonMSByReq = maps.Clone(spec.HorizonMSByReq)
		maps.DeleteFunc(spec.HorizonMSByReq, inert)
	}
	return m, nil
}

func bindArch(s *Server, spec *jobSpec, model any) (sweep, error) {
	m := model.(*archModel)
	reqs := make([]*arch.Requirement, len(spec.Requirements))
	for i, n := range spec.Requirements {
		reqs[i] = m.byName[n]
	}
	copts := arch.Options{HorizonMS: spec.HorizonMS, QueueCap: spec.QueueCap}
	if len(spec.HorizonMSByReq) > 0 {
		copts.HorizonMSFor = func(r *arch.Requirement) int64 { return spec.HorizonMSByReq[r.Name] }
	}

	// Compile cache: (model, requirement set, compile options). Every key
	// ingredient is its own NUL-separated hash part (and the horizon map is
	// JSON-encoded, which sorts its keys), so requirement names containing
	// separator-looking characters cannot collide two different sets onto
	// one compiled network. The set is immutable and shared; every job
	// explores it with fresh state.
	horizonsJSON, err := json.Marshal(spec.HorizonMSByReq)
	if err != nil {
		return nil, err
	}
	parts := append([]string{"compile", spec.ModelHash,
		fmt.Sprint(spec.HorizonMS), fmt.Sprint(spec.QueueCap), string(horizonsJSON)},
		spec.Requirements...)
	cs, _, err := s.compiled.do(hashBytes(parts...), func() (*arch.CompiledSet, error) {
		return arch.CompileAll(m.sys, reqs, copts)
	})
	if err != nil {
		return nil, err
	}

	analyze := cs.Analyze
	if spec.Witness {
		analyze = cs.AnalyzeTraced
	}
	return func(opts core.Options) (any, map[string]string, error) {
		all, err := analyze(opts)
		if err != nil {
			return nil, nil, err
		}
		// A witness job's traces come from its one sweep: each is the run
		// to the first state that attained the requirement's measured bound
		// (a "> lower" one on a truncated sweep), so a result without a
		// seen response is the only one without a trace.
		var traces map[string]string
		if spec.Witness {
			traces = make(map[string]string, len(reqs))
			for i, r := range reqs {
				if w := all.Results[i].Witness; w != nil {
					traces[r.Name] = core.FormatTrace(cs.Net, w)
				}
			}
		}
		return wire.FromAllResult(all), traces, nil
	}, nil
}

func resolveTA(s *Server, req *SubmitRequest, spec *jobSpec) (any, error) {
	if len(req.Queries) == 0 {
		return nil, badRequest("ta submissions need at least one query")
	}
	// Canonicalize each query to the fields its kind consumes — a stray pred
	// on a deadlock query (or clock on a reach) must not mint a distinct job
	// for the same question. The parse depends on the sup horizons, so the
	// model-cache key carries the query-relevant context: sup clocks +
	// max_const. With no sup query the horizon is inert and stays zero.
	spec.Queries = make([]wire.TAQuery, len(req.Queries))
	supKey := ""
	for i, q := range req.Queries {
		switch q.Kind {
		case "deadlock":
			q.Pred, q.Clock = "", ""
		case "reach", "safety":
			q.Clock = ""
		case "sup":
			supKey += q.Clock + "\x00"
		}
		spec.Queries[i] = q
	}
	// ParseTAModel ignores a max_const that is not positive.
	if supKey != "" {
		spec.MaxConst = max(req.Options.MaxConst, 0)
	}
	spec.ModelHash = hashBytes("ta", req.Model, supKey, fmt.Sprint(spec.MaxConst))
	net, _, err := s.models.do(spec.ModelHash, func() (any, error) {
		return wire.ParseTAModel(req.Model, spec.Queries, spec.MaxConst)
	})
	if err != nil {
		return nil, badRequest("parsing ta model: %v", err)
	}
	// Validate the query specs now so submit fails fast; the job builds its
	// own fresh TARun (queries are single-use).
	if _, err := wire.NewTARun(net.(*ta.Network), spec.Queries); err != nil {
		return nil, badRequest("building queries: %v", err)
	}
	return net, nil
}

func bindTA(_ *Server, spec *jobSpec, model any) (sweep, error) {
	net := model.(*ta.Network)
	run, err := wire.NewTARun(net, spec.Queries)
	if err != nil {
		return nil, err
	}
	checker, err := core.NewChecker(net)
	if err != nil {
		return nil, err
	}
	return func(opts core.Options) (any, map[string]string, error) {
		stats, err := checker.RunQueries(opts, run.Queries()...)
		if err != nil {
			return nil, nil, err
		}
		resp := run.Response(stats)
		traces := make(map[string]string)
		for i, q := range resp.Queries {
			if q.Trace != "" {
				traces[fmt.Sprintf("q%d:%s", i, q.Kind)] = q.Trace
			}
		}
		return resp, traces, nil
	}, nil
}

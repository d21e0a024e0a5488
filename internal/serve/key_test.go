package serve

import (
	"testing"

	"repro/internal/wire"
)

// contentKey derives a request's job id without starting a job.
func contentKey(t *testing.T, s *Server, req SubmitRequest) string {
	t.Helper()
	sub, err := s.intake(&req)
	if err != nil {
		t.Fatalf("intake: %v", err)
	}
	return sub.id
}

func tinyTARequest(t *testing.T) SubmitRequest {
	return SubmitRequest{Kind: "ta", Model: tinyTAModel(t),
		Queries: []wire.TAQuery{{Kind: "sup", Clock: "x", Pred: "RAD.busy"}, {Kind: "deadlock"}},
		Options: SubmitOptions{MaxConst: 20}}
}

// TestGoldenContentKeys pins the content keys of the two checked-in tiny
// models under the default Config: the key is the job id clients hold and
// the replicated-cache address fleet members must agree on, so a refactor of
// normalization must not move it. The values moved once, when the workers
// option left the normalized spec (it sized the admission grant and could
// not change the answer); they were recorded then.
func TestGoldenContentKeys(t *testing.T) {
	s := New(Config{})
	arch := SubmitRequest{Kind: "arch", Model: tinyArchModel(t), Options: SubmitOptions{HorizonMS: 100}}
	if got, want := contentKey(t, s, arch), "0a7fa1d40f23a9bd31d7777e6d7542a145ad76a052aa5c954367f73adad9c45d"; got != want {
		t.Errorf("arch key = %s, want %s", got, want)
	}
	if got, want := contentKey(t, s, tinyTARequest(t)), "5c3cd808492c19e68a6b897a133b87cff03de191f18d0696a6d9c5772db49702"; got != want {
		t.Errorf("ta key = %s, want %s", got, want)
	}
}

// TestSameQuestionSameKey is the canonicalization table: request fields that
// cannot change the answer hash to the plain submission's key, fields that
// can do not.
func TestSameQuestionSameKey(t *testing.T) {
	s := New(Config{})
	ta := func(edit func(*SubmitRequest)) SubmitRequest {
		req := tinyTARequest(t)
		edit(&req)
		return req
	}
	arch := func(edit func(*SubmitRequest)) SubmitRequest {
		req := SubmitRequest{Kind: "arch", Model: tinyArchModel(t), Options: SubmitOptions{HorizonMS: 100}}
		edit(&req)
		return req
	}
	plain := func(*SubmitRequest) {}
	onlyDeadlock := func(r *SubmitRequest) { r.Queries = r.Queries[1:]; r.Options.MaxConst = 0 }
	for _, tc := range []struct {
		name string
		a, b SubmitRequest
		same bool
	}{
		{"stray pred and clock on a deadlock query", ta(plain),
			ta(func(r *SubmitRequest) { r.Queries[1].Pred, r.Queries[1].Clock = "RAD.busy", "x" }), true},
		{"stray clock on a reach query",
			ta(func(r *SubmitRequest) { r.Queries[1] = wire.TAQuery{Kind: "reach", Pred: "RAD.busy"} }),
			ta(func(r *SubmitRequest) { r.Queries[1] = wire.TAQuery{Kind: "reach", Pred: "RAD.busy", Clock: "x"} }), true},
		{"seed without rdf", ta(plain), ta(func(r *SubmitRequest) { r.Options.Seed = 7 }), true},
		{"default order spelled out", ta(plain), ta(func(r *SubmitRequest) { r.Options.Order = "bfs" }), true},
		{"arch compile options and witness on a ta job", ta(plain),
			ta(func(r *SubmitRequest) { r.Options.HorizonMS, r.Options.QueueCap, r.Options.Witness = 5, 3, true }), true},
		{"max_const without a sup query", ta(onlyDeadlock),
			ta(func(r *SubmitRequest) { onlyDeadlock(r); r.Options.MaxConst = 20 }), true},
		{"every stray at once", ta(plain), ta(func(r *SubmitRequest) {
			r.Queries[1].Pred, r.Queries[1].Clock = "RAD.busy", "x"
			r.Options.Seed, r.Options.HorizonMS, r.Options.QueueCap, r.Options.Witness = 7, 5, 3, true
		}), true},
		{"negative max_states is unlimited", ta(plain), ta(func(r *SubmitRequest) { r.Options.MaxStates = -5 }), true},
		{"negative deadline_ms is the default deadline", ta(plain), ta(func(r *SubmitRequest) { r.Options.DeadlineMS = -1 }), true},
		{"arch defaults spelled out", arch(plain),
			arch(func(r *SubmitRequest) { r.Options.QueueCap = 8; r.Requirements = []string{"e2e", "first-op"} }), true},
		{"per-requirement horizons that are not positive", arch(plain),
			arch(func(r *SubmitRequest) { r.Options.HorizonMSByReq = map[string]int64{"e2e": 0, "first-op": -3} }), true},
		{"per-requirement horizon equal to horizon_ms", arch(plain),
			arch(func(r *SubmitRequest) { r.Options.HorizonMSByReq = map[string]int64{"e2e": 100} }), true},
		{"per-requirement horizon of a requirement not asked",
			arch(func(r *SubmitRequest) { r.Requirements = []string{"e2e"} }),
			arch(func(r *SubmitRequest) {
				r.Requirements, r.Options.HorizonMSByReq = []string{"e2e"}, map[string]int64{"first-op": 50}
			}), true},
		{"max_const 0 and -1", ta(func(r *SubmitRequest) { r.Options.MaxConst = 0 }),
			ta(func(r *SubmitRequest) { r.Options.MaxConst = -1 }), true},

		{"rdf with two seeds",
			ta(func(r *SubmitRequest) { r.Options.Order, r.Options.Seed = "rdf", 1 }),
			ta(func(r *SubmitRequest) { r.Options.Order, r.Options.Seed = "rdf", 2 }), false},
		{"max_const with a sup query", ta(plain), ta(func(r *SubmitRequest) { r.Options.MaxConst = 30 }), false},
		{"reordered requirement list",
			arch(func(r *SubmitRequest) { r.Requirements = []string{"e2e", "first-op"} }),
			arch(func(r *SubmitRequest) { r.Requirements = []string{"first-op", "e2e"} }), false},
		{"witness on an arch job", arch(plain), arch(func(r *SubmitRequest) { r.Options.Witness = true }), false},
		{"per-requirement horizon that differs", arch(plain),
			arch(func(r *SubmitRequest) { r.Options.HorizonMSByReq = map[string]int64{"e2e": 50} }), false},
	} {
		a, b := contentKey(t, s, tc.a), contentKey(t, s, tc.b)
		if (a == b) != tc.same {
			t.Errorf("%s: keys %s and %s, want same=%v", tc.name, a, b, tc.same)
		}
	}
}

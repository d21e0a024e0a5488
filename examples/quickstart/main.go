// Quickstart: build a small network of timed automata with the low-level ta
// API — the paper's Fig. 4 pattern of a hardware server fed by a periodic
// environment — and compute a worst-case response time with the zone-based
// model checker as a single-pass clock supremum, from which follows the least
// constant of the paper's Property 1 that its binary search looks for.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ta"
)

func main() {
	net := ta.NewNetwork("quickstart")

	// Clocks: the generator's period clock, the server's execution clock,
	// and the observer's response-time clock.
	gx := net.AddClock("gx")
	sx := net.AddClock("sx")
	y := net.AddClock("y")
	net.EnsureMaxConst(y.ID, 100) // observation horizon for y

	// A shared counter holds pending requests (the paper's "rec" variable),
	// and the urgent "hurry" channel makes dispatching greedy.
	rec := net.AddVar("rec", 0, 0, 4)
	hurry := net.AddChan("hurry", ta.BroadcastUrgent)
	done := net.AddChan("done", ta.Broadcast)

	// Environment (Fig. 7a): strictly periodic events, period 10, offset 0.
	gen := net.AddProcess("GEN")
	g0 := gen.AddLocation("tick", ta.Normal, ta.CLE(gx, 10))
	gen.AddEdge(ta.Edge{
		Src: g0, Dst: g0,
		ClockGuard: ta.CEq(gx, 10),
		Resets:     []ta.Reset{{Clock: gx.ID, Value: 0}},
		Update:     ta.Inc(rec, 1),
	})

	// Server (Fig. 4): idle until a request is pending, then busy for
	// exactly 3 time units.
	srv := net.AddProcess("SRV")
	idle := srv.AddLocation("idle", ta.Normal)
	busy := srv.AddLocation("busy", ta.Normal, ta.CLE(sx, 3))
	srv.AddEdge(ta.Edge{
		Src: idle, Dst: busy,
		Guard:  ta.VarCmp(rec, ta.Gt, 0),
		Sync:   ta.Sync{Chan: hurry.ID, Dir: ta.Emit},
		Resets: []ta.Reset{{Clock: sx.ID, Value: 0}},
		Update: ta.Inc(rec, -1),
	})
	srv.AddEdge(ta.Edge{
		Src: busy, Dst: idle,
		ClockGuard: ta.CEq(sx, 3),
		Sync:       ta.Sync{Chan: done.ID, Dir: ta.Emit},
	})

	// Observer: y is reset on each generator tick; to keep the quickstart
	// small we measure the interval from dispatch to completion instead of
	// the full Fig. 9 machinery (internal/arch generates that for you).
	obs := net.AddProcess("OBS")
	watch := obs.AddLocation("watch", ta.Normal)
	seen := obs.AddLocation("seen", ta.Committed)
	obs.AddEdge(ta.Edge{Src: watch, Dst: seen, Sync: ta.Sync{Chan: done.ID, Dir: ta.Recv}})
	obs.AddEdge(ta.Edge{Src: seen, Dst: watch, Resets: []ta.Reset{{Clock: y.ID, Value: 0}}})

	if err := net.Finalize(); err != nil {
		log.Fatal(err)
	}

	checker, err := core.NewChecker(net)
	if err != nil {
		log.Fatal(err)
	}
	atSeen := func(s *core.State) bool { return s.Locs[2] == seen }

	// One-pass supremum of y over all completion instants.
	q := core.NewSupClockQuery(y.ID, atSeen)
	if _, err := checker.RunQueries(core.Options{}, q); err != nil {
		log.Fatal(err)
	}
	sup := q.Result
	fmt.Printf("sup of y at completion: %v  (%s)\n", sup.Max, sup.Stats)

	// The paper's methodology (Property 1): binary search for the least C
	// with AG(seen -> y < C). One supremum answers every threshold: a
	// supremum (<= v) puts that C at v+1, one (< v) at v.
	C := sup.Max.Value()
	if sup.Max.Weak() {
		C++
	}
	fmt.Printf("least C with AG(seen -> y < C): C = %d\n", C)

	// Safety: requests never queue (the server keeps up with the load).
	// AG(rec <= 1) holds exactly when no state with rec > 1 is reachable.
	queued := core.NewReachQuery(func(s *core.State) bool { return s.Vars[rec.ID] > 1 })
	if _, err := checker.RunQueries(core.Options{}, queued); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AG(rec <= 1): %v  (%s)\n", !queued.Found, queued.Stats)
}

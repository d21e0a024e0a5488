package ta_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ta"
)

// Example builds a minimal network — a periodic generator feeding a server
// through a counter and the urgent "hurry" channel, the paper's Fig. 4
// pattern — and checks that requests never queue.
func Example() {
	net := ta.NewNetwork("example")
	gx := net.AddClock("gx")
	sx := net.AddClock("sx")
	rec := net.AddVar("rec", 0, 0, 4)
	hurry := net.AddChan("hurry", ta.BroadcastUrgent)

	gen := net.AddProcess("GEN")
	tick := gen.AddLocation("tick", ta.Normal, ta.CLE(gx, 10))
	gen.AddEdge(ta.Edge{Src: tick, Dst: tick, ClockGuard: ta.CEq(gx, 10),
		Resets: []ta.Reset{{Clock: gx.ID, Value: 0}}, Update: ta.Inc(rec, 1)})

	srv := net.AddProcess("SRV")
	idle := srv.AddLocation("idle", ta.Normal)
	busy := srv.AddLocation("busy", ta.Normal, ta.CLE(sx, 3))
	srv.AddEdge(ta.Edge{Src: idle, Dst: busy,
		Guard:  ta.VarCmp(rec, ta.Gt, 0),
		Sync:   ta.Sync{Chan: hurry.ID, Dir: ta.Emit},
		Resets: []ta.Reset{{Clock: sx.ID, Value: 0}},
		Update: ta.Inc(rec, -1)})
	srv.AddEdge(ta.Edge{Src: busy, Dst: idle, ClockGuard: ta.CEq(sx, 3)})

	if err := net.Finalize(); err != nil {
		log.Fatal(err)
	}
	checker, err := core.NewChecker(net)
	if err != nil {
		log.Fatal(err)
	}
	// AG(rec <= 1) is the unreachability of rec > 1.
	queued := core.NewReachQuery(func(s *core.State) bool { return s.Vars[rec.ID] > 1 })
	if _, err := checker.RunQueries(core.Options{}, queued); err != nil {
		log.Fatal(err)
	}
	fmt.Println("AG(rec <= 1):", !queued.Found)
	// Output: AG(rec <= 1): true
}

// ExampleParse loads the same system from the textual format and computes
// the server's busy-clock supremum.
func ExampleParse() {
	net, err := ta.Parse(`
system:example
clock:gx
clock:sx
int:rec:0:0:4
chan:hurry:urgent-broadcast
process:GEN
location:GEN:tick{initial; invariant: gx<=10}
edge:GEN:tick:tick{guard: gx==10; do: rec=rec+1, gx=0}
process:SRV
location:SRV:idle{initial}
location:SRV:busy{invariant: sx<=3}
edge:SRV:idle:busy{guard: rec>0; sync: hurry!; do: rec=rec-1, sx=0}
edge:SRV:busy:idle{guard: sx==3}
`)
	if err != nil {
		log.Fatal(err)
	}
	checker, err := core.NewChecker(net)
	if err != nil {
		log.Fatal(err)
	}
	busy := net.ProcByName("SRV").LocByName("busy")
	sup := core.NewSupClockQuery(2, func(s *core.State) bool { return s.Locs[1] == busy })
	if _, err := checker.RunQueries(core.Options{}, sup); err != nil {
		log.Fatal(err)
	}
	fmt.Println("sup(sx) while busy:", sup.Result.Max)
	// Output: sup(sx) while busy: <=3
}

package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"

	"repro/internal/wire"
)

// The generators below make every input the program under test sees. They
// emit model TEXT (arch JSON, .ta source) — the program parses it like any
// user's file — and are pure functions of their arguments: the same seed
// gives byte-identical inputs. archchain, fischer and the table1 grid do
// not depend on the seed at all, so their work is the same on every run.

// archChainHorizonMS is the observation horizon of the archchain system:
// above the hyperperiod's worst response, below the extrapolation blow-up.
const archChainHorizonMS = 120

// archChainJSON emits the n-scenario chain system: n periodic scenarios with
// known offsets on ONE nondeterministic processor, one end-to-end
// requirement each. It is bench_test.go's scalingSystem written as input
// text and pushed to n = 10: every requirement adds an observer clock, so n
// scales the DBM dimension (2n+2) while known offsets keep branching low.
func archChainJSON(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"name":"archchain","processors":[{"name":"CPU","mips":10,"sched":"nondet"}],"scenarios":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"s%d","priority":%d,"arrival":{"kind":"po","period_ms":"%d","offset_ms":"%d"},`+
			`"steps":[{"name":"op%d","processor":"CPU","instructions":45000}]}`,
			i, i+1, 40+40*(i%2), 3*i, i)
	}
	b.WriteString(`],"requirements":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"r%d","scenario":"s%d","from":-1,"to":0}`, i, i)
	}
	b.WriteString("]}\n")
	return []byte(b.String())
}

// fischerTA emits Fischer's mutual-exclusion protocol for n processes as .ta
// source. A process may write the shared id up to writeBound after its
// request and enters the critical section only after waiting strictly longer
// than waitConst; incs counts processes inside the critical section, so
// "incs <= 1" is mutual exclusion in the predicate language's conjunctive
// fragment. The protocol is safe iff waitConst >= writeBound.
func fischerTA(name string, n int, writeBound, waitConst int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "system:%s\n", name)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "clock:x%d\n", i)
	}
	fmt.Fprintf(&b, "int:id:0:0:%d\nint:incs:0:0:%d\n", n, n)
	for i := 1; i <= n; i++ {
		p := fmt.Sprintf("P%d", i)
		fmt.Fprintf(&b, "process:%s\n", p)
		fmt.Fprintf(&b, "location:%s:idle{initial}\n", p)
		fmt.Fprintf(&b, "location:%s:req{invariant: x%d<=%d}\n", p, i, writeBound)
		fmt.Fprintf(&b, "location:%s:wait\n", p)
		fmt.Fprintf(&b, "location:%s:cs\n", p)
		fmt.Fprintf(&b, "edge:%s:idle:req{guard: id==0; do: x%d=0}\n", p, i)
		fmt.Fprintf(&b, "edge:%s:req:wait{guard: x%d<=%d; do: id=%d, x%d=0}\n", p, i, writeBound, i, i)
		fmt.Fprintf(&b, "edge:%s:wait:req{guard: id==0; do: x%d=0}\n", p, i)
		fmt.Fprintf(&b, "edge:%s:wait:cs{guard: x%d>%d && id==%d; do: incs=incs+1}\n", p, i, waitConst, i)
		fmt.Fprintf(&b, "edge:%s:cs:idle{do: id=0, incs=incs-1}\n", p)
	}
	return b.String()
}

// fischerQueries is the query set every Fischer analysis answers in one
// sweep: mutual exclusion and deadlock freedom.
func fischerQueries() []wire.TAQuery {
	return []wire.TAQuery{{Kind: "safety", Pred: "incs <= 1"}, {Kind: "deadlock"}}
}

// variant is one small design-space model with the answer its parameters
// imply.
type variant struct {
	kind  string // "arch" or "ta"
	model string
	// arch: the contention-free chain sum of the one scenario.
	wantMS *big.Rat
	// ta: Fischer's constants, which decide mutual exclusion.
	writeBound, waitConst int64
}

// genVariants emits n distinct small models from the seed: even indices are
// one-scenario 2–3 step arch systems (the scenario runs alone, so its WCRT
// is the chain sum of its step durations), odd indices are two-process
// Fischer texts with varied constants (three processes already store 253+
// states, above the variants bound). Exploration is a few dozen states, so
// the fixed per-analysis cost — parsing, compilation, index build, checker
// and store construction, encoding — is what an analysis of one costs.
func genVariants(seed int64, n int) []variant {
	r := rand.New(rand.NewSource(seed))
	out := make([]variant, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = genArchVariant(r, fmt.Sprintf("v%d-%d", seed, i))
		} else {
			k := 1 + r.Int63n(9)
			w := 1 + r.Int63n(9)
			out[i] = variant{kind: "ta", writeBound: k, waitConst: w,
				model: fischerTA(fmt.Sprintf("fv%d_%d", seed, i), 2, k, w)}
		}
	}
	return out
}

// genArchVariant draws one pipeline: CPU step, optional bus transfer, CPU
// step, in tenths of a millisecond (10 MIPS: 10³ instructions; 80 kbit/s:
// one byte). The expected answer is the sum of instructions/(MIPS·1000) and
// bytes·8/kbit·s⁻¹ over the steps, in exact rationals.
func genArchVariant(r *rand.Rand, name string) variant {
	a, c := 1000*(1+r.Int63n(90)), 1000*(1+r.Int63n(90))
	var msg int64
	if r.Intn(2) == 0 {
		msg = 1 + r.Int63n(90)
	}
	want := new(big.Rat).SetFrac64(a+c, 10*1000)
	want.Add(want, new(big.Rat).SetFrac64(msg*8, 80))
	var b strings.Builder
	fmt.Fprintf(&b, `{"name":%q,"processors":[{"name":"A","mips":10,"sched":"fp"},{"name":"B","mips":10,"sched":"fp-preemptive"}],`+
		`"buses":[{"name":"BUS","kbit_per_sec":80,"sched":"fp"}],"scenarios":[{"name":"job","priority":1,`+
		`"arrival":{"kind":"po","period_ms":"100","offset_ms":"0"},"steps":[`, name)
	fmt.Fprintf(&b, `{"name":"opA","processor":"A","instructions":%d},`, a)
	last := 1
	if msg > 0 {
		fmt.Fprintf(&b, `{"name":"msg","bus":"BUS","bytes":%d},`, msg)
		last = 2
	}
	fmt.Fprintf(&b, `{"name":"opB","processor":"B","instructions":%d}]}],`, c)
	fmt.Fprintf(&b, `"requirements":[{"name":"e2e","scenario":"job","from":-1,"to":%d}]}`+"\n", last)
	return variant{kind: "arch", model: b.String(), wantMS: want}
}

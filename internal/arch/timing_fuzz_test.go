package arch_test

import (
	"encoding/json"
	"math/big"
	"testing"

	"repro/internal/arch"
	"repro/internal/dbm"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/symta"
)

// fuzzSystemJSON is a one-scenario pipeline (compute, transfer, compute)
// whose capacities, sizes and arrival model come from the fuzzer.
func fuzzSystemJSON(kind uint8, bytes, instructions, mips, kbit int64, period, jitter, minSep string) []byte {
	arrival := map[string]string{
		"kind":      []string{"po", "pno", "sp", "pj", "bur"}[kind%5],
		"period_ms": period,
	}
	if jitter != "" {
		arrival["jitter_ms"] = jitter
	}
	if minSep != "" {
		arrival["min_sep_ms"] = minSep
	}
	data, err := json.Marshal(map[string]any{
		"name":       "fuzz",
		"processors": []any{map[string]any{"name": "A", "mips": mips, "sched": "fp"}},
		"buses":      []any{map[string]any{"name": "BUS", "kbit_per_sec": kbit, "sched": "fp"}},
		"scenarios": []any{map[string]any{
			"name": "job", "priority": 1, "arrival": arrival,
			"steps": []any{
				map[string]any{"name": "opA", "processor": "A", "instructions": instructions},
				map[string]any{"name": "msg", "bus": "BUS", "bytes": bytes},
				map[string]any{"name": "opB", "processor": "A", "instructions": instructions},
			},
		}},
		"requirements": []any{map[string]any{"name": "e2e", "scenario": "job", "from": -1, "to": 2}},
	})
	if err != nil {
		panic(err)
	}
	return data
}

// FuzzSystemTiming varies the sizes, capacities and arrival parameters of a
// small system. For every system ParseSystem accepts, each step's duration
// is the exact rational computed in big.Int, the timing view either fails
// or returns every value × scale as an integer within dbm.MaxConstant, and
// no engine panics.
func FuzzSystemTiming(f *testing.F) {
	f.Add(uint8(0), int64(10), int64(100000), int64(10), int64(8), "100", "", "")
	f.Add(uint8(4), int64(10), int64(100000), int64(10), int64(8), "100", "250", "7/3")
	f.Add(uint8(3), int64(3), int64(12345), int64(22), int64(72), "125/4", "31/2", "")
	f.Fuzz(func(t *testing.T, kind uint8, bytes, instructions, mips, kbit int64, period, jitter, minSep string) {
		sys, reqs, err := arch.ParseSystem(fuzzSystemJSON(kind, bytes, instructions, mips, kbit, period, jitter, minSep))
		if err != nil {
			return
		}
		sc := sys.Scenarios[0]
		for i := range sc.Steps {
			st := &sc.Steps[i]
			var want *big.Rat
			if st.IsCompute() {
				den := new(big.Int).Mul(big.NewInt(st.Proc.MIPS), big.NewInt(1000))
				want = new(big.Rat).SetFrac(big.NewInt(st.Instructions), den)
			} else {
				num := new(big.Int).Mul(big.NewInt(st.Bytes), big.NewInt(8))
				want = new(big.Rat).SetFrac(num, big.NewInt(st.Bus.KBitPerSec))
			}
			if got := st.DurationMS(); got.Cmp(want) != 0 {
				t.Fatalf("step %s: DurationMS = %s, want %s", st.Name, got.RatString(), want.RatString())
			}
		}

		tm, timingErr := sys.Timing()
		if timingErr == nil {
			st := &tm.Scenarios[0]
			check := func(field string, ms *big.Rat, units int64) {
				if ms == nil {
					ms = new(big.Rat)
				}
				v := new(big.Rat).Mul(ms, new(big.Rat).SetInt(tm.Scale))
				if !v.IsInt() || !v.Num().IsInt64() || v.Num().Int64() != units || units < 0 || units > dbm.MaxConstant {
					t.Fatalf("%s: %s ms at scale %s is %d units", field, ms.RatString(), tm.Scale, units)
				}
			}
			m := sc.Arrival
			check("period_ms", m.PeriodMS, st.Period)
			check("offset_ms", m.OffsetMS, st.Offset)
			check("jitter_ms", m.JitterMS, st.Jitter)
			check("min_sep_ms", m.MinSepMS, st.MinSep)
			for i := range sc.Steps {
				check(sc.Steps[i].Name, sc.Steps[i].DurationMS(), st.Steps[i])
			}
		}

		// Every engine answers or errs, none panics, and a system the view
		// refuses is refused by each with the view's error.
		sameErr := func(engine string, err error) {
			if timingErr != nil && (err == nil || err.Error() != timingErr.Error()) {
				t.Fatalf("%s: err = %v, want the timing view's %v", engine, err, timingErr)
			}
		}
		_, err = arch.CompileAll(sys, reqs, arch.Options{HorizonMS: 50})
		sameErr("CompileAll", err)
		_, err = symta.Analyze(sys, reqs)
		sameErr("symta", err)
		_, err = rtc.Analyze(sys, reqs)
		sameErr("rtc", err)
		// One replication of 50 ms, unless the stream is so dense that it
		// would sample more than 10^4 events.
		if timingErr != nil || 50*tm.Scale.Int64()/tm.Scenarios[0].Period <= 10000 {
			_, err = sim.Simulate(sys, reqs, sim.Options{Seed: 1, HorizonMS: 50, Replications: 1})
			sameErr("sim", err)
		}
	})
}

package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/ta"
)

// packedHash is the hash the store gives s's discrete part: its key, packed
// by keys, hashed (discretePacker.hash).
func packedHash(keys *discretePacker, s *State) uint64 {
	key := make([]uint64, keys.words)
	keys.pack(s.Locs, s.Vars, key)
	return keys.hash(key)
}

// checkKeys packs every valuation of the cartesian product of locs (per
// process) and vals (per variable) and requires each key to decode back to
// its valuation and no two keys to be equal.
func checkKeys(t *testing.T, p *discretePacker, locs [][]ta.LocID, vals [][]int64) int {
	t.Helper()
	seen := map[string]string{}
	gotLocs, gotVars := make([]ta.LocID, len(locs)), make([]int64, len(vals))
	key := make([]uint64, p.words)
	var rec func(l []ta.LocID, v []int64)
	rec = func(l []ta.LocID, v []int64) {
		if len(l) < len(locs) {
			for _, x := range locs[len(l)] {
				rec(append(l, x), v)
			}
			return
		}
		if len(v) < len(vals) {
			for _, x := range vals[len(v)] {
				rec(l, append(v, x))
			}
			return
		}
		for i := range key {
			key[i] = ^uint64(0) // pack must not depend on what dst held
		}
		p.pack(l, v, key)
		p.unpack(key, gotLocs, gotVars)
		if !slices.Equal(gotLocs, l) || !slices.Equal(gotVars, v) {
			t.Fatalf("%v %v packs to %x, which decodes to %v %v", l, v, key, gotLocs, gotVars)
		}
		k, state := fmt.Sprint(key), fmt.Sprint(l, v)
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s and %s share the key %s", prev, state, k)
		}
		seen[k] = state
	}
	rec(nil, nil)
	return len(seen)
}

// locRange lists every location of a process with n of them.
func locRange(n int) []ta.LocID {
	out := make([]ta.LocID, n)
	for i := range out {
		out[i] = ta.LocID(i)
	}
	return out
}

// edges lists a variable's range ends and a value next to each.
func edges(min, max int64) []int64 {
	out := []int64{min, max}
	if max-min >= 2 || (min < 0 && max > 0) {
		out = append(out, min+1, max-1)
	}
	if min < 0 && max > 0 {
		out = append(out, 0)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestDiscreteKeyRoundTrip covers the packer's layout edges: 0-bit fields
// (a single location, Min == Max), negative Min, a 64-bit field over the
// whole int64 range, fields that straddle a word boundary, and location
// counts 1, 2, 2^k and 2^k+1. Every valuation must decode back to itself, no
// two may share a key, and the key must be as short as the widths allow.
func TestDiscreteKeyRoundTrip(t *testing.T) {
	v := func(min, max int64) ta.VarDecl { return ta.VarDecl{Name: "v", Min: min, Max: max} }
	cases := []struct {
		name      string
		locCounts []int
		vars      []ta.VarDecl
		words     int
	}{
		{"location counts 1, 2, 2^k, 2^k+1", []int{1, 2, 8, 9}, nil, 1},
		{"Min == Max", []int{3}, []ta.VarDecl{v(5, 5), v(-2, -2), v(0, 1)}, 1},
		{"nothing varies", []int{1, 1}, []ta.VarDecl{v(4, 4)}, 1},
		{"negative Min", []int{2}, []ta.VarDecl{v(-7, 3), v(-100, -90)}, 1},
		{"full int64 range", []int{1}, []ta.VarDecl{v(math.MinInt64, math.MaxInt64)}, 1},
		{"full range after a location", []int{5}, []ta.VarDecl{v(math.MinInt64, math.MaxInt64)}, 2},
		{"straddles a word", []int{}, []ta.VarDecl{v(0, 1<<60-1), v(0, 1023), v(-1, 1)}, 2},
		{"straddles by one bit", []int{1 << 20, 1 << 20, 1 << 20}, []ta.VarDecl{v(0, 7), v(0, 3)}, 2},
		{"exactly one word", []int{1 << 16}, []ta.VarDecl{v(0, 1<<48-1)}, 1},
		{"two words, 127 bits", []int{}, []ta.VarDecl{v(math.MinInt64, math.MaxInt64), v(1, math.MaxInt64)}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := packerFor(tc.locCounts, tc.vars)
			if p.words != tc.words {
				t.Errorf("%d words, want %d", p.words, tc.words)
			}
			locs := make([][]ta.LocID, len(tc.locCounts))
			for i, n := range tc.locCounts {
				if n <= 9 {
					locs[i] = locRange(n)
				} else {
					locs[i] = []ta.LocID{0, 1, ta.LocID(n / 2), ta.LocID(n - 2), ta.LocID(n - 1)}
				}
			}
			vals := make([][]int64, len(tc.vars))
			for i, d := range tc.vars {
				vals[i] = edges(d.Min, d.Max)
			}
			if checkKeys(t, &p, locs, vals) < 2 && tc.name != "nothing varies" {
				t.Fatal("the case packs fewer than two valuations")
			}
		})
	}
}

// FuzzDiscreteKey lays out a packer from the fuzz input — up to four
// processes and four variables of arbitrary ranges — and packs two in-range
// valuations drawn from it, often equal in all but a few fields: each must
// decode back to itself, and their keys must be equal exactly when the
// valuations are.
func FuzzDiscreteKey(f *testing.F) {
	f.Add([]byte{0x21, 3, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x14, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint64 {
			var b [8]byte
			n := copy(b[:], data)
			data = data[n:]
			return binary.LittleEndian.Uint64(b[:])
		}
		shape := next()
		procs, nvars := int(shape&3)+1, int(shape>>2&3)+int(shape>>4&1)
		counts := make([]int, procs)
		for i := range counts {
			counts[i] = int(next()%(1<<21)) + 1
		}
		vars := make([]ta.VarDecl, nvars)
		for i := range vars {
			lo, span := int64(next()), next()>>(next()%65)
			hi := int64(uint64(lo) + span)
			if hi < lo {
				hi = math.MaxInt64
			}
			vars[i] = ta.VarDecl{Name: "v", Min: lo, Max: hi}
		}
		p := packerFor(counts, vars)
		draw := func() ([]ta.LocID, []int64) {
			l, v := make([]ta.LocID, procs), make([]int64, nvars)
			for i, n := range counts {
				l[i] = ta.LocID(next() % uint64(n))
			}
			for i, d := range vars {
				span := uint64(d.Max) - uint64(d.Min)
				x := next()
				if span != math.MaxUint64 {
					x %= span + 1
				}
				v[i] = int64(uint64(d.Min) + x)
			}
			return l, v
		}
		// The second valuation takes each component from the first or from a
		// fresh draw, so the pairs that differ in a single field are common.
		l1, v1 := draw()
		l2, v2 := draw()
		mix := next()
		for i := range l2 {
			if mix>>i&1 == 0 {
				l2[i] = l1[i]
			}
		}
		for i := range v2 {
			if mix>>(8+i)&1 == 0 {
				v2[i] = v1[i]
			}
		}
		k1, k2 := make([]uint64, p.words), make([]uint64, p.words)
		p.pack(l1, v1, k1)
		p.pack(l2, v2, k2)
		for _, c := range []struct {
			l   []ta.LocID
			v   []int64
			key []uint64
		}{{l1, v1, k1}, {l2, v2, k2}} {
			gl, gv := make([]ta.LocID, procs), make([]int64, nvars)
			p.unpack(c.key, gl, gv)
			if !slices.Equal(gl, c.l) || !slices.Equal(gv, c.v) {
				t.Fatalf("%v %v (counts %v, vars %v) decodes as %v %v", c.l, c.v, counts, vars, gl, gv)
			}
		}
		same := slices.Equal(l1, l2) && slices.Equal(v1, v2)
		if slices.Equal(k1, k2) != same {
			t.Fatalf("keys equal %v for valuations equal %v: %v %v and %v %v", !same, same, l1, v1, l2, v2)
		}
	})
}

package main

import (
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 1) of the values by
// linear interpolation between closest ranks; 0 for an empty set. The input
// is not modified.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// spread is the distance between the first and third quartile as a share of
// the median — the run-to-run figure a metric's bound is judged against.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	d := (percentile(values, 0.75) - percentile(values, 0.25)) / m
	if d < 0 {
		d = -d
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

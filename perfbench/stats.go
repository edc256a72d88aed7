package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule;
// NaN when xs is empty. A failed operation is recorded as +Inf, so it
// counts as missing any latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when the base is empty.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

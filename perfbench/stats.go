package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported
// percentile: a p99 read off 200 samples is two points, which is noise,
// so the helper walks the percentile down until the tail holds this
// many.
const tailSamples = 10

// Quantile is one percentile read off a sample: the value, the
// percentile actually reported (at most the one asked for), whether
// that had to be lowered, and the sample count it came from.
type Quantile struct {
	Value   float64
	P       float64
	Lowered bool
	N       int
}

// Percentile returns the nearest-rank p-quantile of xs, lowered to the
// highest percentile that still has at least tailSamples samples
// beyond it. ok is false when xs is too small to have such a
// percentile at all.
func Percentile(xs []float64, p float64) (q Quantile, ok bool) {
	n := len(xs)
	if n <= tailSamples {
		return Quantile{N: n}, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	lowered := false
	if last := n - 1 - tailSamples; idx > last {
		idx, lowered = last, true
	}
	return Quantile{Value: s[idx], P: float64(idx+1) / float64(n), Lowered: lowered, N: n}, true
}

// median is the middle value of xs (the mean of the middle two for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

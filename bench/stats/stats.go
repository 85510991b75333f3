// Package stats holds the few order statistics mavbench reports: medians
// with quartiles, the tail percentile a sample count can support, and the
// paired ratio used to price a variant against its interleaved reference.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary is how a timing is reported: the median, the quartiles around
// it, and the sample count they rest on.
type Summary struct {
	Median, P25, P75 float64
	N                int
}

// Summarize computes the Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{Median: Median(xs), P25: Percentile(xs, 25), P75: Percentile(xs, 75), N: len(xs)}
}

// TailRank returns the highest percentile of the ladder 99, 90, 50 that
// still has at least ten of n samples beyond it: 99 needs 1000 samples, 90
// needs 100, and anything smaller falls back to the median.
func TailRank(n int) float64 {
	for _, p := range []float64{99, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// Tail returns the TailRank(len(xs)) percentile of xs and the rank used.
func Tail(xs []float64) (value, rank float64) {
	rank = TailRank(len(xs))
	return Percentile(xs, rank), rank
}

// Spread is the interquartile range of xs as a share of its median, the
// run-to-run steadiness figure the A/A report prints. Quartiles follow
// Python's statistics.quantiles(xs, n=4) (the exclusive method), so the
// number matches what the benchmark contract computes.
func Spread(xs []float64) float64 {
	n := len(xs)
	m := Median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k float64) float64 {
		pos := k * float64(n+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

// PairedRatio returns the median over i of variant[i]/reference[i], the
// two medians it is based on, and the number of pairs used. Pairing each
// variant rep with the reference rep run next to it cancels drift that a
// ratio of two separate medians would keep. Pairs with a zero reference
// are skipped.
func PairedRatio(variant, reference []float64) (ratio, variantMedian, referenceMedian float64, n int) {
	if len(reference) < len(variant) {
		variant = variant[:len(reference)]
	}
	ratios := make([]float64, 0, len(variant))
	for i, v := range variant {
		if reference[i] != 0 {
			ratios = append(ratios, v/reference[i])
		}
	}
	return Median(ratios), Median(variant), Median(reference[:len(variant)]), len(ratios)
}

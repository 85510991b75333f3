package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndSummary(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}} {
		if got := Percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("Percentile sorted its argument in place")
	}
	s := Summarize(xs)
	if s.N != 5 || !near(s.Median, 3) || !near(s.P25, 2) || !near(s.P75, 4) {
		t.Errorf("Summarize = %+v", s)
	}
}

// The tail percentile is the highest of p99, p90, p50 with at least ten
// samples beyond it.
func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {21, 50}, {99, 50}, {100, 90}, {850, 90}, {999, 90}, {1000, 99}, {4090, 99}} {
		if got := TailRank(c.n); got != c.want {
			t.Errorf("TailRank(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, rank := Tail(xs)
	if rank != 99 || !near(v, 989.01) {
		t.Errorf("Tail = %v at p%v", v, rank)
	}
}

// Spread must agree with Python's statistics.quantiles(xs, n=4):
// quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := Spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	if got := Spread([]float64{3}); got != 0 {
		t.Errorf("Spread of one value = %v, want 0", got)
	}
}

func TestPairedRatio(t *testing.T) {
	// The machine slows down 2x half way: the ratio of medians would read
	// 1.75, the paired ratio still reads 1.5.
	variant := []float64{1.5, 1.5, 3.0, 3.0}
	reference := []float64{1.0, 1.0, 2.0, 2.0, 9.9}
	ratio, vm, rm, n := PairedRatio(variant, reference)
	if !near(ratio, 1.5) || n != 4 || !near(vm, 2.25) || !near(rm, 1.5) {
		t.Errorf("PairedRatio = %v (%v / %v, n=%d)", ratio, vm, rm, n)
	}
	if _, _, _, n := PairedRatio([]float64{1, 2}, []float64{0, 4}); n != 1 {
		t.Errorf("zero reference not skipped: n=%d", n)
	}
}

package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// rule the spread of a set of runs is judged by; the wants are its
// outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{7.1, 8.1, 8.3, 6.5, 9.9}, 6.8, 9.1},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// Pooled percentiles interpolate between the closest ranks of all the
// samples, in any order.
func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1
	}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 50.5}, {99, 99.01}, {100, 100},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{2.5}, 99); got != 2.5 {
		t.Errorf("percentile of one sample = %v, want 2.5", got)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{2, 2, 2}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01} }
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(10), steady(10.5), "within"},
		{lower, steady(10), steady(12), "worse"},
		{lower, steady(10), steady(8), "better"},
		{higher, steady(10), steady(8), "worse"},
		{higher, steady(10), steady(12), "better"},
		{lower, steady(10), []float64{8, 10, 12}, "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

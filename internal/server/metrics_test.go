package server

import (
	"math"
	"testing"
)

// TestHistogramBuckets pins where a sample lands: a histogram holding the
// one sample v reports the upper bound 2^i of v's bucket as every quantile,
// where bucket 0 holds 0, bucket i holds [2^(i-1), 2^i), and bucket 44, the
// last, also holds everything from 2^44 up and every negative sample.
func TestHistogramBuckets(t *testing.T) {
	const top = int64(1) << (histBuckets - 1)
	cases := []struct{ v, upper int64 }{
		{0, 1},
		{1, 2},
		{-1, top},
		{math.MinInt64, top},
		{math.MaxInt64, top},
	}
	// Either side of each power of two: 2^k-1 closes bucket k, 2^k opens
	// bucket k+1, and from 2^44 on everything shares the last bucket.
	for k := 1; k < 63; k++ {
		p := int64(1) << k
		cases = append(cases,
			struct{ v, upper int64 }{p - 1, min(p, top)},
			struct{ v, upper int64 }{p, 2 * min(p, top/2)},
			struct{ v, upper int64 }{p + 1, 2 * min(p, top/2)})
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.v)
		for _, q := range []float64{0.01, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != c.upper {
				t.Errorf("Observe(%d): Quantile(%v) = %d, want %d", c.v, q, got, c.upper)
			}
		}
		if h.Count() != 1 || h.Mean() != float64(c.v) {
			t.Errorf("Observe(%d): Count %d, Mean %v", c.v, h.Count(), h.Mean())
		}
	}
}

// TestHistogramQuantileRanks: the q-quantile is the bucket holding the
// sample of rank ⌊q·n⌋ (at least 1) in ascending order; the mean is exact.
func TestHistogramQuantileRanks(t *testing.T) {
	var empty Histogram
	if empty.Count() != 0 || empty.Quantile(0.5) != 0 || empty.Quantile(1) != 0 || empty.Mean() != 0 {
		t.Errorf("empty histogram: Count %d, Quantile %d/%d, Mean %v",
			empty.Count(), empty.Quantile(0.5), empty.Quantile(1), empty.Mean())
	}
	var h Histogram
	for _, v := range []int64{1000, 1, 100} {
		h.Observe(v)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{
		{0.01, 2},   // rank 1: the sample 1
		{0.5, 2},    // rank 1
		{0.67, 128}, // rank 2: the sample 100
		{0.99, 128}, // rank 2
		{1, 1024},   // rank 3: the sample 1000
	} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if h.Count() != 3 || h.Mean() != 367 {
		t.Errorf("Count %d, Mean %v; want 3 and 367", h.Count(), h.Mean())
	}
}

package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// nearestRank is the reference: the sample of rank ceil(q*n) in sorted
// order.
func nearestRank(sorted []int64, q float64) int64 {
	r := int(math.Ceil(q * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

func TestQuantileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() int64{
		"small-exact": func() int64 { return rng.Int63n(100) },
		"latency-ns":  func() int64 { return 20_000 + int64(rng.ExpFloat64()*30_000) },
		"wide":        func() int64 { return int64(math.Exp(rng.Float64() * 25)) },
	}
	for name, draw := range dists {
		for _, n := range []int{1, 7, 1000, 50_000} {
			var h Hist
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = draw()
				h.Record(xs[i])
			}
			sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
			if got := h.Count(); got != uint64(n) {
				t.Fatalf("%s n=%d: Count=%d", name, n, got)
			}
			for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
				want := float64(nearestRank(xs, q))
				got := h.Quantile(q)
				// Same bucket as the reference sample: within one bucket
				// width, at most 1/128 of the value (exact below 128).
				if tol := math.Max(want/128, 0.5); math.Abs(got-want) > tol {
					t.Errorf("%s n=%d q=%v: got %v, sorted reference %v (tolerance %v)", name, n, q, got, want, tol)
				}
			}
		}
	}
}

func TestQuantileEmptyIsNaN(t *testing.T) {
	var h Hist
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile is not NaN")
	}
}

func TestBucketBoundsContainValue(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 123_456_789, 1<<maxBits - 1} {
		lo, width := bounds(bucket(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d outside its bucket [%v, %v)", v, lo, lo+width)
		}
	}
}

package main

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Hist is a log-linear histogram of non-negative integer samples
// (latencies in nanoseconds). Values below 2^subBits are counted
// exactly; above that every power of two is split into 2^subBits
// equal buckets, so a bucket is at most 1/128 of its values wide. The
// memory is fixed, which keeps the benchmark's own footprint out of
// peak_heap_mb however long a run is. Record is safe for concurrent
// use; read a histogram once its writers have stopped.
type Hist struct {
	counts [groups << subBits]atomic.Uint64
}

const (
	subBits = 7
	maxBits = 40 // samples are clamped below 2^40 ns (about 18 minutes)
	groups  = maxBits - subBits + 1
)

// bucket returns the bucket index of v.
func bucket(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<maxBits {
		v = 1<<maxBits - 1
	}
	u := uint64(v)
	if u < 1<<subBits {
		return int(u)
	}
	e := bits.Len64(u) - 1
	sub := (u >> (e - subBits)) & (1<<subBits - 1)
	return (e-subBits+1)<<subBits | int(sub)
}

// bounds returns the lowest value a bucket holds and its width.
func bounds(i int) (lo, width float64) {
	g, sub := i>>subBits, i&(1<<subBits-1)
	if g == 0 {
		return float64(sub), 1
	}
	shift := g - 1
	return float64(uint64(1<<subBits|sub) << shift), float64(uint64(1) << shift)
}

// Record adds one sample.
func (h *Hist) Record(v int64) { h.counts[bucket(v)].Add(1) }

// Count is the number of samples.
func (h *Hist) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile estimates the q-quantile under the nearest-rank definition:
// the sample of rank ceil(q*n) in sorted order. The estimate lies in
// the same bucket as that sample, placed by its rank among the
// bucket's samples. It is NaN for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lo, width := bounds(i)
		if width == 1 {
			return lo
		}
		return lo + width*(float64(rank-cum)-0.5)/float64(c)
	}
	return math.NaN() // unreachable: rank <= n
}

package main

import (
	"sort"
	"sync/atomic"
	"time"
)

// windows splits a measured phase into slices of equal length. The
// gated figures are medians over slices, so one retransmit stall or GC
// pause moves one slice rather than the run's figure. Deliveries that
// arrive after the last slice ends (the closing drain) are left out.
type windows struct {
	start, length int64
	lat           []Hist
	count         []atomic.Uint64 // correct deliveries handled in the slice

	// Written by the sampler goroutine only, read after it stopped.
	cpuNs []int64  // process CPU spent in the slice
	heap  []uint64 // Go heap peak in the slice
}

// sliceLen is the length of one slice.
const sliceLen = time.Second

func newWindows(start int64, d time.Duration) *windows {
	length := min(sliceLen, d)
	n := max(int(d/length), 1)
	return &windows{
		start:  start,
		length: int64(length),
		lat:    make([]Hist, n),
		count:  make([]atomic.Uint64, n),
		cpuNs:  make([]int64, n),
		heap:   make([]uint64, n),
	}
}

// index is the slice holding time at, or -1.
func (w *windows) index(at int64) int {
	if at < w.start {
		return -1
	}
	i := int((at - w.start) / w.length)
	if i >= len(w.count) {
		return -1
	}
	return i
}

// delivered counts a correct delivery handled at at, with its latency
// when timed.
func (w *windows) delivered(at, lat int64, timed bool) {
	i := w.index(at)
	if i < 0 {
		return
	}
	w.count[i].Add(1)
	if timed {
		w.lat[i].Record(lat)
	}
}

// latency is the median over slices of each slice's q-quantile, in ns,
// using the slices with at least minN samples (so that the quantile has
// samples beyond it), and the samples those slices hold.
func (w *windows) latency(q float64, minN uint64) (float64, uint64) {
	var vs []float64
	var n uint64
	for i := range w.lat {
		if c := w.lat[i].Count(); c >= minN {
			vs = append(vs, w.lat[i].Quantile(q))
			n += c
		}
	}
	return median(vs), n
}

// eps is the median over slices of correct deliveries per second.
func (w *windows) eps() float64 {
	vs := make([]float64, len(w.count))
	for i := range w.count {
		vs[i] = float64(w.count[i].Load()) / (float64(w.length) / 1e9)
	}
	return median(vs)
}

// cpuPerEvent is the median over slices of process CPU µs per correct
// delivery.
func (w *windows) cpuPerEvent() float64 {
	var vs []float64
	for i := range w.count {
		if c := w.count[i].Load(); c > 0 {
			vs = append(vs, float64(w.cpuNs[i])/1e3/float64(c))
		}
	}
	return median(vs)
}

// heapMB is the median over slices of the heap peak, in MiB.
func (w *windows) heapMB() float64 {
	vs := make([]float64, len(w.heap))
	for i, h := range w.heap {
		vs[i] = float64(h) / (1 << 20)
	}
	return median(vs)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return nan
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

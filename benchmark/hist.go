package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a fixed-memory log-bucketed histogram of non-negative int64
// samples (nanoseconds here). Values below 256 are counted exactly; above
// that a bucket keeps the top 8 significant bits, so a bucket is at most
// 1/128 of its lower bound wide and the midpoint a quantile reports is
// within 0.4 % of every sample in the bucket. Recording never allocates, so
// the load generator adds no per-sample heap and the stack's heap growth is
// the stack's alone. Not safe for concurrent use: each generator goroutine
// owns one and they are merged after the window.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

// 256 exact buckets, then 128 sub-buckets for each of the 56 remaining
// power-of-two ranges an int64 can reach.
const histBuckets = 256 + 56*128

func histIndex(v int64) int {
	if v < 256 {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 8
	return 256 + (shift-1)*128 + int(v>>shift) - 128
}

// histValue returns the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 256 {
		return float64(i)
	}
	i -= 256
	shift := i/128 + 1
	lo := int64(i%128+128) << shift
	return float64(lo) + float64(int64(1)<<shift)/2
}

func (h *hist) record(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value of the ceil(q*n)-th smallest sample (the
// definition the unit test checks against an exact sort), or 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// tailQuantile returns the quantile to report as "p99": 0.99 when at least
// ten samples lie beyond it, otherwise the highest quantile that still has
// ten samples beyond it (and the maximum when there are ten or fewer).
func (h *hist) tailQuantile() float64 {
	if h.n <= 10 {
		return 1
	}
	return math.Min(0.99, 1-10/float64(h.n))
}

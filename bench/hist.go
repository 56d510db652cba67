package main

import (
	"math/bits"
	"sort"
)

// hist is a log-bucket histogram of non-negative int64 samples
// (nanoseconds here): values below 64 have a bucket each, above that
// every power of two splits into 32 equal buckets, so a bucket is at
// most 1/32 of its lower bound wide. quantile interpolates inside the
// bucket, which keeps the error well under the 4 % hist_test.go allows.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits // buckets per power of two
	histBuckets = (64 - histSubBits) * histSub
)

func histBucket(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - (histSubBits + 1)
	return shift*histSub + int(v>>uint(shift))
}

// histBounds returns the lowest value of bucket b and the bucket width.
func histBounds(b int) (lo, width uint64) {
	if b < 2*histSub {
		return uint64(b), 1
	}
	shift := uint(b/histSub - 1)
	return uint64(b%histSub+histSub) << shift, 1 << shift
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(uint64(v))]++
	h.n++
}

func (h *hist) count() uint64 { return h.n }

// merge adds o's samples (nil = none).
func (h *hist) merge(o *hist) {
	if o == nil {
		return
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 ≤ q ≤ 1), 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := histBounds(b)
			return float64(lo) + float64(width)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return float64(lo + width)
}

// median of a float slice (0 when empty); sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram in nanoseconds: 2^subBits
// linear buckets per power of two, so a bucket is at most 1/128 of its
// value wide. It never clamps (any int64 fits) and never allocates
// after construction, so the timed loops can record into it freely.
type hist struct {
	counts []uint64
	n      uint64
	sum    int64 // total of the recorded values
}

const subBits = 7

func newHist() *hist { return &hist{counts: make([]uint64, 64<<subBits)} }

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)<<subBits + int(uint64(v)>>shift) - 1<<subBits
}

// bucketBounds returns the [lo, hi) value range of bucket b.
func bucketBounds(b int) (lo, hi float64) {
	if b < 1<<subBits {
		return float64(b), float64(b + 1)
	}
	shift := b>>subBits - 1
	m := b&(1<<subBits-1) + 1<<subBits
	return float64(uint64(m) << shift), float64(uint64(m+1) << shift)
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile, interpolating linearly by rank inside
// the bucket it falls in. ok is false when fewer than 10 samples lie
// beyond the quantile: such a tail is not measured, only guessed.
func (h *hist) quantile(q float64) (ns float64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := q * float64(h.n)
	ok = float64(h.n)-rank >= 10
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketBounds(b)
			return lo + (hi-lo)*(rank-seen)/float64(c), ok
		}
		seen += float64(c)
	}
	lo, _ := bucketBounds(len(h.counts) - 1)
	return lo, ok
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, the spread definition the benchmark's
// steadiness contract uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

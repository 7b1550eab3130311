package main

import (
	"math/bits"

	"farm/internal/sim"
)

// hist is a log-linear histogram of virtual durations with 128 linear
// sub-buckets per power of two, so a bucket is at most 0.8 % wide.
// internal/stats.Histogram is 4.4 % wide, which quantises a percentile
// into steps larger than a third of the bounds BENCHMARK.json sets; this
// one interpolates inside the bucket, records without allocating, and its
// size does not depend on the sample count, so it adds nothing to
// allocs_per_tx or live_heap_mb that grows with the run.
type hist struct {
	counts [(64 - subBits + 1) * sub]uint64
	n      uint64
	sum    sim.Time
}

const (
	subBits = 7
	sub     = 1 << subBits
)

func bucketOf(v uint64) int {
	if v < sub {
		return int(v)
	}
	shift := uint(bits.Len64(v)) - subBits - 1
	return int(shift+1)*sub + int(v>>shift) - sub
}

func (h *hist) record(d sim.Time) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
	h.sum += d
}

// percentile returns the p-th percentile in nanoseconds, interpolated
// linearly inside the bucket that holds it; 0 when there are no samples.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p / 100 * float64(h.n)
	var seen float64
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := bucketBounds(idx)
			return float64(lo) + (rank-seen)/float64(c)*float64(width)
		}
		seen += float64(c)
	}
	return 0
}

func bucketBounds(idx int) (lo, width uint64) {
	if idx < sub {
		return uint64(idx), 1
	}
	shift := uint(idx/sub - 1)
	return uint64(idx%sub+sub) << shift, 1 << shift
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }

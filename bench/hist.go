package main

import (
	"math"
	"math/bits"
	"time"
)

// The histogram is log-linear over nanoseconds: values below 128 ns land
// in unit-wide buckets, each further power of two is split into 128
// linear sub-buckets, so a bucket is never wider than 0.8 % of its
// values. Each bucket keeps the sum of its samples beside their count,
// and a percentile reports the mean of the samples in the bucket the
// rank falls in: a measured value with all its digits, not a bucket edge
// that two runs would print identically.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// hist records durations. It is not safe for concurrent use: each client
// goroutine owns one and the driver merges them after the run.
type hist struct {
	count [histBuckets]uint64
	sum   [histBuckets]uint64
	n     uint64
}

func histIndex(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	e := bits.Len64(ns) // >= histSubBits+1
	return (e-histSubBits)*histSub + int(ns>>(e-1-histSubBits)) - histSub
}

func (h *hist) record(d time.Duration) {
	ns := uint64(max(d, 0))
	i := histIndex(ns)
	h.count[i]++
	h.sum[i] += ns
	h.n++
}

func (h *hist) merge(o *hist) {
	for i := range o.count {
		h.count[i] += o.count[i]
		h.sum[i] += o.sum[i]
	}
	h.n += o.n
}

// percentile returns the q-th percentile (q in (0, 100]) in nanoseconds,
// 0 for an empty histogram.
func (h *hist) percentile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q / 100 * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for i, c := range h.count {
		seen += c
		if seen >= rank {
			return float64(h.sum[i]) / float64(c)
		}
	}
	return 0 // unreachable: the counts sum to n
}

func (h *hist) ms(q float64) float64 { return h.percentile(q) / 1e6 }

// percentileLadder lists the percentiles the bench reports, ascending,
// in per mille so that the sample-count rule is integer arithmetic.
var percentileLadder = []uint64{500, 900, 950, 990, 999}

// tailPercentile returns the highest ladder percentile that still has at
// least ten of n samples beyond it; a percentile with fewer is decided
// by a handful of requests and is not reported. With fewer than twenty
// samples even the median fails the rule and 50 is returned.
func tailPercentile(n uint64) float64 {
	best := percentileLadder[0]
	for _, pm := range percentileLadder {
		if n*(1000-pm)/1000 >= 10 {
			best = pm
		}
	}
	return float64(best) / 10
}

package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is noise.
const minBeyond = 10

// sortedDurations returns a sorted copy of ds.
func sortedDurations(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// supportedPercentile returns the highest percentile, at most want, whose
// nearest-rank sample still has minBeyond samples above it in a sample of
// n. It returns 0 when even the smallest sample lacks that support.
func supportedPercentile(want float64, n int) float64 {
	if n-1-rankIndex(want, n) >= minBeyond {
		return want
	}
	k := n - 1 - minBeyond
	if k < 0 {
		return 0
	}
	return 100 * float64(k+1) / float64(n)
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(p, len(sorted))]
}

// tail returns the sample at percentile want, lowered to the highest
// percentile the sample count supports; used reports the percentile taken.
func tail(sorted []time.Duration, want float64) (v time.Duration, used float64) {
	used = supportedPercentile(want, len(sorted))
	return percentile(sorted, used), used
}

// medianFloat returns the median of xs (the mean of the middle pair for an
// even count).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// meanDuration returns the mean of ds, 0 for none.
func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

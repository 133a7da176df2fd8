package main

import (
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		want float64
		n    int
		got  float64
	}{
		{90, 100, 90},  // rank 90 of 100: exactly ten samples beyond
		{90, 1000, 90}, // plenty of support
		{90, 99, 89.9}, // rank 89 of 99 leaves nine beyond: drop to rank 88
		{90, 80, 87.5}, // a round of about 80 batches supports p87.5
		{50, 30, 50},   // the median of 30 has fourteen beyond
		{99, 500, 98},  // p99 needs a thousand samples
		{90, 11, 9.09}, // only the smallest sample has ten beyond it
		{90, 10, 0},    // nothing has ten beyond it
	} {
		got := supportedPercentile(tc.want, tc.n)
		if got < tc.got-0.01 || got > tc.got+0.01 {
			t.Errorf("supportedPercentile(%v, %d) = %v, want %v", tc.want, tc.n, got, tc.got)
		}
		if got > 0 {
			k := rankIndex(got, tc.n)
			if beyond := tc.n - 1 - k; beyond < minBeyond {
				t.Errorf("n=%d: p%v has %d samples beyond, want ≥ %d", tc.n, got, beyond, minBeyond)
			}
		}
	}
}

func TestTail(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s := sortedDurations(ds)
	if v, used := tail(s, 90); v != 90*time.Millisecond || used != 90 {
		t.Errorf("tail(1..100ms, 90) = %v at p%v, want 90ms at p90", v, used)
	}
	if v, used := tail(s[:80], 90); v != 70*time.Millisecond || used != 87.5 {
		t.Errorf("tail(1..80ms, 90) = %v at p%v, want 70ms at p87.5", v, used)
	}
	if v := percentile(s, 50); v != 50*time.Millisecond {
		t.Errorf("median of 1..100ms = %v, want 50ms", v)
	}
}

func TestCalmerHalf(t *testing.T) {
	var rounds []*roundResult
	for _, st := range []float64{12, 0.5, 30, 3, 0.5} {
		rounds = append(rounds, &roundResult{steal: st})
	}
	kept := calmerHalf(rounds)
	if len(kept) != 3 || kept[0] != rounds[1] || kept[1] != rounds[4] || kept[2] != rounds[3] {
		t.Fatalf("kept steals %v, %v, %v; want rounds 1, 4, 3", kept[0].steal, kept[1].steal, kept[2].steal)
	}
	if len(calmerHalf(rounds[:1])) != 1 || len(calmerHalf(rounds[:2])) != 1 {
		t.Fatal("one round, or the calmer of two, must be kept")
	}
	if rounds[0].steal != 12 {
		t.Fatal("calmerHalf reordered its input")
	}
}

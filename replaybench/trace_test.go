package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "driver.batch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "wal.log", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "engine.append", Start: 30, End: 70},
		{ID: 4, Parent: 3, Name: "inner", Start: 40, End: 50},
		// Overlapping children count once: 60..90 and 80..95 cover 35.
		{ID: 5, Name: "driver.query", Start: 50, End: 100},
		{ID: 6, Parent: 5, Name: "a", Start: 60, End: 90},
		{ID: 7, Parent: 5, Name: "b", Start: 80, End: 95},
		// A child running past its parent only counts inside it.
		{ID: 8, Name: "root", Start: 0, End: 10},
		{ID: 9, Parent: 8, Name: "late", Start: 5, End: 20},
	}
	want := []time.Duration{40, 20, 30, 10, 15, 30, 15, 5, 15}
	got := selfTimes(spans)
	for i := range spans {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
}

func TestSummarizeAndLayers(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "driver.batch", Start: 0, End: 1e6},
		{ID: 2, Parent: 1, Name: "wal.log", Start: 0, End: 4e5},
		{ID: 3, Name: "driver.batch", Start: 2e6, End: 3e6},
		{ID: 4, Parent: 3, Name: "wal.log", Start: 2e6, End: 2.2e6},
	}
	sums := summarize(spans)
	if len(sums) != 2 || sums[0].Name != "driver.batch" {
		t.Fatalf("summary %+v", sums)
	}
	if d := sums[0]; d.Count != 2 || d.TotalMS != 2 || d.SelfMS < 1.3999 || d.SelfMS > 1.4001 || d.MeanMS != 1 {
		t.Errorf("driver.batch %+v, want count 2 total 2 self 1.4 mean 1", d)
	}
	if w := sums[1]; w.SelfMS < 0.5999 || w.SelfMS > 0.6001 || w.Count != 2 {
		t.Errorf("wal.log %+v, want self 0.6 over 2", w)
	}
	if l := (span{Name: "wal.log"}).layer(); l != "wal" {
		t.Errorf("layer of wal.log = %q", l)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.open("x", 0, batchRef(1, 0))
	tr.close(id)
	tr.rename(id, "y")
	tr.add("s", 0, 0, 1)
	if id != 0 || tr.durations("x") != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

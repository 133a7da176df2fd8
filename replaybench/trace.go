package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// ref names the unit of work a span served: a batch by its sequence or a
// query by its id, on one cluster member (node 0 outside cluster-3node).
type ref struct {
	Kind string `json:"kind"` // "batch" or "query"
	Seq  int    `json:"seq"`
	Node int    `json:"node"`
}

func batchRef(seq, node int) ref { return ref{Kind: "batch", Seq: seq, Node: node} }
func queryRef(id, node int) ref  { return ref{Kind: "query", Seq: id, Node: node} }

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	ref
	Start int64 `json:"start_ns"` // since the tracer started
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span timed: the part of its name before the dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// point is one sample of a per-batch or per-checkpoint series.
type point struct {
	Round int   `json:"round"`
	Node  int   `json:"node"`
	Index int   `json:"index"`
	Value int64 `json:"value"`
}

// tracer keeps spans and series in memory until the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
// Cluster nodes ingest on their own goroutines, hence the mutex.
type tracer struct {
	t0     time.Time
	round  int // traced round being replayed, set between rounds
	mu     sync.Mutex
	spans  []span
	series map[string][]point
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), series: map[string][]point{}}
}

// open starts a span and returns its id (0 when tracing is off).
func (t *tracer) open(name string, parent int, r ref) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, ref: r, Start: now})
	return len(t.spans)
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// rename relabels span id, for a call whose layer is known only after it
// returns (an Applied that wrote a checkpoint).
func (t *tracer) rename(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// add appends one sample to a named series.
func (t *tracer) add(series string, node, index int, value int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.series[series] = append(t.series[series], point{Round: t.round, Node: node, Index: index, Value: value})
	t.mu.Unlock()
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (concurrent
// work under one parent) count once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[s.ID] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[i] = s.dur() - time.Duration(covered(iv))
	}
	return out
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	MeanMS  float64 `json:"mean_ms"`
}

// summarize totals duration and self time per span name, sorted by self
// time, largest first.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	for i, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalMS += ms(s.dur())
		sum.SelfMS += ms(self[i])
	}
	out := make([]spanSummary, 0, len(byName))
	for _, sum := range byName {
		sum.MeanMS = sum.TotalMS / float64(sum.Count)
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/geojson"
	"repro/internal/trajectory"
)

// Query shapes, gatherserve's four read paths in rotation:
//
//	/crowds                          every closed crowd
//	/gatherings                      crowds holding a gathering
//	/crowds?from=…&to=…              a 48-tick window ending at or before the frontier
//	/gatherings?bbox=…               a 5 km box anywhere in the city
const (
	windowTicks = 48
	bboxSide    = 5000
)

// makeQuery returns query id's shape with parameters drawn from rng.
func makeQuery(id int, rng *rand.Rand, frontier int, area float64) engine.Query {
	switch id % 4 {
	case 0:
		return engine.Query{}
	case 1:
		return engine.Query{GatheringsOnly: true}
	case 2:
		to := 0
		if frontier > 0 {
			to = rng.Intn(frontier)
		}
		return engine.Query{Window: &engine.TickWindow{From: trajectory.Tick(to - windowTicks + 1), To: trajectory.Tick(to)}}
	default:
		x, y := rng.Float64()*(area-bboxSide), rng.Float64()*(area-bboxSide)
		return engine.Query{GatheringsOnly: true, Bounds: &geo.Rect{MinX: x, MinY: y, MaxX: x + bboxSide, MaxY: y + bboxSide}}
	}
}

// countingWriter stands in for the HTTP response body: it counts the
// GeoJSON bytes and keeps none.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// querier runs one query the way gatherserve's serveQuery does and
// returns the GeoJSON size.
type querier func(id, parent int, q engine.Query) (int64, error)

// localQuerier answers from one engine: Engine.Snapshot, then
// geojson.Export. A snapshot is cold when the engine applied a task since
// the previous query, so it pays the cross-shard merge.
func localQuerier(eng *engine.Engine, tr *tracer) querier {
	var lastApplied uint64
	return func(id, parent int, q engine.Query) (int64, error) {
		r := queryRef(id, 0)
		applied := eng.Counters().TasksApplied.Load()
		name := "engine.snapshot_warm"
		if applied != lastApplied {
			name = "engine.snapshot_cold"
			lastApplied = applied
		}
		s := tr.open(name, parent, r)
		res := eng.Snapshot(q)
		tr.close(s)
		return export(res, tr, parent, r)
	}
}

// clusterQuerier answers by scatter-gather from coordinator n. A partial
// answer is an error: every member is up in this benchmark.
func clusterQuerier(n *cluster.Node, idx int, tr *tracer) querier {
	return func(id, parent int, q engine.Query) (int64, error) {
		r := queryRef(id, idx)
		s := tr.open("cluster.query", parent, r)
		res, meta := n.Query(context.Background(), q)
		tr.close(s)
		if len(meta.Unreachable) > 0 {
			return 0, fmt.Errorf("query %d: partial answer, unreachable %v", id, meta.Unreachable)
		}
		return export(res, tr, parent, r)
	}
}

func export(res *engine.Result, tr *tracer, parent int, r ref) (int64, error) {
	var w countingWriter
	s := tr.open("geojson.export", parent, r)
	err := geojson.Export(&w, res.Crowds, res.Gatherings, nil)
	tr.close(s)
	return w.n, err
}

// queryLoad is what one query issuer recorded.
type queryLoad struct {
	lat    []time.Duration // from due time until the GeoJSON is written
	cpu    []time.Duration // the issuing thread's CPU time per query
	late   []time.Duration // how late the issuer reached each due time
	bytes  int64
	failed int64
}

// issue runs queries on p's schedule until stop is closed; the query due
// when stop closes is not sent. Run it on its own goroutine; it signals wg.
func (l *queryLoad) issue(p *pacer, stop <-chan struct{}, wg *sync.WaitGroup, rng *rand.Rand,
	frontier func() int, area float64, run querier, tr *tracer, node int) {
	defer wg.Done()
	runtime.LockOSThread() // per-query CPU is read from this thread's clock
	defer runtime.UnlockOSThread()
	for id := 0; ; id++ {
		select {
		case <-stop:
			return
		default:
		}
		due, late := p.wait(id)
		select {
		case <-stop:
			return
		default:
		}
		q := makeQuery(id, rng, frontier(), area)
		l.one(id, due, late, q, run, tr, node)
	}
}

// one runs a single query due at due and records it. The caller's
// goroutine must be locked to its thread: the query's CPU time is read
// from the thread's clock, which the hypervisor's steal does not advance.
// A query runs wholly on its caller (Snapshot's merge and the export).
func (l *queryLoad) one(id int, due time.Time, late time.Duration, q engine.Query, run querier, tr *tracer, node int) {
	root := tr.open("driver.query", 0, queryRef(id, node))
	cpu0 := threadCPU()
	n, err := run(id, root, q)
	l.cpu = append(l.cpu, threadCPU()-cpu0)
	tr.close(root)
	l.lat = append(l.lat, time.Since(due))
	l.late = append(l.late, late)
	l.bytes += n
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "replaybench: %v\n", err)
	}
}

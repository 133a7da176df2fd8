// Package engine is the concurrent streaming layer over the paper's
// §III-C incremental algorithm: a thread-safe discovery service that
// ingests trajectory batches while answering snapshot queries.
//
// An Engine owns one incremental.Store fed through a bounded batch queue:
// Append blocks when it is full (backpressure), TryAppend refuses instead.
// One applier goroutine takes the batches off the queue in order, builds
// each batch's snapshot clusters with per-tick parallelism across Workers
// goroutines, and applies the result to the store under the write lock —
// so the engine computes exactly what a single store fed the same batches
// computes, by construction.
//
// The store extends persistent state rather than rebuilding it: crowds are
// prefix-sharing persistent structures (O(1) extension per cluster), each
// live tail crowd's gathering detector grows by exactly the batch's ticks,
// and the discovery sweep, DBSCAN and grid-index scratch are pooled — so
// steady-state per-batch cost is proportional to the batch, not the stream
// age (§III-C, Theorem 2; BenchmarkIncrementalAppend pins this flat).
//
// Queries read the store's cached closed crowds and gatherings under the
// read lock, so each answer is consistent with a whole number of applied
// batches. Snapshot results are detached crowd handles sharing immutable
// cluster data with the store.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/incremental"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trajectory"
)

// Config configures an Engine.
type Config struct {
	// Pipeline carries the discovery thresholds (DBSCAN, crowd and
	// gathering parameters, searcher scheme).
	Pipeline core.Config

	// Workers is the build parallelism: each batch's snapshot clusters
	// are built by up to Workers goroutines, one tick at a time. Zero
	// means one.
	Workers int

	// QueueDepth bounds the ingest queue in batches. Zero means 4.
	QueueDepth int

	// ApplyFault, when non-nil, is called with the apply sequence number
	// (0 for the first batch taken off the queue) before every store
	// apply, under the write lock — a fault-injection hook for the chaos
	// harness (internal/chaos). A panic it raises is recovered and
	// quarantines the store instead of crashing the process. Production
	// configurations leave it nil.
	ApplyFault func(seq uint64)
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4
	}
	return c
}

// Validate reports the first configuration error, after defaulting.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Pipeline.Validate(); err != nil {
		return err
	}
	if c.Workers < 1 {
		return fmt.Errorf("engine: Workers must be ≥ 1, got %d", c.Workers)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("engine: QueueDepth must be ≥ 1, got %d", c.QueueDepth)
	}
	return nil
}

// Errors returned by the ingest side.
var (
	// ErrQueueFull is returned by TryAppend when the ingest queue is full.
	ErrQueueFull = errors.New("engine: ingest queue full")
	// ErrClosed is returned by Append and TryAppend after Close.
	ErrClosed = errors.New("engine: closed")
)

// Engine is the concurrent streaming-discovery service. Create one with
// New; all methods are safe for concurrent use.
type Engine struct {
	cfg Config

	// mu guards the store: queries take RLock, the applier takes Lock.
	//gather:lock store
	mu sync.RWMutex
	//gather:guardedby store
	store *incremental.Store
	// quarantined marks a store whose apply panicked: it may be
	// half-mutated, so later batches are discarded, snapshots return
	// nothing and SaveState refuses. LoadState clears it.
	//gather:guardedby store
	quarantined bool
	// ticks counts the ticks of every applied batch, discarded ones
	// included, so the frontier keeps pace with the stream even while
	// quarantined. Lock-free for Ticks.
	ticks atomic.Int64

	// qmu guards the bounded batch queue. qcond is broadcast whenever a
	// batch enters or leaves the queue, finishes applying, or Close runs;
	// appenders, the applier and Flush all wait on it.
	//gather:lock queue
	qmu   sync.Mutex
	qcond *sync.Cond
	//gather:guardedby queue
	queue []*trajectory.DB
	//gather:guardedby queue
	pending int // batches queued or being applied, for Flush
	//gather:guardedby queue
	closed bool

	wg       sync.WaitGroup
	counters stats.EngineCounters
}

// New creates an engine and starts its applier.
func New(cfg Config) (*Engine, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// newEngine builds the engine without starting the applier; tests use it
// to exercise queue backpressure deterministically.
func newEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := incremental.New(
		crowd.Params{MC: cfg.Pipeline.MC, KC: cfg.Pipeline.KC, Delta: cfg.Pipeline.Delta},
		gathering.Params{KC: cfg.Pipeline.KC, KP: cfg.Pipeline.KP, MP: cfg.Pipeline.MP},
		cfg.Pipeline.SearcherFactory(),
	)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, store: st}
	e.qcond = sync.NewCond(&e.qmu)
	return e, nil
}

// start launches the applier goroutine.
func (e *Engine) start() {
	e.wg.Add(1)
	go e.run()
}

// run is the applier: it applies queued batches in order until the engine
// is closed and the queue drained.
func (e *Engine) run() {
	defer e.wg.Done()
	for seq := uint64(0); ; seq++ {
		batch, ok := e.next()
		if !ok {
			return
		}
		e.apply(seq, batch)
		e.qmu.Lock()
		e.pending--
		e.qcond.Broadcast()
		e.qmu.Unlock()
	}
}

// next takes the oldest batch off the queue, waiting for one; ok is false
// once the engine is closed and the queue is empty.
func (e *Engine) next() (batch *trajectory.DB, ok bool) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	for len(e.queue) == 0 {
		if e.closed {
			return nil, false
		}
		e.qcond.Wait()
	}
	batch = e.queue[0]
	e.queue[0] = nil
	e.queue = e.queue[1:]
	e.qcond.Broadcast() // a slot is free
	return batch, true
}

// Append enqueues the batch, blocking while the ingest queue is full
// (backpressure). The batch covers the next batch.Domain.N ticks;
// concurrent Append calls are admitted one at a time, in lock-acquisition
// order. The engine keeps reading the batch after Append returns (it is
// clustered asynchronously), so callers must not mutate it.
//
//gather:blocking
func (e *Engine) Append(batch *trajectory.DB) error { return e.enqueue(batch, true) }

// TryAppend is Append without the blocking: it returns ErrQueueFull when
// the queue is full.
func (e *Engine) TryAppend(batch *trajectory.DB) error { return e.enqueue(batch, false) }

//gather:blocking
func (e *Engine) enqueue(batch *trajectory.DB, wait bool) error {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	for !e.closed && len(e.queue) >= e.cfg.QueueDepth {
		if !wait {
			e.counters.BatchesRejected.Add(1)
			return ErrQueueFull
		}
		e.qcond.Wait()
	}
	if e.closed {
		return ErrClosed
	}
	e.queue = append(e.queue, batch)
	e.pending++
	e.qcond.Broadcast()
	e.counters.BatchesEnqueued.Add(1)
	e.counters.TicksIngested.Add(uint64(batch.Domain.N))
	return nil
}

// apply builds one batch's snapshot clusters outside any lock, then
// appends them to the store under the write lock.
func (e *Engine) apply(seq uint64, batch *trajectory.DB) {
	cdb := snapshot.Build(batch, e.cfg.Pipeline.SnapshotOptions(e.cfg.Workers))
	e.counters.ClustersBuilt.Add(uint64(cdb.NumClusters()))

	e.mu.Lock()
	if !e.quarantined && !e.appendStore(seq, cdb) {
		e.quarantined = true
		e.counters.ApplyPanics.Add(1)
	}
	e.ticks.Add(int64(cdb.Domain.N))
	e.mu.Unlock()
	e.counters.TasksApplied.Add(1)
}

// appendStore feeds one batch to the store and reports whether it
// completed: a panic — an injected fault or real corruption — is
// recovered and reported as false, and the caller quarantines the store.
// Called with the write lock held.
func (e *Engine) appendStore(seq uint64, cdb *snapshot.CDB) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	if f := e.cfg.ApplyFault; f != nil {
		f(seq)
	}
	e.store.Append(cdb)
	return true
}

// Quarantined reports whether a recovered apply panic retired the store.
// Its data is then excluded from snapshots and checkpoints until a
// checkpoint restore (LoadState) replaces it.
func (e *Engine) Quarantined() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.quarantined
}

// Ticks returns the number of ticks applied — the engine's ingested
// frontier. Batches still in the queue are not counted.
func (e *Engine) Ticks() int { return int(e.ticks.Load()) }

// Flush blocks until every batch enqueued before the call has been
// applied.
//
//gather:blocking
func (e *Engine) Flush() {
	e.qmu.Lock()
	for e.pending > 0 {
		e.qcond.Wait()
	}
	e.qmu.Unlock()
}

// Close stops accepting batches, applies the ones already queued and
// stops the applier. It is idempotent; queries remain valid after Close.
//
//gather:blocking
func (e *Engine) Close() {
	e.qmu.Lock()
	e.closed = true
	e.qcond.Broadcast() // wake parked appenders; they return ErrClosed
	e.qmu.Unlock()
	e.wg.Wait()
}

// Counters exposes the engine's live ingest/query counters.
func (e *Engine) Counters() *stats.EngineCounters { return &e.counters }

// TickWindow is an inclusive tick interval.
type TickWindow struct {
	From, To trajectory.Tick
}

// Query selects closed crowds (and their gatherings) from the engine's
// current state. The zero Query matches everything.
type Query struct {
	// Window keeps only crowds whose tick span overlaps it. Nil matches
	// all ticks.
	Window *TickWindow
	// Bounds keeps only crowds that pass through it: at least one of
	// their clusters' MBRs intersects the rectangle. Nil matches
	// everywhere.
	Bounds *geo.Rect
	// GatheringsOnly drops crowds with no closed gathering.
	GatheringsOnly bool
	// Limit caps the number of crowds returned; zero means no cap.
	Limit int
}

// Matches reports whether cr passes the query's window and bounds filters.
func (q Query) Matches(cr *crowd.Crowd) bool {
	if q.Window != nil && (cr.Start > q.Window.To || cr.End() < q.Window.From) {
		return false
	}
	if q.Bounds == nil {
		return true
	}
	// Cluster MBRs are cached, so this is a rect-intersection scan that
	// stops at the first hit — for matching crowds usually the first
	// cluster.
	for _, c := range cr.Clusters() {
		if c.MBR().Intersects(*q.Bounds) {
			return true
		}
	}
	return false
}

// Result is one snapshot answer: the matching closed crowds with their
// gatherings, parallel slices as in core.Discovery.
type Result struct {
	// Ticks is the number of ticks the store had applied when it was
	// read; no crowd extends past it.
	Ticks int
	// Crowds are detached copies: safe to hold while ingestion continues.
	// They are sorted by CompareCrowds, so Query.Limit always truncates
	// the same way.
	Crowds     []*crowd.Crowd
	Gatherings [][]*gathering.Gathering
}

// AllGatherings flattens the per-crowd gathering lists.
func (r *Result) AllGatherings() []*gathering.Gathering {
	var out []*gathering.Gathering
	for _, gs := range r.Gatherings {
		out = append(out, gs...)
	}
	return out
}

// byCrowd sorts a Result's parallel slices by CompareCrowds.
type byCrowd struct{ *Result }

func (r byCrowd) Len() int           { return len(r.Crowds) }
func (r byCrowd) Less(i, j int) bool { return CompareCrowds(r.Crowds[i], r.Crowds[j]) < 0 }
func (r byCrowd) Swap(i, j int) {
	r.Crowds[i], r.Crowds[j] = r.Crowds[j], r.Crowds[i]
	r.Gatherings[i], r.Gatherings[j] = r.Gatherings[j], r.Gatherings[i]
}

// Snapshot answers a query against the current state. The store's cached
// crowds are filtered under the read lock, then sorted and truncated to
// Query.Limit. A quarantined store answers nothing. The returned crowds
// are detached from the ingest path; clusters and gatherings are
// immutable and shared.
func (e *Engine) Snapshot(q Query) *Result {
	res := &Result{}
	e.mu.RLock()
	if !e.quarantined {
		res.Ticks = e.store.Ticks()
		gathers := e.store.Gatherings()
		for i, cr := range e.store.Crowds() {
			if q.GatheringsOnly && len(gathers[i]) == 0 || !q.Matches(cr) {
				continue
			}
			res.Crowds = append(res.Crowds, cr)
			res.Gatherings = append(res.Gatherings, gathers[i])
		}
	}
	e.mu.RUnlock()
	sort.Sort(byCrowd{res})
	if q.Limit > 0 && len(res.Crowds) > q.Limit {
		res.Crowds, res.Gatherings = res.Crowds[:q.Limit], res.Gatherings[:q.Limit]
	}

	e.counters.Queries.Add(1)
	e.counters.CrowdsReturned.Add(uint64(len(res.Crowds)))
	ngs := 0
	for _, gs := range res.Gatherings {
		ngs += len(gs)
	}
	e.counters.GatheringsReturned.Add(uint64(ngs))
	return res
}

// CompareCrowds orders crowds deterministically: by start tick, lifetime,
// then per-tick membership (size, then object IDs). It returns 0 only for
// crowds with identical spans and memberships. Snapshot sorts with it, and
// so does the cluster read path after merging the nodes' answers, so both
// truncate Query.Limit the same way.
func CompareCrowds(a, b *crowd.Crowd) int {
	if a.Start != b.Start {
		if a.Start < b.Start {
			return -1
		}
		return 1
	}
	if la, lb := a.Lifetime(), b.Lifetime(); la != lb {
		if la < lb {
			return -1
		}
		return 1
	}
	aCls, bCls := a.Clusters(), b.Clusters()
	for i := range aCls {
		ca, cb := aCls[i], bCls[i]
		if ca.Len() != cb.Len() {
			if ca.Len() < cb.Len() {
				return -1
			}
			return 1
		}
		for k := range ca.Objects {
			if ca.Objects[k] != cb.Objects[k] {
				if ca.Objects[k] < cb.Objects[k] {
					return -1
				}
				return 1
			}
		}
	}
	return 0
}

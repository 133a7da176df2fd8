package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/trajectory"
)

// Workload shapes. The paced periods sit at about half of what a 2-CPU
// host sustains at the heaviest point of each stream (late in the stream,
// where state and query results are largest), so the schedule leaves
// headroom for a noisy host and a slower build shows as lag before it shows
// as backlog.
const (
	burstBatch = 12 // ticks per batch
	burstReads = 16 // closed-loop reads after each day's burst

	weekBatch        = 24 // gatherserve's -batch default
	weekSetupReps    = 3  // a week has few rounds per run, so setup and
	weekRecoveryReps = 3  // restart are each measured three times a round
	weekBatchPeriod  = 100 * time.Millisecond
	weekQueryPeriod  = 5 * time.Millisecond // 200 queries/s

	clusterBatch       = 12
	clusterBatchPeriod = 200 * time.Millisecond
	clusterQueryPeriod = 50 * time.Millisecond // 20 scatter-gather reads/s
)

// burstCityConfig is a dense 6000-taxi day in a 40 km city with four times
// the default incident counts, shaped like the repository's dense bench day.
func burstCityConfig(seed int64) gen.Config {
	g := gen.Default()
	g.Seed = seed
	g.NumTaxis = 6000
	g.AreaSize = 40000
	g.TicksPerDay = 96
	g.NumHotspots = 48
	g.JamsPerRegime = [3]int{24, 8, 4}
	g.DropGoPerRegime = [3]int{8, 8, 24}
	g.PlatoonsPerRegime = [3]int{20, 4, 16}
	denseShapes(&g)
	return g
}

// serveWeekConfig is gen.Default's 600-taxi, 288-tick day, seven times.
func serveWeekConfig(seed int64) gen.Config {
	g := gen.Default()
	g.Seed = seed
	g.Days = 7
	return g
}

// clusterConfig is the dense bench regime (1500 taxis, 96-tick days) for
// two days.
func clusterConfig(seed int64) gen.Config {
	g := gen.Default()
	g.Seed = seed
	g.NumTaxis = 1500
	g.TicksPerDay = 96
	g.Days = 2
	denseShapes(&g)
	return g
}

// denseShapes sets the dense bench day's incident shapes.
func denseShapes(g *gen.Config) {
	g.JamCommitted = 120
	g.JamChurn = 60
	g.DropGoVisitors = 100
	g.PlatoonSize = 40
}

// roundSeed derives round i's input seed from the run seed (splitmix64),
// so every round of a run replays different data and every run with the
// same seed replays the same.
func roundSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 1
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64((x ^ (x >> 31)) >> 1)
}

// roundResult is what one round — one generated stream through a fresh
// pipeline — measured.
type roundResult struct {
	setup    time.Duration // inputs generated and pipeline built
	setupCPU time.Duration // process CPU time of the same
	timed    time.Duration // first batch due until the round's traffic ended
	points   int64         // object-samples offered: objects × ticks per batch
	ingest   time.Duration // first Offer until the final Flush returned
	lags     []time.Duration
	late     []time.Duration // feed lateness per batch
	queries  queryLoad
	recovery time.Duration // restart until ready
	recCPU   time.Duration // process CPU time of the restart
	cpu      time.Duration
	heap     uint64
	steal    float64 // % of the VM's CPU time the hypervisor took during the round

	attempted, failed int64

	// Counts for the traced run. Each repeats exactly for a given seed.
	counters stats.EngineCounterSnapshot // summed over nodes
	deduped  uint64                      // merge of the final state, on the recovered engines
	stitched uint64
	replayed uint64
	dropped  int64
	cluster  stats.ClusterCounterSnapshot // the ingest front's
	fwdBytes int64
	want     gatheringSet     // core.Discover's answer
	batches  []*trajectory.DB // the stream, for the traced layer split
}

// run is one benchmark invocation's shared state.
type run struct {
	seed int64
	work string  // durability files of every round live under here
	tr   *tracer // nil for an untraced round
}

// keep holds on to a traced round's batches for the layer split; an
// untraced run lets each round's inputs go, so they never count in a later
// round's heap.
func (r *run) keep(rr *roundResult, batches []*trajectory.DB) {
	if r.tr != nil {
		rr.batches = batches
	}
}

// freshDir makes an empty durability directory for one pipeline.
func (r *run) freshDir(name string) (string, error) {
	return os.MkdirTemp(r.work, name+"-")
}

// stream is one round's generated input and the fresh pipeline it feeds.
type stream struct {
	cfg     gen.Config
	db      *trajectory.DB
	batches []*trajectory.DB
	dir     string
	n       *node
}

// setupSingle generates a round's input and builds a fresh standalone
// pipeline for it, reps times, keeping the last: setup is short, so one
// round measures it several times and records the medians of its wall and
// CPU time.
func setupSingle(r *run, rr *roundResult, cfg gen.Config, ticksPerBatch, reps int, name string) (*stream, error) {
	var took, cpu []float64
	var st *stream
	for k := 0; k < reps; k++ {
		if st != nil {
			st.n.crash()
			os.RemoveAll(st.dir)
		}
		settle()
		t0, cpu0 := time.Now(), cpuTime()
		st = &stream{cfg: cfg, db: gen.Generate(cfg)}
		st.batches = st.db.Batches(ticksPerBatch)
		dir, err := r.freshDir(name)
		if err != nil {
			return nil, err
		}
		st.dir = dir
		if st.n, err = openNode(dir, 0, ticksPerBatch, r.tr); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
		cpu = append(cpu, (cpuTime() - cpu0).Seconds())
	}
	rr.setup, rr.setupCPU = seconds(medianFloat(took)), seconds(medianFloat(cpu))
	return st, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// burstCity replays one dense day, closed loop with no readers, then reads
// the result back, shuts down cleanly (final checkpoint) and restarts.
func burstCity(r *run, day int) (*roundResult, error) {
	rr := &roundResult{}
	seed := roundSeed(r.seed, day)
	st, err := setupSingle(r, rr, burstCityConfig(seed), burstBatch, 1, "burst")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(st.dir)
	n := st.n

	vis := newVisibility(len(st.batches), n.eng.Ticks)
	go vis.watch()
	settle()
	cpu0 := cpuTime()
	start := time.Now()
	if err := feed(n, st.batches, newPacer(start, 0), vis, r.tr, rr); err != nil {
		vis.abort()
		n.crash()
		return nil, err
	}
	rr.ingest = time.Since(start)
	vis.wait()

	rng := rand.New(rand.NewSource(seed))
	read := localQuerier(n.eng, r.tr)
	p := newPacer(time.Now(), 0)
	runtime.LockOSThread() // per-query CPU is read from this thread's clock
	for id := 0; id < burstReads; id++ {
		due, late := p.wait(id)
		rr.queries.one(id, due, late, makeQuery(id, rng, n.eng.Ticks(), st.cfg.AreaSize), read, r.tr, 0)
		p.complete()
	}
	runtime.UnlockOSThread()
	gc0 := cpuTime()
	rr.heap = liveHeap()
	cpu0 += cpuTime() - gc0 // the forced collection is the benchmark's, not the pipeline's
	if err := n.shutdown(len(st.batches)); err != nil {
		return nil, err
	}
	rr.timed = time.Since(start)
	rr.cpu = cpuTime() - cpu0
	rr.lags = vis.lags()
	r.keep(rr, st.batches)
	return rr, finishSingle(r, rr, st, 1)
}

// serveWeek replays a seven-day stream on a fixed schedule while one
// issuer reads on its own schedule, then crashes and recovers.
func serveWeek(r *run, round int) (*roundResult, error) {
	rr := &roundResult{}
	seed := roundSeed(r.seed, round)
	st, err := setupSingle(r, rr, serveWeekConfig(seed), weekBatch, weekSetupReps, "week")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(st.dir)
	n := st.n

	vis := newVisibility(len(st.batches), n.eng.Ticks)
	go vis.watch()
	settle()
	cpu0 := cpuTime()
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	rng := rand.New(rand.NewSource(seed))
	go rr.queries.issue(newPacer(start, weekQueryPeriod), stop, &wg, rng, n.eng.Ticks, st.cfg.AreaSize, localQuerier(n.eng, r.tr), r.tr, 0)
	err = feed(n, st.batches, newPacer(start, weekBatchPeriod), vis, r.tr, rr)
	if err != nil {
		vis.abort()
	} else {
		rr.ingest = time.Since(start)
		vis.wait()
	}
	close(stop)
	wg.Wait()
	if err != nil {
		n.crash()
		return nil, err
	}
	rr.timed = time.Since(start)
	rr.cpu = cpuTime() - cpu0
	rr.heap = liveHeap()
	n.crash()
	rr.lags = vis.lags()
	r.keep(rr, st.batches)
	return rr, finishSingle(r, rr, st, weekRecoveryReps)
}

// feed drives one standalone pipeline through batches on p's schedule,
// as gatherserve's feed loop does, and flushes it.
func feed(n *node, batches []*trajectory.DB, p *pacer, vis *visibility, tr *tracer, rr *roundResult) error {
	ticks := 0
	for i, b := range batches {
		due, late := p.wait(i)
		ticks += b.Domain.N
		vis.publish(i, due, ticks)
		root := tr.open("driver.batch", 0, batchRef(i, 0))
		err := n.ingest(i, b, root)
		tr.close(root)
		p.complete()
		rr.late = append(rr.late, late)
		rr.points += int64(len(b.Trajs) * b.Domain.N)
		rr.attempted++
		if err != nil {
			return err
		}
	}
	if err := n.drain(); err != nil {
		return err
	}
	n.flush(len(batches))
	rr.dropped = n.dropped()
	rr.failed += rr.dropped
	rr.counters = n.eng.Counters().Snapshot()
	return nil
}

// finishSingle runs the correctness gate and the restart for a standalone
// round, outside the timed region: the live engine's and the restarted
// engine's gathering sets must both equal core.Discover's. The restart
// runs reps times, each on a fresh copy of the files the round left, and
// recovery time is their median.
func finishSingle(r *run, rr *roundResult, st *stream, reps int) error {
	want, err := oracle(st.db)
	if err != nil {
		return err
	}
	rr.want = want
	rr.attempted += int64(len(rr.queries.lat))
	rr.failed += rr.queries.failed
	if err := check("engine", engineSet(st.n.eng.Snapshot(engine.Query{})), want); err != nil {
		return err
	}
	var took, cpu []float64
	for k := 0; k < reps; k++ {
		dir := st.dir
		if k < reps-1 {
			if dir, err = r.copyDir(st.dir); err != nil {
				return err
			}
		}
		rec, err := recoverNode(dir, 0, r.tr)
		if dir != st.dir {
			os.RemoveAll(dir)
		}
		if err != nil {
			return err
		}
		took = append(took, rec.took.Seconds())
		cpu = append(cpu, rec.cpu.Seconds())
		res := rec.eng.Snapshot(engine.Query{})
		rec.eng.Close()
		if err := check("restarted engine", engineSet(res), want); err != nil {
			return err
		}
		c := rec.eng.Counters().Snapshot()
		rr.deduped, rr.stitched, rr.replayed = c.CrowdsDeduped, c.CrowdsStitched, rec.replayed
	}
	rr.recovery, rr.recCPU = seconds(medianFloat(took)), seconds(medianFloat(cpu))
	return nil
}

// copyDir copies the regular files of src into a fresh directory.
func (r *run) copyDir(src string) (string, error) {
	dst, err := r.freshDir("copy")
	if err != nil {
		return "", err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644)
		}
		if err != nil {
			os.RemoveAll(dst)
			return "", err
		}
	}
	return dst, nil
}

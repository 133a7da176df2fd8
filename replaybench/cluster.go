package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/rpc"
	"repro/internal/engine"
	"repro/internal/gathering"
	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/trajectory"
)

// memberTimeout bounds how long a member may take to apply the forwards
// of a finished feed; past it the round fails instead of hanging.
const memberTimeout = 60 * time.Second

// rig is three in-process gatherserve nodes on loopback HTTP, laid out as
// the README's multi-node quickstart map: 12 slots, 3000 m cells, a
// 2400 m halo. Node 0 is the ingest front.
type rig struct {
	m        *cluster.Map
	nodes    []*node
	members  []*cluster.Node
	counters []*stats.ClusterCounters
	servers  []*http.Server
	closers  []func() // each member's Close, callable more than once
	dirs     []string
	fwdBytes atomic.Int64 // forward request bodies received, all members
}

func startRig(r *run) (*rig, error) {
	g := &rig{m: &cluster.Map{
		Version: 1, CellSize: 3000, Halo: 2400, Slots: 12,
		Nodes: []cluster.Member{
			{ID: "a", Slots: []int{0, 3, 6, 9}},
			{ID: "b", Slots: []int{1, 4, 7, 10}},
			{ID: "c", Slots: []int{2, 5, 8, 11}},
		},
	}}
	lns := make([]net.Listener, len(g.m.Nodes))
	for i := range g.m.Nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		g.m.Nodes[i].Addr = ln.Addr().String()
	}
	if err := g.m.Validate(); err != nil {
		for _, l := range lns {
			l.Close()
		}
		return nil, err
	}
	pipe := pipelineConfig()
	for i, member := range g.m.Nodes {
		if err := g.startMember(r, i, member.ID, lns[i], gathering.Params{KC: pipe.KC, KP: pipe.KP, MP: pipe.MP}); err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			g.stop()
			return nil, err
		}
	}
	return g, nil
}

// startMember builds member i's pipeline and node runtime and serves its
// data plane on ln, with gatherserve's cluster flag defaults.
func (g *rig) startMember(r *run, i int, id cluster.NodeID, ln net.Listener, gp gathering.Params) error {
	dir, err := r.freshDir("node-" + string(id))
	if err != nil {
		return err
	}
	g.dirs = append(g.dirs, dir)
	nd, err := openNode(dir, i, clusterBatch, r.tr)
	if err != nil {
		return err
	}
	g.nodes = append(g.nodes, nd)
	c := &stats.ClusterCounters{}
	g.counters = append(g.counters, c)
	cn, err := cluster.NewNode(cluster.NodeConfig{
		Map:              g.m,
		Self:             id,
		Engine:           nd.eng,
		GatherParams:     gp,
		Counters:         c,
		AttemptTimeout:   2 * time.Second,
		ForwardDeadline:  30 * time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  3 * time.Second,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "replaybench: node %s: %s\n", id, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return err
	}
	g.members = append(g.members, cn)
	g.closers = append(g.closers, sync.OnceFunc(cn.Close))
	mux := http.NewServeMux()
	mux.HandleFunc(rpc.ForwardPath, func(w http.ResponseWriter, req *http.Request) {
		g.fwdBytes.Add(req.ContentLength)
		cn.HandleForward(w, req)
	})
	mux.HandleFunc(rpc.LocalPath, cn.HandleLocal)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	g.servers = append(g.servers, srv)
	go srv.Serve(ln)
	return nil
}

// frontier is the cluster's visible tick frontier: the minimum over the
// members' engines.
func (g *rig) frontier() int {
	f := g.nodes[0].eng.Ticks()
	for _, nd := range g.nodes[1:] {
		if t := nd.eng.Ticks(); t < f {
			f = t
		}
	}
	return f
}

// memberLoop is a non-front member's gatherserve ingest loop: every
// forward from its inbox through its own admit→WAL→engine pipeline, until
// all n batches are applied.
func (g *rig) memberLoop(i, n int, tr *tracer, abort <-chan struct{}) error {
	nd, cn := g.nodes[i], g.members[i]
	timeout := time.NewTimer(memberTimeout)
	defer timeout.Stop()
	for nd.mgr.NextSeq() < uint64(n) {
		select {
		case fwd := <-cn.Inbox():
			root := tr.open("driver.ingest", 0, batchRef(int(fwd.Seq), i))
			err := nd.ingest(int(fwd.Seq), fwd.Batch, root)
			tr.close(root)
			if err != nil {
				return err
			}
		case <-abort:
			return fmt.Errorf("node %d: aborted at batch %d of %d", i, nd.mgr.NextSeq(), n)
		case <-timeout.C:
			return fmt.Errorf("node %d: only %d of %d batches arrived within %v", i, nd.mgr.NextSeq(), n, memberTimeout)
		}
	}
	if err := nd.drain(); err != nil {
		return err
	}
	nd.flush(n)
	return nil
}

// stop shuts the data plane down: servers, then every member's forward
// queues.
func (g *rig) stop() {
	for _, srv := range g.servers {
		srv.Close()
	}
	for _, closeMember := range g.closers {
		closeMember()
	}
	for _, nd := range g.nodes {
		nd.eng.Close()
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	for _, d := range g.dirs {
		os.RemoveAll(d)
	}
}

// cluster3 replays two dense days through the front's Route on a fixed
// schedule while a non-front member serves scatter-gather reads, then
// crashes every member and restarts each from its own durability files.
func cluster3(r *run, round int) (*roundResult, error) {
	rr := &roundResult{}
	seed := roundSeed(r.seed, round)
	settle()
	t0, setupCPU0 := time.Now(), cpuTime()
	cfg := clusterConfig(seed)
	db := gen.Generate(cfg)
	batches := db.Batches(clusterBatch)
	g, err := startRig(r)
	if err != nil {
		return nil, err
	}
	defer g.stop()
	rr.setup, rr.setupCPU = time.Since(t0), cpuTime()-setupCPU0

	vis := newVisibility(len(batches), g.frontier)
	go vis.watch()
	settle()
	cpu0 := cpuTime()
	start := time.Now()
	stopCh := make(chan struct{})
	stop := sync.OnceFunc(func() { close(stopCh) })
	var wg sync.WaitGroup
	wg.Add(1)
	rng := rand.New(rand.NewSource(seed))
	go rr.queries.issue(newPacer(start, clusterQueryPeriod), stopCh, &wg, rng, g.frontier, cfg.AreaSize, clusterQuerier(g.members[1], 1, r.tr), r.tr, 1)

	memberErr := make(chan error, len(g.nodes)-1)
	for i := 1; i < len(g.nodes); i++ {
		go func(i int) { memberErr <- g.memberLoop(i, len(batches), r.tr, stopCh) }(i)
	}
	err = g.feed(batches, newPacer(start, clusterBatchPeriod), vis, r.tr, rr)
	if err != nil {
		stop()
	}
	g.closers[0]() // the front's Close delivers every queued forward
	for i := 1; i < len(g.nodes); i++ {
		err = errors.Join(err, <-memberErr)
	}
	if err != nil {
		vis.abort()
		stop()
		wg.Wait()
		return nil, err
	}
	rr.ingest = time.Since(start)
	vis.wait()
	stop()
	wg.Wait()
	rr.timed = time.Since(start)
	rr.cpu = cpuTime() - cpu0
	rr.heap = liveHeap()
	for _, nd := range g.nodes {
		nd.crash()
	}
	rr.lags = vis.lags()
	r.keep(rr, batches)
	return rr, g.finish(r, rr, db)
}

// feed is the front's gatherserve feed loop: Route each batch (forwarding
// the remote sub-batches), then apply its own sub-batch.
func (g *rig) feed(batches []*trajectory.DB, p *pacer, vis *visibility, tr *tracer, rr *roundResult) error {
	front, fn := g.members[0], g.nodes[0]
	ticks := 0
	for i, b := range batches {
		due, late := p.wait(i)
		ticks += b.Domain.N
		vis.publish(i, due, ticks)
		r := batchRef(i, 0)
		root := tr.open("driver.batch", 0, r)
		s := tr.open("cluster.route", root, r)
		own := front.Route(uint64(i), b)
		tr.close(s)
		err := fn.ingest(i, own, root)
		tr.close(root)
		p.complete()
		rr.late = append(rr.late, late)
		rr.points += int64(len(b.Trajs) * b.Domain.N)
		rr.attempted++
		if err != nil {
			return err
		}
	}
	if err := fn.drain(); err != nil {
		return err
	}
	fn.flush(len(batches))
	return nil
}

// finish runs the gate and the restarts, outside the timed region: two
// different coordinators must both answer core.Discover's gathering set,
// and every restarted member must hold the state it crashed with.
func (g *rig) finish(r *run, rr *roundResult, db *trajectory.DB) error {
	c := g.counters[0].Snapshot()
	rr.cluster = c
	rr.fwdBytes = g.fwdBytes.Load()
	rr.attempted += int64(c.ForwardsSent + c.ForwardsDropped)
	rr.failed += int64(c.ForwardsDropped)
	for i, nd := range g.nodes {
		rr.dropped += nd.dropped()
		s := nd.eng.Counters().Snapshot()
		if i == 0 {
			rr.counters = s
		} else {
			addCounters(&rr.counters, s)
		}
	}
	rr.failed += rr.dropped
	rr.attempted += int64(len(rr.queries.lat))
	rr.failed += rr.queries.failed

	want, err := oracle(db)
	if err != nil {
		return err
	}
	rr.want = want
	for _, i := range []int{1, 2} {
		res, meta := g.members[i].Query(context.Background(), engine.Query{})
		if len(meta.Unreachable) > 0 {
			return fmt.Errorf("gate: coordinator %d: unreachable %v", i, meta.Unreachable)
		}
		if err := check(fmt.Sprintf("cluster answer via node %s", g.m.Nodes[i].ID), engineSet(res), want); err != nil {
			return err
		}
	}
	for i, nd := range g.nodes {
		local := engineSet(nd.eng.Snapshot(engine.Query{}))
		rec, err := recoverNode(g.dirs[i], i, r.tr)
		if err != nil {
			return err
		}
		got := engineSet(rec.eng.Snapshot(engine.Query{}))
		rc := rec.eng.Counters().Snapshot()
		rec.eng.Close()
		if err := check(fmt.Sprintf("restarted node %s", g.m.Nodes[i].ID), got, local); err != nil {
			return err
		}
		rr.recovery = max(rr.recovery, rec.took) // members restart in parallel
		rr.recCPU += rec.cpu
		rr.replayed += rec.replayed
		rr.deduped += rc.CrowdsDeduped
		rr.stitched += rc.CrowdsStitched
	}
	return nil
}

// addCounters adds the ingest-side engine counters of b to a.
func addCounters(a *stats.EngineCounterSnapshot, b stats.EngineCounterSnapshot) {
	a.TasksApplied += b.TasksApplied
	a.ClustersBuilt += b.ClustersBuilt
	a.ClustersReplicated += b.ClustersReplicated
	a.ObjectsReplicated += b.ObjectsReplicated
	a.TicksIngested += b.TicksIngested
	a.BatchesEnqueued += b.BatchesEnqueued
}

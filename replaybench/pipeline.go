package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	gatherings "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/admit"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

// checkpointEvery is gatherserve's -checkpoint-every default.
const checkpointEvery = 16

// pipelineConfig is the thresholds every workload runs and the oracle
// checks: the repository's bench pipeline (dense-day tuned, so the small
// synthetic days do find gatherings).
func pipelineConfig() core.Config {
	cfg := gatherings.DefaultConfig()
	cfg.Eps, cfg.MinPts = 200, 5
	cfg.MC, cfg.KC, cfg.Delta = 10, 10, 300
	cfg.KP, cfg.MP = 8, 8
	cfg.Searcher = "grid"
	return cfg
}

// engineConfig is gatherserve's default engine (one shard and one worker
// per CPU, grid partitioner with a 4×δ halo, cluster-once ingest) over the
// bench pipeline.
func engineConfig() engine.Config {
	cfg := gatherings.DefaultEngineConfig()
	cfg.Pipeline = pipelineConfig()
	return cfg
}

// node is one gatherserve ingest pipeline — watermark admission, the
// write-ahead log, the engine and periodic checkpoints — driven exactly as
// gatherserve's applyEmits drives it: Offer, then per released batch Log →
// Append → Applied. Its methods run on one goroutine, like gatherserve's
// ingest loop.
type node struct {
	idx      int // cluster member index; 0 standalone
	walPath  string
	ckptPath string
	eng      *engine.Engine
	mgr      *recovery.Manager
	adm      *admit.Admitter
	resil    *stats.ResilienceCounters
	emits    []admit.Emit
	tr       *tracer
}

// openNode builds a fresh pipeline whose durability files live in dir.
func openNode(dir string, idx, ticksPerBatch int, tr *tracer) (*node, error) {
	n := &node{
		idx:      idx,
		walPath:  filepath.Join(dir, "state.wal"),
		ckptPath: filepath.Join(dir, "state.ckpt"),
		resil:    &stats.ResilienceCounters{},
		tr:       tr,
	}
	eng, err := gatherings.NewEngine(engineConfig())
	if err != nil {
		return nil, err
	}
	n.eng = eng
	n.mgr, err = recovery.Open(eng, n.recoveryOptions())
	if err != nil {
		eng.Close()
		return nil, err
	}
	n.adm = admit.New(admit.Config{
		Watermark:     admit.DefaultWatermark,
		Start:         n.mgr.NextSeq(),
		TicksPerBatch: ticksPerBatch,
		Counters:      n.resil,
	})
	return n, nil
}

// recoveryOptions is gatherserve's -checkpoint/-wal setup with
// -wal-sync checkpoint.
func (n *node) recoveryOptions() recovery.Options {
	return recovery.Options{
		CheckpointPath: n.ckptPath,
		WALPath:        n.walPath,
		Every:          checkpointEvery,
		Sync:           wal.SyncCheckpoint,
		Counters:       n.resil,
	}
}

// ingest offers batch seq to admission and applies whatever it releases.
func (n *node) ingest(seq int, b *trajectory.DB, parent int) error {
	r := batchRef(seq, n.idx)
	s := n.tr.open("admit.offer", parent, r)
	n.emits = n.adm.Offer(uint64(seq), b, n.emits[:0])
	n.tr.close(s)
	for _, em := range n.emits {
		if err := n.apply(em, parent); err != nil {
			return err
		}
	}
	return nil
}

// apply is gatherserve's applyEmits for one released batch.
func (n *node) apply(em admit.Emit, parent int) error {
	r := batchRef(int(em.Seq), n.idx)
	var walBefore int64
	if n.tr != nil {
		walBefore = fileSize(n.walPath)
	}
	s := n.tr.open("wal.log", parent, r)
	err := n.mgr.Log(em.Seq, em.Batch)
	n.tr.close(s)
	if err != nil {
		return fmt.Errorf("wal: batch %d: %w", em.Seq, err)
	}
	if n.tr != nil {
		n.tr.add("wal.record_bytes", n.idx, int(em.Seq), fileSize(n.walPath)-walBefore)
	}

	s = n.tr.open("engine.append", parent, r)
	err = n.eng.Append(em.Batch)
	n.tr.close(s)
	if err != nil {
		return fmt.Errorf("engine: batch %d: %w", em.Seq, err)
	}

	ckpts := n.resil.CheckpointsWritten.Load()
	s = n.tr.open("recovery.applied", parent, r)
	err = n.mgr.Applied()
	n.tr.close(s)
	if err != nil {
		return fmt.Errorf("recovery: batch %d: %w", em.Seq, err)
	}
	if n.resil.CheckpointsWritten.Load() != ckpts {
		n.tr.rename(s, "recovery.checkpoint")
		n.tr.add("recovery.checkpoint_bytes", n.idx, int(ckpts), fileSize(n.ckptPath))
	}
	return nil
}

// drain releases anything admission still holds, as gatherserve does at
// the end of its feed.
func (n *node) drain() error {
	n.emits = n.adm.Drain(n.emits[:0])
	for _, em := range n.emits {
		if err := n.apply(em, 0); err != nil {
			return err
		}
	}
	return nil
}

// flush waits until every appended batch is applied.
func (n *node) flush(seq int) {
	s := n.tr.open("engine.flush", 0, batchRef(seq, n.idx))
	n.eng.Flush()
	n.tr.close(s)
}

// dropped counts batches admission refused or lost: late, duplicate, or
// abandoned beyond the watermark.
func (n *node) dropped() int64 {
	return int64(n.resil.BatchesLate.Load() + n.resil.BatchesDuplicate.Load() + n.resil.BatchesDropped.Load())
}

// shutdown closes cleanly: the final checkpoint, then the engine.
func (n *node) shutdown(seq int) error {
	ckpts := n.resil.CheckpointsWritten.Load()
	s := n.tr.open("recovery.checkpoint", 0, batchRef(seq, n.idx))
	err := n.mgr.Close()
	n.tr.close(s)
	n.eng.Close()
	if err != nil {
		return fmt.Errorf("recovery: close: %w", err)
	}
	if n.resil.CheckpointsWritten.Load() != ckpts {
		n.tr.add("recovery.checkpoint_bytes", n.idx, int(ckpts), fileSize(n.ckptPath))
	}
	return nil
}

// crash ends the pipeline without a clean close: the engine stops, no
// final checkpoint is written, and the WAL keeps whatever followed the
// last periodic checkpoint. The abandoned log's descriptor is closed by
// the file's finalizer.
func (n *node) crash() {
	n.eng.Close()
	n.mgr = nil
}

// recovered is a node restarted from its durability files.
type recovered struct {
	eng      *engine.Engine
	took     time.Duration // restart until ready: engine built, checkpoint restored, WAL replayed
	cpu      time.Duration // process CPU time over the same span
	replayed uint64
}

// recoverNode restarts the pipeline in dir as gatherserve does before it
// reports ready. With tracing on, a checkpoint-only restore into a
// scratch engine first splits restore time from WAL replay.
func recoverNode(dir string, idx int, tr *tracer) (*recovered, error) {
	n := &node{
		idx:      idx,
		walPath:  filepath.Join(dir, "state.wal"),
		ckptPath: filepath.Join(dir, "state.ckpt"),
		resil:    &stats.ResilienceCounters{},
	}
	r := batchRef(0, idx)
	if tr != nil {
		eng, err := gatherings.NewEngine(engineConfig())
		if err != nil {
			return nil, err
		}
		s := tr.open("recovery.restore", 0, r)
		_, err = recovery.Open(eng, recovery.Options{CheckpointPath: n.ckptPath})
		tr.close(s)
		eng.Close()
		if err != nil {
			return nil, fmt.Errorf("recovery: restore: %w", err)
		}
	}
	s := tr.open("recovery.open", 0, r)
	settle()
	start, cpu0 := time.Now(), cpuTime()
	eng, err := gatherings.NewEngine(engineConfig())
	if err != nil {
		return nil, err
	}
	if _, err := recovery.Open(eng, n.recoveryOptions()); err != nil {
		eng.Close()
		return nil, fmt.Errorf("recovery: open: %w", err)
	}
	took, cpu := time.Since(start), cpuTime()-cpu0
	tr.close(s)
	return &recovered{eng: eng, took: took, cpu: cpu, replayed: n.resil.WALReplayed.Load()}, nil
}

// fileSize returns the size of path, 0 when it does not exist.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "replaybench: stat %s: %v\n", path, err)
		}
		return 0
	}
	return fi.Size()
}

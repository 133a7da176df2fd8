package recovery

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/gathering"
	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

func testPipeline() core.Config {
	return core.Config{
		Eps: 200, MinPts: 5,
		MC: 8, KC: 8, Delta: 300,
		KP: 6, MP: 6,
		Searcher: "grid",
	}
}

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{Pipeline: testPipeline(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func workload(t *testing.T) []*trajectory.DB {
	t.Helper()
	db := experiments.Workload(experiments.Scale{Taxis: 200, TicksPerDay: 96, Seed: 1}, gen.Clear)
	return db.Batches(12)
}

func sigs(e *engine.Engine) []string {
	return gatheringSigs(e.Snapshot(engine.Query{}).AllGatherings())
}

func gatheringSigs(gs []*gathering.Gathering) []string {
	out := make([]string, 0, len(gs))
	for _, g := range gs {
		out = append(out, fmt.Sprintf("%d-%d:%v", g.Crowd.Start, g.Crowd.End(), g.Participators))
	}
	sort.Strings(out)
	return out
}

func sameSigs(t *testing.T, got, want []string, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d gatherings, want %d", what, len(got), len(want))
	}
	w := make(map[string]bool, len(want))
	for _, s := range want {
		w[s] = true
	}
	for _, s := range got {
		if !w[s] {
			t.Errorf("%s: extra gathering %s", what, s)
		}
	}
	g := make(map[string]bool, len(got))
	for _, s := range got {
		g[s] = true
	}
	for _, s := range want {
		if !g[s] {
			t.Errorf("%s: missing gathering %s", what, s)
		}
	}
}

// feed pushes batches [from, to) through the Log → Append → Applied
// protocol, the same sequence gatherserve's ingest loop runs per admitted
// batch.
func feed(t *testing.T, m *Manager, e *engine.Engine, batches []*trajectory.DB, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := m.Log(uint64(i), batches[i]); err != nil {
			t.Fatal(err)
		}
		if err := e.Append(batches[i]); err != nil {
			t.Fatal(err)
		}
		if err := m.Applied(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashRecoveryParity is the ISSUE's kill-and-restore test: a process
// killed mid-stream (checkpoint behind, tail of the stream only in the
// WAL, one batch logged but never applied) restores, finishes the stream,
// and lands on the identical gathering set as an uninterrupted run.
func TestCrashRecoveryParity(t *testing.T) {
	batches := workload(t)
	if len(batches) != 8 {
		t.Fatalf("workload sliced into %d batches, the test plan expects 8", len(batches))
	}

	base := newEngine(t)
	defer base.Close()
	for _, b := range batches {
		if err := base.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	base.Flush()
	want := sigs(base)
	if len(want) == 0 {
		t.Fatal("baseline run found no gatherings; parity would be vacuous")
	}

	dir := t.TempDir()
	rc := &stats.ResilienceCounters{}
	opts := Options{
		CheckpointPath: filepath.Join(dir, "ckpt"),
		WALPath:        filepath.Join(dir, "wal"),
		Every:          3,
		Counters:       rc,
	}

	// First incarnation: 5 batches applied (checkpoint lands at 3), then
	// batch 5 is logged but the process "dies" before applying it — the
	// worst-case crash window of the write-ahead protocol. No Close: a
	// crash never closes.
	e1 := newEngine(t)
	m1, err := Open(e1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m1.NextSeq() != 0 {
		t.Fatalf("fresh Open: NextSeq = %d, want 0", m1.NextSeq())
	}
	feed(t, m1, e1, batches, 0, 5)
	if err := m1.Log(5, batches[5]); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	// Second incarnation: restore + replay (batches 3, 4 from the WAL and
	// the orphaned 5), then finish the stream and shut down cleanly.
	e2 := newEngine(t)
	m2, err := Open(e2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NextSeq() != 6 {
		t.Fatalf("recovered NextSeq = %d, want 6 (checkpoint 3 + WAL 3,4,5)", m2.NextSeq())
	}
	if n := rc.WALReplayed.Load(); n != 3 {
		t.Errorf("WALReplayed = %d, want 3", n)
	}
	feed(t, m2, e2, batches, 6, 8)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	e2.Flush()
	sameSigs(t, sigs(e2), want, "recovered run")
	e2.Close()

	if rc.CheckpointsWritten.Load() < 2 {
		t.Errorf("CheckpointsWritten = %d, want at least 2 (periodic + post-replay/final)",
			rc.CheckpointsWritten.Load())
	}

	// Third incarnation: everything is in the final checkpoint, nothing in
	// the WAL; the state comes back without a single append.
	e3 := newEngine(t)
	m3, err := Open(e3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m3.NextSeq() != 8 {
		t.Fatalf("post-close NextSeq = %d, want 8", m3.NextSeq())
	}
	sameSigs(t, sigs(e3), want, "checkpoint-only restart")
	if err := m3.Close(); err != nil {
		t.Fatal(err)
	}
	e3.Close()
}

// TestNoPathsIsPassThrough: a Manager with neither checkpoint nor WAL
// configured is a no-op — gatherserve runs exactly as before when the
// durability flags are off.
func TestNoPathsIsPassThrough(t *testing.T) {
	e := newEngine(t)
	defer e.Close()
	m, err := Open(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches := workload(t)
	feed(t, m, e, batches, 0, 2)
	if m.NextSeq() != 2 {
		t.Fatalf("NextSeq = %d, want 2", m.NextSeq())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV1CheckpointRefused: a checkpoint in the version-1 layout (a
// shard count, then one length-prefixed store blob per shard) must be
// refused at startup with a version error instead of being misread.
func TestV1CheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	opts := Options{CheckpointPath: filepath.Join(dir, "ckpt")}

	e1 := newEngine(t)
	for _, b := range workload(t)[:2] {
		if err := e1.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e1.Flush()
	var blob bytes.Buffer
	if err := e1.SaveState(&blob); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	var v1 bytes.Buffer
	v1.WriteString(ckptMagic)
	binary.Write(&v1, binary.LittleEndian, uint32(1))          // version
	binary.Write(&v1, binary.LittleEndian, uint64(2))          // next sequence
	binary.Write(&v1, binary.LittleEndian, uint32(1))          // shard count
	binary.Write(&v1, binary.LittleEndian, uint64(blob.Len())) // blob size
	v1.Write(blob.Bytes())
	if err := os.WriteFile(opts.CheckpointPath, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := newEngine(t)
	defer e2.Close()
	if _, err := Open(e2, opts); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Open over a version-1 checkpoint: err = %v, want a version complaint", err)
	}
}

// TestLogOutOfOrder: the WAL protocol is ordered by contract; a sequence
// skip is a caller bug and must error, not corrupt the log.
func TestLogOutOfOrder(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t)
	defer e.Close()
	m, err := Open(e, Options{WALPath: filepath.Join(dir, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	batches := workload(t)
	if err := m.Log(1, batches[1]); err == nil {
		t.Fatal("Log accepted sequence 1 before sequence 0")
	}
}

// TestWALPredatingCheckpoint: a WAL whose records jump past the restored
// frontier signals mismatched files; Open must refuse rather than leave a
// silent gap in the stream.
func TestWALPredatingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		CheckpointPath: filepath.Join(dir, "ckpt"),
		WALPath:        filepath.Join(dir, "wal"),
	}
	batches := workload(t)

	e1 := newEngine(t)
	m1, err := Open(e1, opts)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m1, e1, batches, 0, 3)
	if err := m1.Close(); err != nil { // checkpoint at 3, WAL reset
		t.Fatal(err)
	}
	e1.Close()

	// Sneak a far-future record into the (now empty) WAL, as if the
	// checkpoint belonged to some other run.
	w, err := wal.Create(opts.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(10, batches[3]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newEngine(t)
	defer e2.Close()
	if _, err := Open(e2, opts); err == nil || !strings.Contains(err.Error(), "jumps") {
		t.Fatalf("Open over a mismatched WAL: err = %v, want a sequence-jump complaint", err)
	}
}

// windowOracle is what a WAL record must hold for batch b, computed by a
// linear scan rather than trajectory.Window: per trajectory, the samples
// inside the batch's time window plus the last one before it (unless one
// lands on its start) and the first one after it (unless one lands on its
// end); trajectories with none of those are left out.
func windowOracle(b *trajectory.DB) *trajectory.DB {
	lo, hi := b.Domain.Start, b.Domain.End()
	out := &trajectory.DB{Domain: b.Domain, Trajs: []trajectory.Trajectory{}}
	for _, tr := range b.Trajs {
		first, last := -1, -1
		onLo, onHi := false, false
		for k, s := range tr.Samples {
			if s.Time >= lo && s.Time <= hi {
				if first < 0 {
					first = k
				}
				last = k
				onLo = onLo || s.Time == lo
				onHi = onHi || s.Time == hi
			}
		}
		if first < 0 { // nothing inside: a bracketing pair, or the lifespan misses
			k := 0
			for k < len(tr.Samples) && tr.Samples[k].Time < lo {
				k++
			}
			if k == 0 || k == len(tr.Samples) {
				continue
			}
			first, last = k, k-1
		}
		if !onLo && first > 0 {
			first--
		}
		if !onHi && last < len(tr.Samples)-1 {
			last++
		}
		samples := append([]trajectory.Sample(nil), tr.Samples[first:last+1]...)
		out.Trajs = append(out.Trajs, trajectory.Trajectory{ID: tr.ID, Samples: samples})
	}
	return out
}

// TestWALRecordsHoldBatchWindows crashes an ingest of a multi-day stream
// cut by DB.Batches — every view shares the whole trajectories — and
// checks that each WAL record holds only its batch window's samples, not
// the history before it, that the restored engine still finds exactly
// core.Discover's gatherings, and that re-encoding a decoded record
// reproduces it byte for byte (so a member's logged copy of a forward
// equals the forward).
func TestWALRecordsHoldBatchWindows(t *testing.T) {
	cfg := gen.Default()
	cfg.NumTaxis, cfg.TicksPerDay, cfg.Days, cfg.Seed = 200, 96, 2, 3
	db := gen.Generate(cfg)
	batches := db.Batches(12)
	disc, err := core.Discover(db, testPipeline())
	if err != nil {
		t.Fatal(err)
	}
	want := gatheringSigs(disc.AllGatherings())
	if len(want) == 0 {
		t.Fatal("core.Discover found no gatherings; parity would be vacuous")
	}

	dir := t.TempDir()
	opts := Options{CheckpointPath: filepath.Join(dir, "ckpt"), WALPath: filepath.Join(dir, "wal")}
	e1 := newEngine(t)
	m1, err := Open(e1, opts)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m1, e1, batches, 0, len(batches))
	e1.Close() // crash: no checkpoint, everything lives in the WAL

	// The log is its header plus one frame per batch holding exactly the
	// oracle's samples.
	wantSize, historySamples, windowSamples := int64(8), 0, 0
	for _, b := range batches {
		wantSize += 8 + 32
		for _, tr := range windowOracle(b).Trajs {
			wantSize += 12 + 24*int64(len(tr.Samples))
			windowSamples += len(tr.Samples)
		}
		for _, tr := range b.Trajs {
			historySamples += len(tr.Samples)
		}
	}
	fi, err := os.Stat(opts.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != wantSize {
		t.Fatalf("WAL is %d bytes, want %d for the batch windows alone", fi.Size(), wantSize)
	}
	if windowSamples*4 > historySamples {
		t.Fatalf("windows hold %d samples against %d in the shared views; the stream is too short to tell them apart",
			windowSamples, historySamples)
	}
	n, err := wal.Replay(opts.WALPath, func(seq uint64, got *trajectory.DB) error {
		if exp := windowOracle(batches[seq]); !reflect.DeepEqual(got, exp) {
			t.Errorf("record %d holds %d trajectories, want the %d of its window", seq, len(got.Trajs), len(exp.Trajs))
		}
		return nil
	})
	if err != nil || n != len(batches) {
		t.Fatalf("WAL replayed %d records (err %v), want %d", n, err, len(batches))
	}

	e2 := newEngine(t)
	defer e2.Close()
	m2, err := Open(e2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NextSeq() != uint64(len(batches)) {
		t.Fatalf("recovered NextSeq = %d, want %d", m2.NextSeq(), len(batches))
	}
	sameSigs(t, sigs(e2), want, "restored from window-only records")
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	for i, b := range batches {
		enc := wal.EncodePayload(nil, uint64(i), b)
		seq, dec, err := wal.DecodePayload(enc)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if re := wal.EncodePayload(nil, seq, dec); !bytes.Equal(re, enc) {
			t.Fatalf("batch %d: re-encoding its decoded record changes %d bytes to %d", i, len(enc), len(re))
		}
	}
}

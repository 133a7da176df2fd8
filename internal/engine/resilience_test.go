// Resilience tests: the admission stage in front of the engine (messy
// stream ≡ in-order replay), quarantine of a panicking store, and the
// SaveState/LoadState checkpoint roundtrip. The fault vocabulary comes
// from internal/chaos; everything is seeded and deterministic.

package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/engine/admit"
	"repro/internal/geo"
	"repro/internal/stats"
	"repro/internal/trajectory"
)

// churn thins a third of the batches: a rotating subset of objects goes
// dark for that tick window, the way real fleets drop in and out of a
// feed. Both sides of a parity test consume the same churned content.
func churn(batches []*trajectory.DB) []*trajectory.DB {
	out := make([]*trajectory.DB, len(batches))
	for i, b := range batches {
		if i%3 != 1 {
			out[i] = b
			continue
		}
		nb := &trajectory.DB{Domain: b.Domain}
		for j := range b.Trajs {
			if int(b.Trajs[j].ID)%5 == i%5 {
				continue
			}
			nb.Trajs = append(nb.Trajs, b.Trajs[j])
		}
		out[i] = nb
	}
	return out
}

func compareSigSets(t *testing.T, got, want []string) {
	t.Helper()
	wantSet := make(map[string]bool, len(want))
	for _, s := range want {
		wantSet[s] = true
	}
	gotSet := make(map[string]bool, len(got))
	for _, s := range got {
		gotSet[s] = true
	}
	for _, s := range want {
		if !gotSet[s] {
			t.Errorf("missing gathering %s", s)
		}
	}
	for _, s := range got {
		if !wantSet[s] {
			t.Errorf("extra gathering %s", s)
		}
	}
}

// TestMessyStreamParity is the resilience property test: a stream
// perturbed with reordering (within the watermark), duplicate deliveries
// and object churn, pushed through the admission stage, must yield the
// identical gathering set as in-order replay of the same batches.
//
// The case names keep the table of the sharded engine this test was
// written for. shards is now the build parallelism (Workers), and the
// one-store engine has no halo: the flag only picks a second perturbation
// seed per parallelism, so each case still replays a different messy
// stream.
func TestMessyStreamParity(t *testing.T) {
	pipe := testPipeline()
	batches := churn(testWorkload(t, 250, 96, 8))

	for _, tc := range []struct {
		workers int
		halo    bool
	}{
		{1, false}, {1, true}, {4, false}, {4, true}, {8, false}, {8, true},
	} {
		workers, seed := tc.workers, int64(tc.workers)*1000
		if tc.halo {
			seed += 1200
		}
		t.Run(fmt.Sprintf("shards=%d/halo=%v", tc.workers, tc.halo), func(t *testing.T) {
			mk := func() *Engine {
				e, err := New(Config{Pipeline: pipe, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}

			base := mk()
			defer base.Close()
			for _, b := range batches {
				if err := base.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			base.Flush()
			want := gatheringSigs(base.Snapshot(Query{}).AllGatherings())
			if len(want) == 0 {
				t.Fatal("in-order run found no gatherings; parity would be vacuous")
			}

			evs := chaos.Perturb(batches, chaos.Config{
				Seed:        seed,
				ReorderProb: 0.35, MaxDelay: 3, DupProb: 0.3,
			})
			rc := &stats.ResilienceCounters{}
			adm := admit.New(admit.Config{Watermark: 8, Counters: rc})
			messy := mk()
			defer messy.Close()
			var emits []admit.Emit
			feed := func() {
				for _, em := range emits {
					if err := messy.Append(em.Batch); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, ev := range evs {
				emits = adm.Offer(ev.Seq, ev.Batch, emits[:0])
				feed()
			}
			emits = adm.Drain(emits[:0])
			feed()
			messy.Flush()

			// Exact parity is only promised for loss-free admission; the
			// chaos config is tuned to stay inside the watermark, and
			// this pins it (deterministic per seed).
			if n := rc.BatchesDropped.Load(); n != 0 {
				t.Fatalf("perturbation escaped the watermark: %d batches dropped — widen it or calm the chaos config", n)
			}
			if rc.BatchesReordered.Load() == 0 || rc.BatchesDuplicate.Load() == 0 {
				t.Fatalf("perturbation was a no-op (reordered=%d duplicate=%d); the parity proves nothing",
					rc.BatchesReordered.Load(), rc.BatchesDuplicate.Load())
			}
			if rc.BatchesAdmitted.Load() != uint64(len(batches)) {
				t.Fatalf("admitted %d batches, stream has %d", rc.BatchesAdmitted.Load(), len(batches))
			}

			compareSigSets(t, gatheringSigs(messy.Snapshot(Query{}).AllGatherings()), want)
		})
	}
}

// TestDroppedBatchNeverSilent: a batch missing from the stream surfaces as
// a counted drop and a filler emission — the engine's tick frontier stays
// aligned and nothing disappears without a tally.
func TestDroppedBatchNeverSilent(t *testing.T) {
	pipe := testPipeline()
	batches := testWorkload(t, 150, 48, 6)
	per := batches[0].Domain.N

	e, err := New(Config{Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rc := &stats.ResilienceCounters{}
	adm := admit.New(admit.Config{Watermark: 4, Counters: rc})
	var emits []admit.Emit
	const lost = 2
	fillers := 0
	for i, b := range batches {
		if i == lost {
			continue
		}
		emits = adm.Offer(uint64(i), b, emits[:0])
		for _, em := range emits {
			if em.Filler {
				fillers++
			}
			if err := e.Append(em.Batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, em := range adm.Drain(nil) {
		if em.Filler {
			fillers++
		}
		if err := e.Append(em.Batch); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()

	if fillers != 1 {
		t.Errorf("released %d fillers, want exactly 1 for the lost slot", fillers)
	}
	if got := rc.BatchesDropped.Load(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	if got := rc.TicksDropped.Load(); got != uint64(per) {
		t.Errorf("ticks dropped = %d, want %d", got, per)
	}
	if got := e.Ticks(); got != 48 {
		t.Errorf("engine frontier at %d ticks, want 48 — the filler failed to keep domains aligned", got)
	}
}

// TestApplyPanicQuarantines: an injected panic during a store apply must
// quarantine the store — not crash the process, not stall the applier or
// the tick frontier, not serve poisoned answers or checkpoints — be
// visible in the counters, and clear on a checkpoint restore.
func TestApplyPanicQuarantines(t *testing.T) {
	sites := []geo.Point{{X: 1000, Y: 1000}, {X: 40000, Y: 40000}}
	db := parkedDB(sites, 12, 24)
	batches := db.Batches(6)
	mk := func(fault func(uint64)) *Engine {
		e, err := New(Config{Pipeline: testPipeline(), ApplyFault: fault})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	// A healthy engine checkpoints the first batch for the restore below.
	healthy := mk(nil)
	defer healthy.Close()
	if err := healthy.Append(batches[0]); err != nil {
		t.Fatal(err)
	}
	healthy.Flush()
	var ckpt bytes.Buffer
	if err := healthy.SaveState(&ckpt); err != nil {
		t.Fatal(err)
	}

	e := mk(chaos.FaultAt(1))
	defer e.Close()
	for _, b := range batches {
		if err := e.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush() // returning at all proves the applier did not stall

	if !e.Quarantined() {
		t.Fatal("Quarantined() = false after an apply panic")
	}
	if got := e.Counters().Snapshot().ApplyPanics; got != 1 {
		t.Errorf("ApplyPanics = %d, want 1", got)
	}
	// Discarded batches still advance the frontier.
	if e.Ticks() != db.Domain.N {
		t.Errorf("Ticks() = %d after quarantine, want %d", e.Ticks(), db.Domain.N)
	}
	if res := e.Snapshot(Query{}); len(res.Crowds) != 0 {
		t.Errorf("quarantined store answered %d crowds, want none", len(res.Crowds))
	}
	// A poisoned store must never reach a checkpoint.
	var buf bytes.Buffer
	if err := e.SaveState(&buf); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("SaveState on a quarantined engine: err = %v, want a quarantine refusal", err)
	}

	// A checkpoint restore replaces the store and clears the quarantine.
	if err := e.LoadState(&ckpt); err != nil {
		t.Fatal(err)
	}
	if e.Quarantined() {
		t.Fatal("LoadState left the store quarantined")
	}
	if e.Ticks() != batches[0].Domain.N {
		t.Fatalf("Ticks() = %d after restore, want %d", e.Ticks(), batches[0].Domain.N)
	}
	for _, b := range batches[1:] {
		if err := e.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	if got := len(e.Snapshot(Query{GatheringsOnly: true}).Crowds); got != len(sites) {
		t.Fatalf("restored engine found %d gathering crowds, want %d", got, len(sites))
	}
}

// TestSaveLoadRoundtrip: checkpointing mid-stream and restoring into a
// fresh engine must preserve the incremental state exactly — the restored
// engine, fed the rest of the stream, matches the uninterrupted one.
func TestSaveLoadRoundtrip(t *testing.T) {
	pipe := testPipeline()
	batches := testWorkload(t, 200, 96, 4)

	mk := func() *Engine {
		e, err := New(Config{Pipeline: pipe, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	e1 := mk()
	defer e1.Close()
	for _, b := range batches[:2] {
		if err := e1.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e1.Flush()
	var buf bytes.Buffer
	if err := e1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	e2 := mk()
	defer e2.Close()
	if err := e2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if e2.Ticks() != e1.Ticks() {
		t.Fatalf("restored frontier at %d ticks, saved at %d", e2.Ticks(), e1.Ticks())
	}

	for _, e := range []*Engine{e1, e2} {
		for _, b := range batches[2:] {
			if err := e.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
	}
	compareSigSets(t,
		gatheringSigs(e2.Snapshot(Query{}).AllGatherings()),
		gatheringSigs(e1.Snapshot(Query{}).AllGatherings()))
}

// TestLoadStateMismatches: a checkpoint must refuse to restore into an
// engine with different thresholds, and an undecodable one must leave the
// engine unchanged.
func TestLoadStateMismatches(t *testing.T) {
	pipe := testPipeline()
	batches := testWorkload(t, 100, 24, 2)
	e1, err := New(Config{Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	for _, b := range batches {
		if err := e1.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e1.Flush()
	var buf bytes.Buffer
	if err := e1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	wrong := pipe
	wrong.MC = pipe.MC + 2
	e2, err := New(Config{Pipeline: wrong})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := e2.LoadState(bytes.NewReader(saved)); err == nil || !strings.Contains(err.Error(), "thresholds") {
		t.Fatalf("params mismatch: err = %v, want a thresholds complaint", err)
	}

	if err := e1.LoadState(bytes.NewReader(saved[:len(saved)/2])); err == nil {
		t.Fatal("LoadState accepted a truncated checkpoint")
	}
	if e1.Ticks() != 24 || len(e1.Snapshot(Query{}).Crowds) == 0 {
		t.Fatalf("failed LoadState changed the engine: %d ticks", e1.Ticks())
	}
}

package gatherings_test

import (
	"sync"
	"testing"

	gatherings "repro"
)

// TestEnginePublicAPI drives the exported Engine end to end: configure,
// ingest concurrently with queries, flush, snapshot, close.
func TestEnginePublicAPI(t *testing.T) {
	db := testWorkload()

	cfg := gatherings.DefaultEngineConfig()
	cfg.Pipeline = testConfig()
	cfg.Workers = 2
	eng, err := gatherings.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // reader alongside the ingest
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				res := eng.Snapshot(gatherings.EngineQuery{GatheringsOnly: true})
				if len(res.Crowds) != len(res.Gatherings) {
					t.Error("ragged snapshot")
					return
				}
			}
		}
	}()

	for _, b := range db.Batches(db.Domain.N / 4) {
		if err := eng.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	close(stop)
	wg.Wait()

	if eng.Ticks() != db.Domain.N {
		t.Fatalf("engine ingested %d ticks, want %d", eng.Ticks(), db.Domain.N)
	}

	// The engine must find the planted jam, like Store does.
	res := eng.Snapshot(gatherings.EngineQuery{GatheringsOnly: true})
	if len(res.AllGatherings()) == 0 {
		t.Fatal("engine found no gatherings in a workload with a planted jam")
	}
	snap := eng.Counters().Snapshot()
	if snap.BatchesEnqueued != 4 || snap.TicksIngested != uint64(db.Domain.N) {
		t.Fatalf("counters off: %+v", snap)
	}
}

package engine

import (
	"errors"
	"sync"
	"testing"
)

// TestCloseRacesInFlightAppend: Close concurrent with a stream of Appends
// must neither race nor panic — every Append either lands before the
// close or returns ErrClosed, and Close returns with the workers stopped.
// The interesting windows are Close hitting an Append mid-submission and
// an Append arriving after the queue is gone; run under -race this pins
// the engine's closed-flag and queue teardown ordering.
func TestCloseRacesInFlightAppend(t *testing.T) {
	batches := testWorkload(t, 120, 48, 8)
	for round := 0; round < 8; round++ {
		e, err := New(Config{Pipeline: testPipeline()})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, b := range batches {
					if err := e.Append(b); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("Append during Close: %v", err)
						}
						return
					}
				}
			}(w)
		}
		// No synchronisation on purpose: some rounds close before the
		// first Append, some mid-stream, some after the last.
		e.Close()
		wg.Wait()
		// The engine must still answer queries after a racy close.
		_ = e.Snapshot(Query{})
	}
}

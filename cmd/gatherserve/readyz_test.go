package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	gatherings "repro"
	"repro/internal/chaos"
)

// TestReadyzQuarantined: /readyz is 503 while recovering, 200 once ready,
// and 503 again after an apply panic quarantines the store.
func TestReadyzQuarantined(t *testing.T) {
	eng, err := gatherings.NewEngine(gatherings.EngineConfig{
		Pipeline:   clusterTestPipeline(),
		ApplyFault: chaos.FaultAt(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var ready atomic.Bool
	h := readyz(&ready, eng)
	code := func() int {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code
	}

	if got := code(); got != http.StatusServiceUnavailable {
		t.Fatalf("recovering: /readyz = %d, want 503", got)
	}
	ready.Store(true)
	empty := &gatherings.DB{Domain: gatherings.TimeDomain{Step: 1, N: 4}}
	if err := eng.Append(empty); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if got := code(); got != http.StatusOK {
		t.Fatalf("ready: /readyz = %d, want 200", got)
	}
	if err := eng.Append(empty); err != nil { // apply seq 1 panics
		t.Fatal(err)
	}
	eng.Flush()
	if got := code(); got != http.StatusServiceUnavailable {
		t.Fatalf("quarantined: /readyz = %d, want 503", got)
	}
}

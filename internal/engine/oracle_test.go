package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/experiments"
	"repro/internal/gathering"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/incremental"
	"repro/internal/trajectory"
)

// gatheringSigs canonicalises a gathering list for set comparison: span
// plus sorted participators identify a gathering.
func gatheringSigs(gs []*gathering.Gathering) []string {
	out := make([]string, 0, len(gs))
	for _, g := range gs {
		out = append(out, fmt.Sprintf("%d-%d:%v", g.Crowd.Start, g.Crowd.End(), g.Participators))
	}
	sort.Strings(out)
	return out
}

// crowdSigs canonicalises a crowd list for set comparison: start tick
// plus per-tick membership identify a crowd.
func crowdSigs(crs []*crowd.Crowd) []string {
	out := make([]string, 0, len(crs))
	for _, cr := range crs {
		sig := fmt.Sprint(cr.Start)
		for _, cl := range cr.Clusters() {
			sig += fmt.Sprint(cl.Objects)
		}
		out = append(out, sig)
	}
	sort.Strings(out)
	return out
}

// TestMatchesDiscoverOracle checks the engine against the batch oracle:
// over random synthetic days, random batch cuts and build parallelism
// Workers ∈ {1, 2, 4}, the engine's closed crowds and gatherings must
// equal core.Discover's over the whole day.
func TestMatchesDiscoverOracle(t *testing.T) {
	pipe := testPipeline()
	rng := rand.New(rand.NewSource(7))
	found := 0
	for trial := 0; trial < 12; trial++ {
		seed := rng.Int63n(1000)
		workers := []int{1, 2, 4}[trial%3]
		db := experiments.Workload(experiments.Scale{Taxis: 150 + rng.Intn(100), TicksPerDay: 72, Seed: seed}, gen.Clear)
		t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
			want, err := core.Discover(db, pipe)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(Config{Pipeline: pipe, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			// Cut the day into batches of random sizes, 1 to 24 ticks.
			for at := 0; at < db.Domain.N; {
				n := min(1+rng.Intn(24), db.Domain.N-at)
				if err := e.Append(db.SliceTicks(trajectory.Tick(at), n)); err != nil {
					t.Fatal(err)
				}
				at += n
			}
			e.Flush()

			res := e.Snapshot(Query{})
			if res.Ticks != db.Domain.N {
				t.Fatalf("engine applied %d ticks, day has %d", res.Ticks, db.Domain.N)
			}
			compareSigSets(t, crowdSigs(res.Crowds), crowdSigs(want.Crowds))
			compareSigSets(t, gatheringSigs(res.AllGatherings()), gatheringSigs(want.AllGatherings()))
			found += len(want.AllGatherings())
			t.Logf("%d crowds, %d gatherings", len(want.Crowds), len(want.AllGatherings()))
		})
	}
	if found == 0 {
		t.Fatal("no trial found a gathering; the oracle comparison is vacuous")
	}
}

// recallPipeline is the ROADMAP scenario's parameter setting (the paper's
// thresholds scaled to a 400-taxi synthetic day).
func recallPipeline() core.Config {
	return core.Config{
		Eps: 200, MinPts: 5,
		MC: 10, KC: 10, Delta: 300,
		KP: 8, MP: 8,
		Searcher: "grid",
	}
}

// TestShardedRecallParity pins the ROADMAP recall scenario: the 20 km
// synthetic day (400 taxis, 144 ticks, seed 3) must yield the identical
// crowd and gathering sets from a single incremental.Store and from the
// engine. The case names keep the shard counts of the sharded engine this
// test was written for; each now sets the build parallelism (Workers),
// which took the shards' place as the engine's unit of parallelism.
func TestShardedRecallParity(t *testing.T) {
	cfg := gen.Default()
	cfg.NumTaxis = 400
	cfg.TicksPerDay = 144
	cfg.Seed = 3
	db := gen.Generate(cfg)
	pipe := recallPipeline()
	batches := db.Batches(16)

	st, err := incremental.New(
		crowd.Params{MC: pipe.MC, KC: pipe.KC, Delta: pipe.Delta},
		gathering.Params{KC: pipe.KC, KP: pipe.KP, MP: pipe.MP},
		pipe.SearcherFactory(),
	)
	if err != nil {
		t.Fatal(err)
	}
	clusters := 0
	for _, b := range batches {
		cdb := core.BuildCDB(b, pipe)
		clusters += cdb.NumClusters()
		st.Append(cdb)
	}
	base := gatheringSigs(st.FlatGatherings())
	if len(base) != 10 {
		t.Fatalf("baseline found %d gatherings, the ROADMAP scenario has 10", len(base))
	}
	baseCrowds := crowdSigs(st.Crowds())

	for _, workers := range []int{2, 4, 8, 16} {
		t.Run(fmt.Sprintf("shards=%d", workers), func(t *testing.T) {
			e, err := New(Config{Pipeline: pipe, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for _, b := range batches {
				if err := e.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			e.Flush()

			res := e.Snapshot(Query{})
			got := gatheringSigs(res.AllGatherings())
			if len(got) != len(base) {
				t.Errorf("found %d gatherings, baseline has %d", len(got), len(base))
			}
			compareSigSets(t, got, base)
			compareSigSets(t, crowdSigs(res.Crowds), baseCrowds)

			cs := e.Counters().Snapshot()
			if cs.ClustersBuilt != uint64(clusters) {
				t.Errorf("engine built %d snapshot clusters, the store's batches hold %d", cs.ClustersBuilt, clusters)
			}
		})
	}
}

// TestSnapshotLimitDeterministic checks that Limit truncates the
// deterministically-sorted result: for every k, the Limit-k answer is the
// prefix of the full answer.
func TestSnapshotLimitDeterministic(t *testing.T) {
	sites := []geo.Point{
		{X: 1000, Y: 1000}, {X: 40000, Y: 1000},
		{X: 1000, Y: 40000}, {X: 40000, Y: 40000}, {X: 80000, Y: 80000},
	}
	db := parkedDB(sites, 12, 24)
	e, err := New(Config{Pipeline: testPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, b := range db.Batches(12) {
		if err := e.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()

	full := e.Snapshot(Query{})
	if len(full.Crowds) != len(sites) {
		t.Fatalf("found %d crowds, want one per site (%d)", len(full.Crowds), len(sites))
	}
	if full.Ticks != db.Domain.N {
		t.Fatalf("Ticks = %d after flush, want %d", full.Ticks, db.Domain.N)
	}
	for i := 1; i < len(full.Crowds); i++ {
		if CompareCrowds(full.Crowds[i-1], full.Crowds[i]) >= 0 {
			t.Fatalf("snapshot not sorted at %d: %v !< %v", i, full.Crowds[i-1], full.Crowds[i])
		}
	}
	for k := 1; k <= len(full.Crowds); k++ {
		res := e.Snapshot(Query{Limit: k})
		if len(res.Crowds) != k {
			t.Fatalf("Limit %d returned %d crowds", k, len(res.Crowds))
		}
		for i, cr := range res.Crowds {
			if CompareCrowds(cr, full.Crowds[i]) != 0 {
				t.Fatalf("Limit %d result[%d] = %v, want prefix of full answer (%v)",
					k, i, cr, full.Crowds[i])
			}
		}
	}
}

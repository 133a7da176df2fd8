package chaos

import (
	"reflect"
	"testing"

	"repro/internal/trajectory"
)

func testBatches(n int) []*trajectory.DB {
	out := make([]*trajectory.DB, n)
	for i := range out {
		out[i] = &trajectory.DB{Domain: trajectory.TimeDomain{
			Start: float64(i * 4), Step: 1, N: 4,
		}}
	}
	return out
}

func TestPerturbDeterministic(t *testing.T) {
	batches := testBatches(50)
	cfg := Config{Seed: 7, ReorderProb: 0.4, MaxDelay: 3, DupProb: 0.3, DropProb: 0.1}
	a := Perturb(batches, cfg)
	b := Perturb(batches, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and config produced different event streams")
	}
	cfg.Seed = 8
	if reflect.DeepEqual(a, Perturb(batches, cfg)) {
		t.Fatal("different seeds produced identical event streams — seed is dead")
	}
}

func TestPerturbLosslessWithoutDrops(t *testing.T) {
	batches := testBatches(60)
	evs := Perturb(batches, Config{Seed: 3, ReorderProb: 0.5, MaxDelay: 3, DupProb: 0.4})
	count := map[uint64]int{}
	for _, ev := range evs {
		count[ev.Seq]++
		if ev.Batch != batches[ev.Seq] {
			t.Fatalf("seq %d delivered with the wrong batch", ev.Seq)
		}
	}
	dups := 0
	for i := range batches {
		c := count[uint64(i)]
		if c < 1 {
			t.Errorf("seq %d never delivered despite DropProb 0", i)
		}
		if c > 2 {
			t.Errorf("seq %d delivered %d times; one duplicate max", i, c)
		}
		if c == 2 {
			dups++
		}
	}
	if dups == 0 {
		t.Error("DupProb 0.4 over 60 batches produced no duplicates")
	}
}

func TestPerturbDropsEverything(t *testing.T) {
	evs := Perturb(testBatches(20), Config{Seed: 1, DropProb: 1})
	if len(evs) != 0 {
		t.Fatalf("DropProb 1 still delivered %d events", len(evs))
	}
}

// fires exercises a fault plan over apply sequence numbers [0, seqs) and
// records which applies panic.
func fires(f func(uint64), seqs int) map[uint64]bool {
	out := map[uint64]bool{}
	for q := uint64(0); q < uint64(seqs); q++ {
		func() {
			defer func() {
				if recover() != nil {
					out[q] = true
				}
			}()
			f(q)
		}()
	}
	return out
}

func TestFaultAt(t *testing.T) {
	got := fires(FaultAt(3, 0), 5)
	want := map[uint64]bool{3: true, 0: true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FaultAt fired at %v, want %v", got, want)
	}
}

package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/trajectory"
)

// decodeSeeds are real EncodePayload output: a whole-history record (a
// 12-tick encoding relabelled as a 4-tick window, the shape of a record
// logged before the encoder cut to the window), a window-only record of a
// view sharing longer trajectories, and an empty filler.
func decodeSeeds() [][]byte {
	whole := EncodePayload(nil, 3, testDB(0, 12, 3))
	binary.LittleEndian.PutUint32(whole[24:28], 4)
	window := EncodePayload(nil, 4, testDB(0, 12, 3).SliceTicks(4, 4))
	filler := EncodePayload(nil, 5, &trajectory.DB{Domain: trajectory.TimeDomain{Start: 8, Step: 1, N: 4}})
	return [][]byte{whole, window, filler}
}

// claimPayload is a record header claiming ntr trajectories, followed by
// pad zero bytes: what a short, malformed forward looks like.
func claimPayload(ntr uint32, pad int) []byte {
	p := EncodePayload(nil, 0, &trajectory.DB{Domain: trajectory.TimeDomain{Step: 1, N: 1}})
	binary.LittleEndian.PutUint32(p[28:32], ntr)
	return append(p, make([]byte, pad)...)
}

// FuzzDecodePayload: any byte string decodes to an error or to a batch
// with a valid domain and time-ordered samples whose re-encoding decodes
// again and is a fixed point of encode∘decode — never a panic — and
// decoding allocates a bounded number of bytes per input byte, whatever
// the counts inside claim.
func FuzzDecodePayload(f *testing.F) {
	for _, p := range decodeSeeds() {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add(claimPayload(1<<18, 1<<18))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seq, db, err := DecodePayload(data)
		runtime.ReadMemStats(&after)
		// 32 B per trajectory header of at least 12 input bytes and 24 B
		// per 24-byte sample, plus a fixed slack for the error text.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if err := db.Domain.Validate(); err != nil {
			t.Fatalf("decoded an invalid domain: %v", err)
		}
		for i := range db.Trajs {
			if !db.Trajs[i].Sorted() {
				t.Fatalf("decoded object %d with unsorted samples", db.Trajs[i].ID)
			}
		}
		enc := EncodePayload(nil, seq, db)
		seq2, db2, err := DecodePayload(enc)
		if err != nil || seq2 != seq || db2.Domain != db.Domain {
			t.Fatalf("re-encoded record does not decode back: seq %d→%d, err %v", seq, seq2, err)
		}
		if again := EncodePayload(nil, seq2, db2); !bytes.Equal(again, enc) {
			t.Fatalf("encode∘decode is not a fixed point: %d bytes → %d", len(enc), len(again))
		}
	})
}

// TestDecodeRejectsMalformed: counts the bytes cannot back, domains no
// batch has, and out-of-order samples are errors, not allocations or
// panics; a whole-history record from before the window cut still decodes
// with every sample.
func TestDecodeRejectsMalformed(t *testing.T) {
	seeds := decodeSeeds()
	withDomain := func(start, step float64) []byte {
		p := append([]byte(nil), seeds[1]...)
		binary.LittleEndian.PutUint64(p[8:16], math.Float64bits(start))
		binary.LittleEndian.PutUint64(p[16:24], math.Float64bits(step))
		return p
	}
	unsorted := append([]byte(nil), seeds[1]...)
	binary.LittleEndian.PutUint64(unsorted[44:52], math.Float64bits(100)) // first sample's time
	manySamples := append([]byte(nil), seeds[2]...)
	binary.LittleEndian.PutUint32(manySamples[28:32], 1)
	manySamples = append(manySamples, make([]byte, 8+4+23)...)
	binary.LittleEndian.PutUint32(manySamples[40:44], 2) // two samples, 23 bytes left
	for name, p := range map[string][]byte{
		"trajectories beyond the bytes": claimPayload(3, 3*12-1),
		"samples beyond the bytes":      manySamples,
		"NaN start":                     withDomain(math.NaN(), 1),
		"infinite start":                withDomain(math.Inf(-1), 1),
		"zero step":                     withDomain(4, 0),
		"negative step":                 withDomain(4, -1),
		"NaN step":                      withDomain(4, math.NaN()),
		"infinite step":                 withDomain(4, math.Inf(1)),
		"unsorted samples":              unsorted,
	} {
		if _, _, err := DecodePayload(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, db, err := DecodePayload(claimPayload(3, 3*12)); err != nil || len(db.Trajs) != 3 {
		t.Errorf("three empty trajectories in exactly their bytes: err %v", err)
	}

	_, db, err := DecodePayload(seeds[0])
	if err != nil {
		t.Fatal(err)
	}
	full := testDB(0, 12, 3)
	if !reflect.DeepEqual(db.Trajs, full.Trajs) {
		t.Fatal("a whole-history record lost samples in decoding")
	}
}

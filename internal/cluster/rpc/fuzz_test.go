package rpc

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzDecodeCrowdSet: any byte string decodes to an error or to a crowd
// set whose crowds and gatherings can be walked and re-encoded — never a
// panic — and decoding allocates in proportion to the input.
func FuzzDecodeCrowdSet(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeCrowdSet(&seed, testCrowdSet()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		set, err := DecodeCrowdSet(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// A generous per-byte factor for the decoded values, plus a fixed
		// slack for gob's type machinery and its read buffer.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1024*uint64(len(data))+16<<20 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		for _, en := range set.Entries {
			for _, cl := range en.Crowd.Clusters() {
				_ = cl.MBR()
			}
			for _, g := range en.Gatherings {
				_ = g.Crowd.Clusters()
			}
		}
		if err := EncodeCrowdSet(&bytes.Buffer{}, set); err != nil {
			t.Fatalf("decoded set does not re-encode: %v", err)
		}
	})
}

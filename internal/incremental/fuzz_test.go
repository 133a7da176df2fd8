package incremental

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/crowd"
	"repro/internal/gathering"
)

// FuzzLoad: any byte string loads to an error or to a store whose answers
// can be read and saved again — never a panic — and loading allocates in
// proportion to the input.
func FuzzLoad(f *testing.F) {
	s, err := New(crowd.Params{MC: 1, KC: 3, Delta: 1.0}, gathering.Params{KC: 3, KP: 2, MP: 1}, gridFactory(1))
	if err != nil {
		f.Fatal(err)
	}
	s.Append(cdbFromRows(0, figure2Rows()))
	var seed bytes.Buffer
	if err := s.Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := Load(bytes.NewReader(data), gridFactory(1))
		runtime.ReadMemStats(&after)
		// A generous per-byte factor for the decoded state, plus a fixed
		// slack for gob's type machinery and its read buffer.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1024*uint64(len(data))+16<<20 {
			t.Fatalf("loading %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		for _, cr := range st.Crowds() {
			_ = cr.Clusters()
		}
		for _, g := range st.FlatGatherings() {
			_ = g.Crowd.Clusters()
		}
		if err := st.Save(&bytes.Buffer{}); err != nil {
			t.Fatalf("loaded store does not save: %v", err)
		}
	})
}

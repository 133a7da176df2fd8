package trajectory

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV asserts the ingestion boundary never panics and that
// anything it accepts survives a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("id,time,x,y\n1,0,10,20\n1,1,11,21\n")
	f.Add("0,0,0,0\n")
	f.Add("id,time,x,y\n")
	f.Add("")
	f.Add("1,not-a-number,2,3\n")
	f.Add("9223372036854775808,0,1,2\n") // id overflow
	f.Add("1,0,1e309,2\n")               // x overflow
	f.Add("a,b\nc,d\n")                  // wrong arity
	f.Fuzz(func(t *testing.T, in string) {
		trajs, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		for i := range trajs {
			if !trajs[i].Sorted() {
				t.Fatalf("accepted unsorted trajectory %d", trajs[i].ID)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, trajs); err != nil {
			t.Fatalf("accepted data failed to serialise: %v", err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if len(again) != len(trajs) {
			t.Fatalf("round trip changed trajectory count: %d -> %d", len(trajs), len(again))
		}
	})
}

// FuzzLocationAt asserts interpolation never panics and never extrapolates
// beyond the lifespan, for arbitrary sample layouts, and that the samples
// Window keeps for [lo, hi] answer LocationAt there exactly as the whole
// trajectory does.
func FuzzLocationAt(f *testing.F) {
	f.Add(0.0, 1.0, 2.0, 0.5, 0.0, 1.0)
	f.Add(5.0, 5.0, 5.0, 5.0, 5.0, 6.0) // duplicate timestamps on lo
	f.Add(-1.0, 0.0, 1.0, 2.0, -3.0, -2.0)
	f.Add(0.0, 3.0, 3.0, 3.0, 1.0, 3.0) // duplicate timestamps on hi
	f.Fuzz(func(t *testing.T, t0, t1, t2, q, lo, hi float64) {
		tr := Trajectory{ID: 0}
		for _, tm := range []float64{t0, t1, t2} {
			tr.Samples = append(tr.Samples, Sample{Time: tm})
		}
		tr.SortSamples()
		for i := range tr.Samples {
			tr.Samples[i].P.X = float64(i) // tell duplicate timestamps apart
		}
		p, ok := tr.LocationAt(q)
		start, end, _ := tr.Lifespan()
		if ok && (q < start || q > end) {
			t.Fatalf("extrapolated outside [%v,%v] at %v -> %v", start, end, q, p)
		}
		if !ok && q >= start && q <= end && !anyNaN(t0, t1, t2, q) {
			t.Fatalf("refused interpolation inside lifespan at %v", q)
		}
		w := tr.Window(lo, hi)
		if anyNaN(t0, t1, t2, q, lo, hi) || lo > hi {
			return
		}
		probes := []float64{lo, hi}
		if q >= lo && q <= hi {
			probes = append(probes, q)
		}
		checkWindow(t, &tr, lo, hi, w, probes)
	})
}

func anyNaN(vs ...float64) bool {
	for _, v := range vs {
		if v != v {
			return true
		}
	}
	return false
}

package main

import (
	"testing"
	"time"
)

// fakeClock is a pacer clock driven by the test: sleeping advances it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) work(d time.Duration)    { c.t = c.t.Add(d) }
func (c *fakeClock) since(t time.Time) int64 { return int64(c.t.Sub(t) / time.Millisecond) }

func testPacer(c *fakeClock, period time.Duration) *pacer {
	p := newPacer(c.t, period)
	p.now, p.sleep = c.now, c.sleep
	return p
}

// TestOpenLoopChargesStalls: a stall makes the operations behind it late,
// and their latency, taken from the due time, includes that wait.
func TestOpenLoopChargesStalls(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	p := testPacer(c, 10*time.Millisecond)
	service := []time.Duration{2, 35, 2, 2, 2, 2} // ms; operation 1 stalls
	var lat, late []int64
	for i, s := range service {
		due, l := p.wait(i)
		c.work(s * time.Millisecond)
		lat = append(lat, c.since(due))
		late = append(late, int64(l/time.Millisecond))
	}
	// Operation 1 ends at 45 ms; 2 (due 20) starts at 45, 3 (due 30) at 47,
	// 4 (due 40) at 49 and 5 (due 50) at 51: the backlog drains by 8 ms a
	// period.
	wantLat := []int64{2, 35, 27, 19, 11, 3}
	wantLate := []int64{0, 0, 25, 17, 9, 1}
	for i := range service {
		if lat[i] != wantLat[i] || late[i] != wantLate[i] {
			t.Fatalf("op %d: latency %d ms late %d ms, want %d and %d (all: %v %v)",
				i, lat[i], late[i], wantLat[i], wantLate[i], lat, late)
		}
	}
}

// TestOpenLoopDoesNotSlowDown: early operations wait for their due time,
// so the offered rate stays the schedule's.
func TestOpenLoopDoesNotSlowDown(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	start := c.t
	p := testPacer(c, 10*time.Millisecond)
	for i := 0; i < 5; i++ {
		due, late := p.wait(i)
		if late != 0 || !c.t.Equal(due) || due.Sub(start) != time.Duration(i)*10*time.Millisecond {
			t.Fatalf("op %d: due %v now %v late %v", i, due.Sub(start), c.t.Sub(start), late)
		}
		c.work(time.Millisecond)
	}
}

// TestClosedLoopDueAtCompletion: with no period, an operation is due when
// the previous one completed, and lateness is the gap the caller left.
func TestClosedLoopDueAtCompletion(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	p := testPacer(c, 0)
	for i := 0; i < 3; i++ {
		due, late := p.wait(i)
		var gap time.Duration
		if i > 0 {
			gap = time.Millisecond
		}
		if late != gap || !due.Equal(c.t.Add(-gap)) {
			t.Fatalf("op %d: due %v late %v, want the previous completion and %v", i, due, late, gap)
		}
		c.work(7 * time.Millisecond)
		p.complete()
		c.work(time.Millisecond) // the caller's bookkeeping between operations
	}
}

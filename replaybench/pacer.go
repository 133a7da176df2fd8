package main

import (
	"sync/atomic"
	"time"
)

// pacer is an open-loop schedule: operation i is due at start+i·period
// whatever happened to the operations before it, so a stall makes later
// operations late instead of slowing the offered load. Latencies are taken
// from the due time, which charges that wait to every operation behind the
// stall. A zero period is a closed loop: operation i is due when operation
// i-1 completed, so its lateness is the generator's own overhead between
// the two.
type pacer struct {
	start  time.Time
	period time.Duration
	ready  time.Time // closed loop: when the previous operation completed
	now    func() time.Time
	sleep  func(time.Duration)
}

func newPacer(start time.Time, period time.Duration) *pacer {
	return &pacer{start: start, period: period, ready: start, now: time.Now, sleep: time.Sleep}
}

// due returns when operation i is due.
func (p *pacer) due(i int) time.Time {
	if p.period == 0 {
		return p.ready
	}
	return p.start.Add(time.Duration(i) * p.period)
}

// wait blocks until operation i is due and returns its due time and how
// late the caller reached it (zero when it had to sleep).
func (p *pacer) wait(i int) (due time.Time, late time.Duration) {
	due = p.due(i)
	now := p.now()
	if d := due.Sub(now); d > 0 {
		p.sleep(d)
		return due, 0
	}
	return due, now.Sub(due)
}

// complete records that the current operation finished, which is when a
// closed loop's next operation is due.
func (p *pacer) complete() {
	if p.period == 0 {
		p.ready = p.now()
	}
}

// pollEvery is how often the visibility watcher reads the tick frontier
// while a batch is outstanding: well under the lags it measures (tens of
// milliseconds). The watcher sleeps on a channel while nothing is
// outstanding; every wakeup of an idle vCPU is a chance for the hypervisor
// to run another guest first, which shows up as CPU steal in every timing.
const pollEvery = time.Millisecond

// visibility measures ingest-to-visible lag: batch i is visible once the
// tick frontier covers its last tick. The feed publishes each batch's due
// time and frontier target before offering it; one watcher goroutine polls
// the frontier and stamps the time each batch became visible.
type visibility struct {
	frontier func() int
	due      []time.Time
	need     []int // frontier (in ticks) at which batch i is visible
	seen     []time.Time
	publ     atomic.Int64  // batches published by the feed
	kick     chan struct{} // wakes an idle watcher after a publish
	done     chan struct{}
	stop     chan struct{}
}

func newVisibility(n int, frontier func() int) *visibility {
	return &visibility{
		frontier: frontier,
		due:      make([]time.Time, n),
		need:     make([]int, n),
		seen:     make([]time.Time, n),
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
	}
}

// publish registers batch i, due at due and visible once the frontier
// reaches need ticks. Batches are published in order.
func (v *visibility) publish(i int, due time.Time, need int) {
	v.due[i], v.need[i] = due, need
	v.publ.Store(int64(i + 1))
	select {
	case v.kick <- struct{}{}:
	default:
	}
}

// watch stamps batches as they become visible, until every batch is or
// abort is called; run it on its own goroutine.
func (v *visibility) watch() {
	defer close(v.done)
	next := 0
	for next < len(v.due) {
		published := int(v.publ.Load())
		if next == published {
			select {
			case <-v.stop:
				return
			case <-v.kick:
			}
			continue
		}
		f := v.frontier()
		now := time.Now()
		for next < published && v.need[next] <= f {
			v.seen[next] = now
			next++
		}
		if next < published {
			select {
			case <-v.stop:
				return
			default:
			}
			time.Sleep(pollEvery)
		}
	}
}

// wait blocks until the watcher has seen every batch.
func (v *visibility) wait() { <-v.done }

// abort stops the watcher early (a failed round) and waits for it.
func (v *visibility) abort() {
	close(v.stop)
	<-v.done
}

// lags returns each visible batch's lag from its due time.
func (v *visibility) lags() []time.Duration {
	out := make([]time.Duration, 0, len(v.due))
	for i, s := range v.seen {
		if !s.IsZero() {
			out = append(out, s.Sub(v.due[i]))
		}
	}
	return out
}

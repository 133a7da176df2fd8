// Package rpc is the cluster's HTTP data plane: a per-peer client that
// forwards ingest sub-batches with per-request deadlines, capped
// exponential backoff with seeded jitter and a circuit breaker, plus
// the scatter-gather reads — the retry/timeout machinery a cluster of
// gatherserve nodes needs to survive each other's failures.
package rpc

import (
	"math/rand"
	"time"
)

// Backoff produces capped exponential retry delays with equal jitter: the
// n-th delay is drawn uniformly from [d/2, d) where d = min(Cap, Base·2ⁿ).
// Jitter is what keeps N producers retrying against one recovering node
// from synchronising into retry waves; seeding it is what keeps tests
// replayable. A Backoff is confined to one goroutine (each retry loop owns
// its own).
type Backoff struct {
	base, cap time.Duration
	rng       *rand.Rand
	attempt   int
}

// NewBackoff returns a backoff starting at base, capped at cap, with
// jitter drawn from seed. Non-positive base or cap fall back to 10ms/5s.
func NewBackoff(base, cap time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if cap <= 0 {
		cap = 5 * time.Second
	}
	if cap < base {
		cap = base
	}
	return &Backoff{base: base, cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next delay and advances the attempt counter.
func (b *Backoff) Next() time.Duration {
	d := b.base
	if b.attempt > 0 {
		shift := b.attempt
		if shift > 30 { // past any realistic cap; avoid overflow
			shift = 30
		}
		d = b.base << shift
		if d > b.cap || d <= 0 {
			d = b.cap
		}
	}
	b.attempt++
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(b.rng.Int63n(int64(half)))
}

// Reset restarts the schedule after a success.
func (b *Backoff) Reset() { b.attempt = 0 }

package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/stats"
)

// HTTP surface of the cluster data plane, shared by client and server.
const (
	// ForwardPath accepts one ingest sub-batch (a WAL record payload:
	// seq | domain | trajectories) by POST.
	ForwardPath = "/cluster/forward"
	// LocalPath answers GET with the node's full unfiltered local crowd
	// set in the gob wire format.
	LocalPath = "/cluster/local"

	// HeaderProducer names the sending producer; a node accepts forwards
	// from exactly one producer per run (the single ingest front).
	HeaderProducer = "X-Gather-Producer"
	// HeaderMapVersion carries the sender's membership-map version; a
	// receiver running a different map refuses the request with 409.
	HeaderMapVersion = "X-Gather-Map-Version"
	// HeaderSeq duplicates the payload's sequence number for logs.
	HeaderSeq = "X-Gather-Seq"
)

// ErrBreakerOpen is returned by Get when the peer's circuit breaker is
// refusing requests.
var ErrBreakerOpen = errors.New("rpc: circuit breaker open")

// PeerConfig configures one Peer. Zero durations and counts take the
// documented defaults.
type PeerConfig struct {
	// ID and Addr identify the remote node (Addr is host:port; the client
	// speaks plain HTTP to it).
	ID   string
	Addr string
	// Producer is the local producer name stamped on every forward, the
	// key of the receiver's (producer, seq) idempotency contract.
	Producer string
	// MapVersion is the local membership-map version; both sides must
	// agree or the receiver answers 409 and the item is dropped.
	MapVersion int
	// Client is the HTTP client to use; nil gets a private one.
	Client *http.Client
	// Counters receives forward/breaker counts; nil counts into a
	// private sink.
	Counters *stats.ClusterCounters
	// BreakerThreshold consecutive failures open the circuit breaker;
	// BreakerCooldown is how long it stays open before a half-open probe.
	// Defaults: 5 and 3s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// AttemptTimeout bounds one HTTP attempt (default 2s). ForwardDeadline
	// bounds the total retry wall-time for one forwarded item (default
	// 30s): a peer down longer than this loses the item — counted in
	// ForwardsDropped and logged, never silent.
	AttemptTimeout  time.Duration
	ForwardDeadline time.Duration
	// QueueDepth is the forward queue capacity (default 256). When the
	// queue is full Forward blocks: backpressure reaches the ingest loop
	// rather than growing memory without bound.
	QueueDepth int
	// Seed seeds the retry-jitter generator (testability; 0 is fine).
	Seed int64
	// Logf receives drop and breaker-transition messages; nil discards.
	Logf func(format string, args ...any)
}

type forwardItem struct {
	seq     uint64
	payload []byte
}

// Peer is the client side of one remote node: an ordered forwarding queue
// drained by a single goroutine with retry, backoff and a circuit
// breaker, plus single-attempt reads for the scatter-gather query path.
//
// Forward delivery is strictly in sequence order per peer — a later item
// is not attempted until the earlier one is delivered or dropped — which
// is what lets a restarted receiver replay its WAL and resume from the
// exact seq the front is still retrying.
type Peer struct {
	cfg      PeerConfig
	client   *http.Client
	counters *stats.ClusterCounters
	breaker  *Breaker

	// q feeds the forwarder goroutine; done closes when it drains after
	// Close. A single dispatcher goroutine owns the sending side: no
	// Forward may be called after Close.
	q    chan forwardItem
	done chan struct{}
}

// NewPeer starts the peer's forwarder goroutine.
func NewPeer(cfg PeerConfig) *Peer {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Counters == nil {
		cfg.Counters = &stats.ClusterCounters{}
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 2 * time.Second
	}
	if cfg.ForwardDeadline <= 0 {
		cfg.ForwardDeadline = 30 * time.Second
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	p := &Peer{
		cfg:      cfg,
		client:   cfg.Client,
		counters: cfg.Counters,
		breaker:  NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Counters),
		q:        make(chan forwardItem, cfg.QueueDepth),
		done:     make(chan struct{}),
	}
	go p.forward()
	return p
}

// Forward enqueues one sub-batch payload (wal.EncodePayload of seq and
// the sub-batch) for ordered delivery. It blocks when the queue is full —
// backpressure, not unbounded buffering. The payload must not be mutated
// after the call. Forward must not be called after Close.
func (p *Peer) Forward(seq uint64, payload []byte) {
	p.q <- forwardItem{seq: seq, payload: payload}
}

// Close stops accepting forwards, waits for the queue to drain (each
// remaining item still gets its full retry budget) and returns.
func (p *Peer) Close() {
	close(p.q)
	<-p.done
}

// State exposes the breaker position for /stats and /healthz.
func (p *Peer) State() BreakerState { return p.breaker.State() }

// ID returns the remote node's ID.
func (p *Peer) ID() string { return p.cfg.ID }

// forward drains the queue in order, delivering each item with retries
// until success, permanent rejection, or the forward deadline.
func (p *Peer) forward() {
	defer close(p.done)
	for it := range p.q {
		p.deliver(it)
	}
}

// deliver pushes one item until it is accepted (204; duplicates included,
// that is the idempotency contract), permanently refused (409/400: map
// mismatch, foreign producer or corrupt payload — retrying cannot help),
// or the deadline passes.
func (p *Peer) deliver(it forwardItem) {
	deadline := time.Now().Add(p.cfg.ForwardDeadline)
	bo := NewBackoff(0, 0, p.cfg.Seed^int64(it.seq))
	for attempt := 0; ; attempt++ {
		if p.breaker.Allow() {
			status, err := p.post(it)
			switch {
			case err == nil && (status == http.StatusNoContent || status == http.StatusOK):
				p.breaker.Report(true)
				p.counters.ForwardsSent.Add(1)
				return
			case err == nil && (status == http.StatusConflict || status == http.StatusBadRequest):
				// The peer answered decisively: retrying the same bytes
				// cannot succeed. Alive as far as the breaker cares.
				p.breaker.Report(true)
				p.counters.ForwardsDropped.Add(1)
				p.cfg.Logf("rpc: peer %s refused seq %d with %d, dropping", p.cfg.ID, it.seq, status)
				return
			default:
				p.breaker.Report(false)
			}
		}
		if time.Now().After(deadline) {
			p.counters.ForwardsDropped.Add(1)
			p.cfg.Logf("rpc: peer %s unreachable for %v, dropping seq %d after %d attempts",
				p.cfg.ID, p.cfg.ForwardDeadline, it.seq, attempt+1)
			return
		}
		p.counters.ForwardsRetried.Add(1)
		time.Sleep(bo.Next())
	}
}

// post performs one forward attempt under the attempt timeout.
func (p *Peer) post(it forwardItem) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+p.cfg.Addr+ForwardPath, bytes.NewReader(it.payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HeaderProducer, p.cfg.Producer)
	req.Header.Set(HeaderMapVersion, fmt.Sprint(p.cfg.MapVersion))
	req.Header.Set(HeaderSeq, fmt.Sprint(it.seq))
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 500 {
		return resp.StatusCode, fmt.Errorf("rpc: peer %s answered %s", p.cfg.ID, resp.Status)
	}
	return resp.StatusCode, nil
}

// Get fetches pathAndQuery from the peer in one attempt bounded by
// AttemptTimeout and reports the outcome to the breaker. Fails fast
// with ErrBreakerOpen while the breaker refuses the peer.
func (p *Peer) Get(ctx context.Context, pathAndQuery string) ([]byte, error) {
	if !p.breaker.Allow() {
		return nil, fmt.Errorf("peer %s: %w", p.cfg.ID, ErrBreakerOpen)
	}
	actx, cancel := context.WithTimeout(ctx, p.cfg.AttemptTimeout)
	defer cancel()
	body, err := p.get(actx, pathAndQuery)
	p.breaker.Report(err == nil)
	return body, err
}

// get performs one GET attempt.
func (p *Peer) get(ctx context.Context, pathAndQuery string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+p.cfg.Addr+pathAndQuery, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderMapVersion, fmt.Sprint(p.cfg.MapVersion))
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rpc: peer %s answered %s: %.200s", p.cfg.ID, resp.Status, body)
	}
	return body, nil
}

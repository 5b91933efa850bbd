package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// PeerError is a typed error answer from a peer's partial endpoint.
type PeerError struct {
	Status int
	Code   string
	Msg    string
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("peer status %d (%s): %s", e.Status, e.Code, e.Msg)
}

// fatal reports whether retrying the same replica cannot help: the peer
// understood the request and rejected it. 5xx and transport errors stay
// retryable.
func (e *PeerError) fatal() bool { return e.Status >= 400 && e.Status < 500 }

// PeerStats is one peer's client-side counter snapshot.
type PeerStats struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// Requests counts attempts sent (including retries and hedges).
	Requests uint64 `json:"requests"`
	// Errors counts failed attempts (transport, 5xx, bad body).
	Errors uint64 `json:"errors"`
	// Retries counts re-attempts against the same replica.
	Retries uint64 `json:"retries"`
	// Hedges counts speculative requests started on this peer because an
	// earlier replica was slow (hedge timer), not failed.
	Hedges uint64 `json:"hedges"`
	// Failovers counts requests this peer answered after every earlier
	// replica in the chain had failed.
	Failovers uint64 `json:"failovers"`
	// LatencyTotalMicros sums the latency of successful attempts;
	// divide by Successes for the mean.
	LatencyTotalMicros uint64 `json:"latency_total_micros"`
	Successes          uint64 `json:"successes"`
}

type peerCounters struct {
	requests, errors, retries, hedges, failovers atomic.Uint64
	latencyMicros, successes                     atomic.Uint64
}

// Client executes partial requests against replica chains with
// per-attempt timeouts, bounded retries with exponential backoff,
// hedging, and failover. One Client serves all of a coordinator's
// peers, sharing one connection pool.
type Client struct {
	hc *http.Client

	mu      sync.Mutex
	tuning  *Config
	counter map[string]*peerCounters // by node name
	addrs   map[string]string        // last seen addr by node name
}

// maxPeerConns is how many partial requests one cluster call keeps in
// flight at once (retries and hedges aside), and so the most it keeps
// open to any one peer; the transport keeps as many idle connections
// per peer, so those requests reuse a fixed pool.
const maxPeerConns = 16

// NewClient builds a client tuned by cfg's timeout/retry/hedge fields.
func NewClient(cfg *Config) *Client {
	return &Client{
		hc: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: maxPeerConns,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		tuning:  cfg,
		counter: make(map[string]*peerCounters),
		addrs:   make(map[string]string),
	}
}

// Retune swaps the timeout/retry/hedge parameters (assignment reload);
// the connection pool and counters survive.
func (c *Client) Retune(cfg *Config) {
	c.mu.Lock()
	c.tuning = cfg
	c.mu.Unlock()
}

func (c *Client) params() *Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tuning
}

func (c *Client) counters(n Node) *peerCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	pc, ok := c.counter[n.Name]
	if !ok {
		pc = &peerCounters{}
		c.counter[n.Name] = pc
	}
	c.addrs[n.Name] = n.Addr
	return pc
}

// Stats snapshots per-peer counters, sorted by node name.
func (c *Client) Stats() []PeerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PeerStats, 0, len(c.counter))
	for name, pc := range c.counter {
		out = append(out, PeerStats{
			Name:               name,
			Addr:               c.addrs[name],
			Requests:           pc.requests.Load(),
			Errors:             pc.errors.Load(),
			Retries:            pc.retries.Load(),
			Hedges:             pc.hedges.Load(),
			Failovers:          pc.failovers.Load(),
			LatencyTotalMicros: pc.latencyMicros.Load(),
			Successes:          pc.successes.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// do sends one partial request attempt to one peer.
func (c *Client) do(ctx context.Context, n Node, req *PartialRequest, timeout time.Duration) (*PartialResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+n.Addr+"/internal/v1/partial", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		_ = json.Unmarshal(data, &eb)
		if eb.Code == "" {
			eb.Code = "unknown"
		}
		return nil, &PeerError{Status: resp.StatusCode, Code: eb.Code, Msg: eb.Error}
	}
	// Strict decode: a truncated or trailing-garbage body is a failed
	// attempt, not a half-answer.
	dec := json.NewDecoder(resp.Body)
	var pr PartialResponse
	if err := dec.Decode(&pr); err != nil {
		return nil, fmt.Errorf("decoding partial response from %s: %w", n.Addr, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data in partial response from %s", n.Addr)
	}
	return &pr, nil
}

// Fetch executes one partial request against a replica chain, primary
// first. Each replica gets 1+retries attempts with exponential backoff;
// replica i+1 starts when replica i's chain-so-far has exhausted its
// attempts (failover) or — with hedging enabled — after i hedge delays
// without an answer. The first response that passes decode wins and
// cancels the rest. decode validates and transforms the body; a decode
// failure (bad frame, wrong shard set) counts as a failed attempt, so a
// replica returning garbage fails over like a dead one.
func (c *Client) Fetch(ctx context.Context, chain []Node, req *PartialRequest, decode func(*PartialResponse) (any, error)) (any, error) {
	if len(chain) == 0 {
		return nil, errors.New("cluster: empty replica chain")
	}
	p := c.params()
	timeout, retries, backoff, hedge := p.Timeout(), p.RetryBudget(), p.Backoff(), p.Hedge()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		idx int
		val any
		err error
	}
	results := make(chan outcome, len(chain))
	// exhausted[i] closes once replica i has failed every attempt, never
	// when it answers: a winning replica cancels ctx instead, so the
	// next replica is not started only to be cancelled.
	exhausted := make([]chan struct{}, len(chain))
	for i := range exhausted {
		exhausted[i] = make(chan struct{})
	}

	attempt := func(i int, n Node, hedged bool) {
		pc := c.counters(n)
		if hedged {
			pc.hedges.Add(1)
		}
		var lastErr error
		for try := 0; try <= retries; try++ {
			if try > 0 {
				pc.retries.Add(1)
				select {
				case <-time.After(backoff << (try - 1)):
				case <-ctx.Done():
					return
				}
			}
			pc.requests.Add(1)
			start := time.Now()
			resp, err := c.do(ctx, n, req, timeout)
			if err == nil {
				var val any
				if val, err = decode(resp); err == nil {
					pc.successes.Add(1)
					pc.latencyMicros.Add(uint64(time.Since(start).Microseconds()))
					if i > 0 {
						pc.failovers.Add(1)
					}
					results <- outcome{idx: i, val: val}
					return
				}
			}
			if ctx.Err() != nil {
				// Cancelled because another replica already won; don't
				// count the abandoned attempt as a peer failure.
				return
			}
			pc.errors.Add(1)
			lastErr = err
			var pe *PeerError
			if errors.As(err, &pe) && pe.fatal() {
				break
			}
		}
		close(exhausted[i])
		results <- outcome{idx: i, err: lastErr}
	}

	go attempt(0, chain[0], false)
	for i := 1; i < len(chain); i++ {
		go func(i int, n Node) {
			var hedgeC <-chan time.Time
			if hedge > 0 {
				t := time.NewTimer(time.Duration(i) * hedge)
				defer t.Stop()
				hedgeC = t.C
			}
			prevDone := make(chan struct{})
			go func(i int) {
				for j := 0; j < i; j++ {
					select {
					case <-exhausted[j]:
					case <-ctx.Done():
						return
					}
				}
				close(prevDone)
			}(i)
			hedged := false
			select {
			case <-hedgeC:
				hedged = true
			case <-prevDone:
			case <-ctx.Done():
				close(exhausted[i])
				return
			}
			attempt(i, n, hedged)
		}(i, chain[i])
	}

	var lastErr error
	failures := 0
	for failures < len(chain) {
		select {
		case out := <-results:
			if out.err == nil {
				return out.val, nil
			}
			failures++
			lastErr = out.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: all replicas failed")
	}
	return nil, fmt.Errorf("cluster: replica chain exhausted: %w", lastErr)
}

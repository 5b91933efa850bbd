package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geoblocks"
	"geoblocks/internal/cluster"
	"geoblocks/internal/geom"
	"geoblocks/internal/httpapi"
	"geoblocks/internal/store"
)

// flakyProxy sits between the coordinator and one peer and injects the
// failure modes the replica client must survive: dropped connections,
// long delays, 5xx answers, truncated bodies and corrupt accumulator
// frames. A budget of -1 applies the mode to every request; a positive
// budget fails that many requests, then forwards cleanly.
type flakyProxy struct {
	backend string
	srv     *httptest.Server

	mu     sync.Mutex
	mode   string
	budget int
	delay  time.Duration

	hits atomic.Uint64
	// inflight counts requests being served; peak is its high-water mark.
	inflight, peak atomic.Int64
}

func newFlakyProxy(t *testing.T, backend string) *flakyProxy {
	t.Helper()
	p := &flakyProxy{backend: backend, mode: "ok"}
	p.srv = httptest.NewServer(http.HandlerFunc(p.serve))
	t.Cleanup(p.srv.Close)
	return p
}

func (p *flakyProxy) addr() string { return p.srv.Listener.Addr().String() }

func (p *flakyProxy) arm(mode string, budget int, delay time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mode, p.budget, p.delay = mode, budget, delay
}

// take consumes one unit of the failure budget.
func (p *flakyProxy) take() (string, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mode == "ok" || p.budget == 0 {
		return "ok", 0
	}
	if p.budget > 0 {
		p.budget--
	}
	return p.mode, p.delay
}

func (p *flakyProxy) serve(w http.ResponseWriter, r *http.Request) {
	p.hits.Add(1)
	n := p.inflight.Add(1)
	defer p.inflight.Add(-1)
	for m := p.peak.Load(); n > m && !p.peak.CompareAndSwap(m, n); m = p.peak.Load() {
	}
	mode, delay := p.take()
	switch mode {
	case "drop":
		// Kill the connection without an HTTP answer: the client sees a
		// transport error, like a peer that just died.
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
		return
	case "err5xx":
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"injected server error"}`)
		return
	case "delay":
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
	}

	status, body, err := p.forward(r)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	switch mode {
	case "truncate":
		// Advertise the full length, send half, slam the connection: the
		// client's strict decoder must treat this as a failed attempt.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		w.WriteHeader(status)
		w.Write(body[:len(body)/2])
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
		return
	case "badframe":
		// Valid envelope, corrupt accumulator frame: only the
		// coordinator's frame CRC can catch this.
		var pr cluster.PartialResponse
		if status == http.StatusOK && json.Unmarshal(body, &pr) == nil && len(pr.Shards) > 0 && len(pr.Shards[0].Partial) > 0 {
			pr.Shards[0].Partial[len(pr.Shards[0].Partial)-1] ^= 0xFF
			body, _ = json.Marshal(pr)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func (p *flakyProxy) forward(r *http.Request) (int, []byte, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post("http://"+p.backend+r.URL.Path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}

// faultCluster is the fault-injection topology: two full-replica data
// peers behind flaky proxies, and a pure-router coordinator (with its
// own HTTP server, for the typed-503 assertions) that reaches every
// shard through the proxies.
type faultCluster struct {
	co      *cluster.Coordinator
	coSrv   *httptest.Server
	proxies []*flakyProxy
	control *store.Dataset
}

func startFaultCluster(t *testing.T, rows int, tune func(*cluster.Config)) *faultCluster {
	t.Helper()
	opts := store.Options{Level: 12, ShardLevel: 2}
	const seed = 23

	cfg := &cluster.Config{Epoch: 1, Replication: 2, TimeoutMS: 2000, BackoffMS: 1}
	var proxies []*flakyProxy
	names := []string{"a", "b"}
	for _, name := range names {
		st := store.New()
		if err := st.Add(buildDataset(t, rows, seed, opts)); err != nil {
			t.Fatalf("Add: %v", err)
		}
		cfg.Nodes = append(cfg.Nodes, cluster.Node{Name: name}) // addr filled below
		// The peer needs a coordinator only so its handler serves
		// /internal/v1/partial under the right epoch; it never dials out.
		co, err := cluster.New(st, &cluster.Config{Epoch: 1, Nodes: []cluster.Node{{Name: name, Addr: "unused:1"}}}, name)
		if err != nil {
			t.Fatalf("peer coordinator %s: %v", name, err)
		}
		srv := httptest.NewServer(httpapi.NewHandler(st, httpapi.Config{Cluster: co}))
		t.Cleanup(srv.Close)
		proxies = append(proxies, newFlakyProxy(t, srv.Listener.Addr().String()))
	}
	for i := range cfg.Nodes {
		cfg.Nodes[i].Addr = proxies[i].addr()
	}
	if tune != nil {
		tune(cfg)
	}

	st := store.New()
	if err := st.Add(buildDataset(t, rows, seed, opts)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	co, err := cluster.New(st, cfg, "")
	if err != nil {
		t.Fatalf("router coordinator: %v", err)
	}
	coSrv := httptest.NewServer(httpapi.NewHandler(st, httpapi.Config{Cluster: co, Coordinator: true}))
	t.Cleanup(coSrv.Close)

	return &faultCluster{
		co:      co,
		coSrv:   coSrv,
		proxies: proxies,
		control: buildDataset(t, rows, seed, opts),
	}
}

// fullRect covers the whole domain, so every shard is in the scatter.
var fullRect = geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}

func (fc *faultCluster) queryBoth(t *testing.T, label string) geoblocks.Result {
	t.Helper()
	want, err := fc.control.QueryRectOpts(fullRect, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("%s: control: %v", label, err)
	}
	got, err := fc.co.QueryRect(context.Background(), "taxi", fullRect, geoblocks.QueryOptions{}, testReqs)
	if err != nil {
		t.Fatalf("%s: cluster: %v", label, err)
	}
	assertSame(t, got, want, label)
	return got
}

func sumStats(co *cluster.Coordinator) (retries, hedges, failovers, errs uint64) {
	for _, p := range co.Stats().Peers {
		retries += p.Retries
		hedges += p.Hedges
		failovers += p.Failovers
		errs += p.Errors
	}
	return
}

// TestFaultRetryRecovers: a transient 5xx on the first attempt is
// absorbed by the per-replica retry budget without changing the answer.
func TestFaultRetryRecovers(t *testing.T) {
	fc := startFaultCluster(t, 3000, func(c *cluster.Config) { c.Retries = 2 })
	for _, p := range fc.proxies {
		p.arm("err5xx", 1, 0)
	}
	fc.queryBoth(t, "retry after 5xx")
	retries, _, _, errs := sumStats(fc.co)
	if retries == 0 {
		t.Errorf("no retries recorded after injected 5xx")
	}
	if errs == 0 {
		t.Errorf("no errors recorded after injected 5xx")
	}
}

// TestFaultFailover: a peer that drops every connection is replaced by
// the next replica in the chain; when it comes back, queries keep
// working.
func TestFaultFailover(t *testing.T) {
	fc := startFaultCluster(t, 3000, func(c *cluster.Config) { c.Retries = -1 })
	fc.proxies[0].arm("drop", -1, 0)
	fc.queryBoth(t, "failover around dead peer")
	_, _, failovers, _ := sumStats(fc.co)
	if failovers == 0 {
		t.Errorf("no failovers recorded with peer a down")
	}
	fc.proxies[0].arm("ok", 0, 0)
	fc.queryBoth(t, "after peer recovery")
}

// TestFaultHedge: a slow (not dead) peer is raced by a hedged request
// on the next replica, so the query completes long before the slow
// peer's delay.
func TestFaultHedge(t *testing.T) {
	fc := startFaultCluster(t, 3000, func(c *cluster.Config) {
		c.Retries = -1
		c.HedgeMS = 5
		c.TimeoutMS = 5000
	})
	fc.proxies[0].arm("delay", -1, 2*time.Second)
	start := time.Now()
	fc.queryBoth(t, "hedged around slow peer")
	elapsed := time.Since(start)
	_, hedges, _, _ := sumStats(fc.co)
	if hedges == 0 {
		t.Errorf("no hedged requests recorded with peer a slow")
	}
	if elapsed >= 1500*time.Millisecond {
		t.Errorf("hedged query took %v; the 2s delay leaked into the answer path", elapsed)
	}
}

// TestFaultTruncatedBody: a response cut off mid-body is a failed
// attempt — the strict decoder refuses it and the retry gets the real
// answer.
func TestFaultTruncatedBody(t *testing.T) {
	fc := startFaultCluster(t, 3000, func(c *cluster.Config) { c.Retries = 2 })
	for _, p := range fc.proxies {
		p.arm("truncate", 1, 0)
	}
	fc.queryBoth(t, "retry after truncated body")
	_, _, _, errs := sumStats(fc.co)
	if errs == 0 {
		t.Errorf("no errors recorded after truncated responses")
	}
}

// TestFaultBadFrame: a peer returning a corrupt accumulator frame
// (valid JSON envelope, bad CRC) must be treated exactly like a dead
// one — failover, never a silently wrong merge.
func TestFaultBadFrame(t *testing.T) {
	fc := startFaultCluster(t, 3000, func(c *cluster.Config) { c.Retries = -1 })
	fc.proxies[0].arm("badframe", -1, 0)
	fc.queryBoth(t, "failover around corrupt frames")
	_, _, _, errs := sumStats(fc.co)
	if errs == 0 {
		t.Errorf("no errors recorded though peer a served corrupt frames")
	}
}

// TestFaultUnavailable: with every replica of a shard down the query is
// refused with per-shard attribution — in process as UnavailableError,
// over HTTP as a typed 503 naming the shards — and never answered
// partially.
func TestFaultUnavailable(t *testing.T) {
	fc := startFaultCluster(t, 3000, func(c *cluster.Config) { c.Retries = -1 })
	for _, p := range fc.proxies {
		p.arm("drop", -1, 0)
	}

	_, err := fc.co.QueryRect(context.Background(), "taxi", fullRect, geoblocks.QueryOptions{}, testReqs)
	var ue *cluster.UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("query error = %v, want UnavailableError", err)
	}
	if len(ue.Shards) == 0 {
		t.Fatalf("UnavailableError names no shards")
	}
	if fc.co.Stats().Unavailable == 0 {
		t.Errorf("unavailable counter not bumped")
	}

	// The same failure over the public endpoint: typed 503 with the
	// machine-readable code and the shard list.
	body, _ := json.Marshal(map[string]any{
		"dataset": "taxi",
		"rect":    []float64{0, 0, 100, 100},
		"aggs":    []map[string]string{{"func": "count"}},
	})
	resp, err := http.Post(fc.coSrv.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var eb struct {
		Error  string   `json:"error"`
		Code   string   `json:"code"`
		Shards []string `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decoding 503 body: %v", err)
	}
	if eb.Code != cluster.CodeUnavailable {
		t.Errorf("code = %q, want %q", eb.Code, cluster.CodeUnavailable)
	}
	if len(eb.Shards) == 0 {
		t.Errorf("503 names no shards: %+v", eb)
	}

	// Recovery: both proxies healthy again, the same query answers and
	// matches the control.
	for _, p := range fc.proxies {
		p.arm("ok", 0, 0)
	}
	fc.queryBoth(t, "after full recovery")
}

// TestFaultJoinFanOutBounded: a cluster join packs its remote parts
// into partial requests per replica chain and keeps at most 16 of them
// in flight, so a slow peer sees at most 16 of one join's requests at
// once, not one per polygon; and a primary that answers never starts a
// request to the replica behind it.
func TestFaultJoinFanOutBounded(t *testing.T) {
	fc := startFaultCluster(t, 3000, func(c *cluster.Config) { c.Retries = -1 })
	for _, p := range fc.proxies {
		p.arm("delay", -1, 20*time.Millisecond)
	}
	rng := rand.New(rand.NewSource(5))
	polys := make([]*geom.Polygon, 100)
	for i := range polys {
		c := geom.Pt(10+rng.Float64()*80, 10+rng.Float64()*80)
		polys[i] = geoblocks.RegularPolygon(c, 2+rng.Float64()*8, 3+rng.Intn(6))
	}
	if _, _, err := fc.co.Join(context.Background(), "taxi", polys, geoblocks.QueryOptions{}, testReqs); err != nil {
		t.Fatalf("cluster join: %v", err)
	}
	for i, p := range fc.proxies {
		if peak := p.peak.Load(); peak == 0 || peak > 16 {
			t.Errorf("proxy %d: %d partial requests in flight at once, want 1..16", i, peak)
		}
	}
	// Every primary answered, so no replica behind it was ever started.
	for _, ps := range fc.co.Stats().Peers {
		if ps.Requests != ps.Successes {
			t.Errorf("peer %s: %d requests for %d answers", ps.Name, ps.Requests, ps.Successes)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/cover"
	"geoblocks/internal/geom"
	"geoblocks/internal/httpapi"
	"geoblocks/internal/resultcache"
	"geoblocks/internal/store"
)

// The traced pass times the layers from outside, around calls into their
// public functions; nothing inside the program records spans yet. It
// replays the first requests of a workload's stream against a dataset
// built in this process with the daemon's options, twice per request:
//
//	httpapi.handler  the real path: NewHandler(...).ServeHTTP on a recorder
//	store.query      the same query re-executed from public pieces, one
//	                 child span per layer call (the order QueryOpts uses:
//	                 result-cache lookup, cover, route, per-shard partial,
//	                 merge, result-cache store)
//
// plus "shadow" spans that re-run one layer alone for a number the real
// path does not expose (a shard's SELECT with and without its
// AggregateTrie cache, the partial wire codec, the shared-grid coverer of
// a join). Shadow spans hang off the request's root span, not off
// store.query, so they never count into its time.

// span is one timed interval. Spans of one request share Req; Parent is
// the ID of the span that caused this one, -1 for a request's root.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. With on false,
// begin and end do nothing: the untraced half of the replay runs the
// same code, which is how the pass measures its own overhead.
type tracer struct {
	t0    time.Time
	on    bool
	req   uint64
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: t.req, ID: len(t.spans), Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// replayer is the state of one traced pass.
type replayer struct {
	t       tracer
	ds      *store.Dataset
	handler http.Handler
	// mirror stands in for the dataset's own result cache in the
	// re-executed query: same configuration, same request sequence, so
	// the same hits and misses, but reachable from outside.
	mirror   *resultcache.Cache
	coverers map[int]*cover.Coverer
	dom      cellid.Domain
	reqs     []geoblocks.AggRequest
	aggsTag  string

	// Counts taken where the work happens, on traced requests only, so
	// that they divide by the same requests the spans cover.
	reqBytes, respBytes   int
	coverings, coverCells int
	routed, shardSubs     int
	selectCells           int
	shadowed              int // misses shadowSelect has seen: its parity picks the order
	wireBytes, wireFrames int
	levelSum              int
	// Time to replay a request (real path plus re-execution), split by
	// whether its spans were recorded: the difference is what tracing costs.
	traced, untraced hist
}

func newReplayer(ds *store.Dataset, st *store.Store) (*replayer, error) {
	mirror, err := resultcache.New(resultcache.Config{Dataset: "taxi", MaxBytes: resultCacheBytes, MinHits: resultCacheHits})
	if err != nil {
		return nil, err
	}
	dom, err := cellid.NewDomain(ds.Bound())
	if err != nil {
		return nil, err
	}
	reqs := loadRequests()
	tags := make([]string, len(reqs))
	for i, rq := range reqs {
		tags[i] = rq.String()
	}
	return &replayer{
		t:        tracer{t0: time.Now()},
		ds:       ds,
		handler:  httpapi.NewHandler(st, httpapi.Config{}),
		mirror:   mirror,
		coverers: map[int]*cover.Coverer{},
		dom:      dom,
		reqs:     reqs,
		aggsTag:  strings.Join(tags, ","),
	}, nil
}

func (p *replayer) coverer(lvl int) (*cover.Coverer, error) {
	if c, ok := p.coverers[lvl]; ok {
		return c, nil
	}
	c, err := cover.NewCoverer(p.dom, cover.DefaultOptions(lvl))
	if err == nil {
		p.coverers[lvl] = c
	}
	return c, err
}

// serve runs one request through the real handler under a span and
// returns the decoded answer.
func (p *replayer) serve(req request, parent int) (queryResponse, error) {
	var resp queryResponse
	hreq := httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body))
	hreq.Header.Set("Content-Type", req.ctype)
	rec := httptest.NewRecorder()
	id := p.t.begin("httpapi.handler", parent)
	p.handler.ServeHTTP(rec, hreq)
	p.t.end(id)
	if rec.Code != http.StatusOK {
		return resp, fmt.Errorf("handler answered %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if p.t.on {
		p.reqBytes += len(req.body)
		p.respBytes += rec.Body.Len()
	}
	return resp, json.Unmarshal(rec.Body.Bytes(), &resp)
}

// one replays request i: the real path, the re-execution, the shadows.
// Tracing is on for every other request of the traced pass and off
// throughout the warm-up.
func (p *replayer) one(i uint64, req request, warmUp bool) error {
	p.t.on, p.t.req = !warmUp && i%2 == 0, i
	polys := make([]*geom.Polygon, len(req.rings))
	for j, rg := range req.rings {
		var err error
		if polys[j], err = toPolygon(rg); err != nil {
			return err
		}
	}

	start := time.Now()
	root := p.t.begin("request", -1)
	defer p.t.end(root)
	got, err := p.serve(req, root)
	if err != nil {
		return err
	}
	qs := p.t.begin("store.query", root)
	var count uint64
	var miss *missed
	want := got.Result
	if req.kind == kindJoin {
		var res []geoblocks.Result
		id := p.t.begin("store.join", qs)
		res, _, err = p.ds.Join(polys, geoblocks.QueryOptions{MaxError: joinMaxError, DisableCache: true}, p.reqs...)
		p.t.end(id)
		if err == nil && len(got.Results) == len(res) {
			count, want = res[0].Count, &got.Results[0]
		}
	} else {
		count, miss, err = p.query(polys[0], qs)
	}
	p.t.end(qs)
	took := time.Since(start)
	if err != nil {
		return err
	}
	switch {
	case p.t.on:
		p.traced.record(took)
	case !warmUp:
		p.untraced.record(took)
	}
	// The re-execution is only worth timing if it computes what the real
	// path computed.
	if want == nil || want.Count != count {
		return fmt.Errorf("request %d: re-executed count %d differs from the handler's %+v", i, count, want)
	}
	if !p.t.on {
		return nil
	}
	if req.kind == kindJoin {
		return p.shadowJoin(req.rings, polys, root)
	}
	if miss != nil {
		return p.shadowSelect(miss, root)
	}
	return nil
}

// missed is the plan a result-cache miss executed, kept for the shadow
// spans.
type missed struct {
	lvl  int
	subs []store.ShardSub
}

// query re-executes one polygon query the way Dataset.QueryOpts does,
// from public calls, with one span per call.
func (p *replayer) query(poly *geom.Polygon, parent int) (uint64, *missed, error) {
	gen := p.mirror.Generation()
	lvl := p.ds.PlanLevel(0)

	id := p.t.begin("resultcache.lookup", parent)
	key := resultcache.PolygonKey(poly, lvl, 0, p.aggsTag)
	res, cells, bound, outcome := p.mirror.Lookup(key, gen)
	p.t.end(id)
	if outcome == resultcache.Hit {
		return res.Count, nil, nil
	}

	if outcome != resultcache.MissCovered {
		c, err := p.coverer(lvl)
		if err != nil {
			return 0, nil, err
		}
		id = p.t.begin("store.plan_cover", parent)
		cid := p.t.begin("cover.cover", id)
		cov := c.Cover(poly)
		p.t.end(cid)
		cells, bound = cov.Cells, c.GuaranteedErrorDistance(cov)
		p.t.end(id)
		p.noteCovering(lvl, len(cells))
	}

	id = p.t.begin("store.route", parent)
	subs := p.ds.ShardSubs(cells)
	p.t.end(id)
	if p.t.on {
		p.routed++
		p.shardSubs += len(subs)
	}
	if len(subs) == 0 {
		// A covering that misses every shard: any shard's empty partial
		// finalises the identity answer.
		subs = []store.ShardSub{{Cell: p.ds.ShardCells()[0]}}
	}

	accs := make([]*geoblocks.Accumulator, len(subs))
	for j, sub := range subs {
		id = p.t.begin("store.shard_partial", parent)
		acc, err := p.ds.ShardPartial(sub.Cell, sub.Sub, lvl, geoblocks.QueryOptions{}, p.reqs)
		p.t.end(id)
		if err != nil {
			return 0, nil, err
		}
		accs[j] = acc
	}

	id = p.t.begin("store.merge", parent)
	total := accs[0]
	for _, acc := range accs[1:] {
		if err := total.MergeFrom(acc); err != nil {
			return 0, nil, err
		}
	}
	res = total.Result()
	p.t.end(id)
	res.Level, res.ErrorBound = lvl, bound

	id = p.t.begin("resultcache.store", parent)
	p.mirror.Store(key, cells, bound, res, gen)
	p.t.end(id)
	return res.Count, &missed{lvl: lvl, subs: subs}, nil
}

// shadowSelect re-runs a miss's per-shard work twice more, once through
// the AggregateTrie cache (aggtrie.select) and once with it bypassed
// (core.select: the bare SELECT kernel plus delta merge). Both run after
// the real path has touched the same cells, and which goes first
// alternates from one miss to the next, so neither variant is the one
// that always finds the memory warm: their difference is what the cache
// adds. One partial also goes through the cluster wire codec.
func (p *replayer) shadowSelect(m *missed, root int) error {
	variants := [2]struct {
		name string
		opts geoblocks.QueryOptions
	}{
		{"aggtrie.select", geoblocks.QueryOptions{}},
		{"core.select", geoblocks.QueryOptions{DisableCache: true}},
	}
	if p.shadowed%2 == 1 {
		variants[0], variants[1] = variants[1], variants[0]
	}
	p.shadowed++
	var first *geoblocks.Accumulator
	for j, sub := range m.subs {
		for _, v := range variants {
			id := p.t.begin(v.name, root)
			acc, err := p.ds.ShardPartial(sub.Cell, sub.Sub, m.lvl, v.opts, p.reqs)
			p.t.end(id)
			if err != nil {
				return err
			}
			if j == 0 {
				first = acc
			}
		}
		p.selectCells += len(sub.Sub)
	}
	id := p.t.begin("core.wire_encode", root)
	frame := first.EncodePartial()
	p.t.end(id)
	id = p.t.begin("core.wire_decode", root)
	_, err := p.ds.DecodePartial(frame, p.reqs)
	p.t.end(id)
	p.wireBytes += len(frame)
	p.wireFrames++
	return err
}

// shadowJoin re-runs a join's covering step alone: the shared-grid
// coverer over the request's distinct polygons at the planned level.
func (p *replayer) shadowJoin(rings []ring, polys []*geom.Polygon, root int) error {
	lvl := p.ds.PlanLevel(joinMaxError)
	c, err := p.coverer(lvl)
	if err != nil {
		return err
	}
	// Pool rings share their backing arrays, so the first vertex's
	// address identifies a repeated polygon.
	seen := map[*[2]float64]bool{}
	var regions []cover.Region
	for j, rg := range rings {
		if !seen[&rg[0]] {
			seen[&rg[0]] = true
			regions = append(regions, polys[j])
		}
	}
	id := p.t.begin("cover.shared", root)
	sc := c.CoverShared(regions)
	p.t.end(id)
	for _, cov := range sc.Covers {
		p.noteCovering(lvl, cov.Len())
	}
	return nil
}

// noteCovering counts one computed covering of a traced request.
func (p *replayer) noteCovering(lvl, cells int) {
	if p.t.on {
		p.coverings++
		p.coverCells += cells
		p.levelSum += lvl
	}
}

// replay is the traced pass of a run. It fills the per-layer metrics
// and writes the spans to <out>/trace-<workload>.json.
func (r *run) replay() error {
	ds, st := r.o.ds, store.New()
	if r.w.mapped {
		// The layers under test are the mapped ones: serve the snapshot
		// the daemon wrote, under the budget the daemon ran with.
		st.EnableMmap(r.resAfter.BudgetBytes)
		start := time.Now()
		mapped, err := store.OpenMapped(filepath.Join(r.dataDir(), "taxi"), "taxi", st.Residency())
		if err != nil {
			return err
		}
		r.m["snapshot.open_mapped_ns"] = float64(time.Since(start))
		ds = mapped
	}
	if err := st.Add(ds); err != nil {
		return err
	}
	defer st.Close()
	p, err := newReplayer(ds, st)
	if err != nil {
		return err
	}
	if r.w.mapped {
		if err := r.replayFaults(p); err != nil {
			return err
		}
	}
	if r.w.ingests {
		if err := r.replayIngest(); err != nil {
			return err
		}
		defer ds.CloseWAL()
	}
	// The warm-up takes the requests after the traced ones, so that it
	// fills the caches without having seen any polygon the traced part
	// is supposed to see first.
	n := uint64(r.w.replayN / r.cfg.replayDiv)
	for i := n; i < n+uint64(r.w.replayWarm/r.cfg.replayDiv); i++ {
		if err := p.one(i, r.w.stream(r.g, i), true); err != nil {
			return err
		}
	}
	for i := uint64(0); i < n; i++ {
		if err := p.one(i, r.w.stream(r.g, i), false); err != nil {
			return err
		}
	}
	p.metrics(r.m, int(n+1)/2)
	if r.w.ingests {
		// What one tick of the daemon's compaction timer does: fold one
		// interval's rows into the base.
		start := time.Now()
		if _, err := ds.Compact(); err != nil {
			return err
		}
		r.m["compact.fold_ns"] = float64(time.Since(start))
	}
	return writeJSON(filepath.Join(r.cfg.outDir, "trace-"+r.w.name+".json"), struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{r.w.name, r.cfg.seed, p.t.spans})
}

// replayFaults times mapped_cold's first touches: each sweep request
// once cold and once more while its shard is still resident; the
// difference is what the fault cost.
func (r *run) replayFaults(p *replayer) error {
	var cold, resident time.Duration
	n := uint64(sweepGrid * sweepGrid)
	for j := uint64(0); j < n; j++ {
		req := r.g.sweep(j)
		for _, into := range []*time.Duration{&cold, &resident} {
			start := time.Now()
			if _, err := p.serve(req, -1); err != nil {
				return err
			}
			*into += time.Since(start)
		}
	}
	r.m["residency.fault_ns"] = float64(cold-resident) / float64(n)
	return nil
}

// replayIngest puts the in-process dataset, which by now holds every
// batch of the run in its deltas, into the state the daemon serves reads
// in: everything folded, then the rows of one compaction interval
// ingested on top. Those ingests are the timed ones: Dataset.Ingest with
// a WAL attached (fsync before return, as the daemon acknowledges). The
// requests replayed afterwards pay the delta merge over one interval's
// rows, as the live reader does at most, and replay's closing Compact
// folds that much.
func (r *run) replayIngest() error {
	ds := r.o.ds
	if _, err := ds.Compact(); err != nil {
		return err
	}
	if err := ds.EnableWAL(r.dir); err != nil {
		return err
	}
	batches := uint64(max(1, math.Round(ingestRate*r.compactInterval().Seconds())))
	var total time.Duration
	for k := uint64(0); k < batches; k++ {
		pts, cols := r.g.ingestRows(r.ingestBatches + k)
		gp := toPoints(pts)
		start := time.Now()
		if _, err := ds.Ingest(gp, cols); err != nil {
			return err
		}
		total += time.Since(start)
	}
	r.m["ingest.call_ns"] = float64(total) / float64(batches)
	return nil
}

// metrics reduces the spans to per-layer numbers. A layer's *_ns is its
// spans' total time divided by the number of traced requests, so the
// layers of one workload add up to that workload's request.
func (p *replayer) metrics(m map[string]float64, tracedReqs int) {
	total := map[string]int64{}   // by span name
	children := map[int]int64{}   // by parent span
	slowest := map[uint64]int64{} // by request: its slowest shard partial
	for _, s := range p.t.spans {
		d := s.End - s.Start
		total[s.Name] += d
		if s.Parent >= 0 {
			children[s.Parent] += d
		}
		if s.Name == "store.shard_partial" {
			slowest[s.Req] = max(slowest[s.Req], d)
		}
	}
	// What a parallel fan-out waits for: the slowest partial per request.
	var maxSum int64
	for _, d := range slowest {
		maxSum += d
	}
	var queryChildren int64
	for _, s := range p.t.spans {
		if s.Name == "store.query" {
			queryChildren += children[s.ID]
		}
	}
	per := func(name string) float64 { return float64(total[name]) / float64(tracedReqs) }
	div := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	m["httpapi.handler_ns"] = per("httpapi.handler")
	m["httpapi.self_ns"] = per("httpapi.handler") - per("store.query")
	m["httpapi.req_bytes"] = float64(p.reqBytes) / float64(tracedReqs)
	m["httpapi.resp_bytes"] = float64(p.respBytes) / float64(tracedReqs)
	m["store.query_ns"] = per("store.query")
	m["store.accounted_frac"] = div(float64(queryChildren), float64(total["store.query"]))
	m["store.plan_cover_ns"] = per("store.plan_cover")
	m["store.route_ns"] = per("store.route")
	m["store.shard_partial_ns"] = per("store.shard_partial")
	m["store.shard_partial_max_ns"] = float64(maxSum) / float64(tracedReqs)
	m["store.merge_ns"] = per("store.merge")
	m["store.plan_level"] = div(float64(p.levelSum), float64(p.coverings))
	m["store.shards_touched"] = div(float64(p.shardSubs), float64(p.routed))
	m["cover.cover_ns"] = per("cover.cover")
	m["cover.shared_ns"] = per("cover.shared")
	m["cover.cells_per_covering"] = div(float64(p.coverCells), float64(p.coverings))
	m["cover.ns_per_cell"] = div(float64(total["cover.cover"]+total["cover.shared"]), float64(p.coverCells))
	m["core.select_ns"] = per("core.select")
	m["core.select_ns_per_cell"] = div(float64(total["core.select"]), float64(p.selectCells))
	m["core.wire_encode_ns"] = div(float64(total["core.wire_encode"]), float64(p.wireFrames))
	m["core.wire_decode_ns"] = div(float64(total["core.wire_decode"]), float64(p.wireFrames))
	m["core.wire_bytes"] = div(float64(p.wireBytes), float64(p.wireFrames))
	m["resultcache.lookup_ns"] = per("resultcache.lookup")
	m["aggtrie.delta_ns"] = per("aggtrie.select") - per("core.select")
	m["trace_overhead_frac"] = div(p.traced.percentile(50), p.untraced.percentile(50)) - 1
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package store

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/cover"
	"geoblocks/internal/geom"
	"geoblocks/internal/resultcache"
)

// This file is the approximate geospatial join operator — K polygons,
// per-polygon aggregates, one request — and the store's one executor
// (execute): a query is a join over one region, a batch
// (QueryBatchOpts) is a join whose stats are dropped, and a cluster call
// is a join whose remote parts a Remote runner answers. The plan is
// shared: one pyramid level for the whole call, each distinct region
// covered once by the same Cover (several in parallel, via
// cover.CoverShared). Execution runs one task per involved shard: the
// task pins its shard once and runs the per-shard partial (blockPartial:
// base, then delta) for every region routed there, with the caller's
// options, so the per-shard query caches serve a join as they serve a
// query unless DisableCache is set. Each region's partials merge in
// ascending shard order. Answers are therefore bit-identical to N
// sequential QueryOpts calls with the same options and cache state, SUM
// included. join_test.go pins the equivalence with a randomized property
// suite.

// JoinStats describes one join call: the shared plan's shape and how
// much of the coverings lies wholly inside their polygons.
type JoinStats struct {
	// Polygons is the number of join inputs.
	Polygons int `json:"polygons"`
	// UniquePolygons is the number of distinct join inputs after exact
	// content deduplication. Fan-in requests repeat geometries (dashboard
	// tiles over a hot tract set); repeats are answered once and the
	// result replicated, which is exact because the pipeline is
	// deterministic.
	UniquePolygons int `json:"unique_polygons"`
	// Level is the pyramid level the join was planned at.
	Level int `json:"level"`
	// InteriorPairs / BoundaryPairs count the (polygon, covering cell)
	// pairs of the polygons this call covered: interior pairs are cells
	// wholly inside their polygon, answered with no refinement; boundary
	// pairs are the rest.
	InteriorPairs int `json:"interior_pairs"`
	BoundaryPairs int `json:"boundary_pairs"`
	// CacheHits / CacheMisses count per-polygon result-cache outcomes
	// (both zero when the dataset has no result cache or the options
	// bypass it).
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
}

// InteriorFraction returns the share of covering pairs that were
// interior — the join metric served at /metrics.
func (s JoinStats) InteriorFraction() float64 {
	total := s.InteriorPairs + s.BoundaryPairs
	if total == 0 {
		return 0
	}
	return float64(s.InteriorPairs) / float64(total)
}

// Join answers one aggregate query per polygon in one call: plan once,
// cover each distinct polygon in parallel, run each polygon's per-shard
// partials through the single-query kernel, merge them in shard order.
// Results align positionally with polys. opts.MaxError plans the shared
// level; opts.DisableCache bypasses the result cache and the per-shard
// query caches, exactly as on a query. A successful call is folded into
// the dataset's join counters.
func (d *Dataset) Join(polys []*geom.Polygon, opts geoblocks.QueryOptions, reqs ...geoblocks.AggRequest) ([]geoblocks.Result, JoinStats, error) {
	res, stats, err := d.JoinVia(nil, polys, opts, reqs)
	if err == nil {
		d.NoteJoin(stats)
	}
	return res, stats, err
}

// QueryBatch answers one SELECT query per polygon: QueryBatchOpts with
// zero options.
func (d *Dataset) QueryBatch(polys []*geom.Polygon, reqs ...geoblocks.AggRequest) ([]geoblocks.Result, error) {
	return d.QueryBatchOpts(polys, geoblocks.QueryOptions{}, reqs...)
}

// QueryBatchOpts answers one query per polygon through the join's
// executor without its stats: repeated polygons are answered once, the
// rest are covered in parallel at one planned level and run the
// single-query partial in one task per involved shard. Each result is
// bit-identical to QueryOpts on that polygon alone and reports the
// achieved level plus its own covering's guaranteed error bound. Results
// align positionally with polys; the join counters are left alone.
func (d *Dataset) QueryBatchOpts(polys []*geom.Polygon, opts geoblocks.QueryOptions, reqs ...geoblocks.AggRequest) ([]geoblocks.Result, error) {
	res, _, err := d.JoinVia(nil, polys, opts, reqs)
	return res, err
}

// JoinVia is the polygon path behind Join, QueryBatchOpts and the
// cluster coordinator. remote answers the parts on shards this node does
// not serve; every single-node call passes nil and runs them all here.
// A call with a remote runner bypasses the result cache, whose
// generation cannot see ingest on the nodes the runner reaches. JoinVia
// counts no join: Join, and the coordinator's Join, call NoteJoin.
// Repeated polygons are deduplicated by exact ring content: each
// distinct geometry is planned, covered and aggregated once, and its
// result is replicated to every occurrence — identical to querying each
// occurrence independently, because the whole pipeline is deterministic
// in the polygon's content.
func (d *Dataset) JoinVia(remote Remote, polys []*geom.Polygon, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) ([]geoblocks.Result, JoinStats, error) {
	ts := make([]target, 0, len(polys))
	back := make([]int, len(polys))
	seen := make(map[string]int, len(polys))
	for i, p := range polys {
		k := polygonContentKey(p)
		j, ok := seen[k]
		if !ok {
			j, seen[k] = len(ts), len(ts)
			ts = append(ts, target{poly: p})
		}
		back[i] = j
	}
	stats, err := d.execute(ts, len(polys), opts, reqs, remote)
	if err != nil {
		return nil, stats, err
	}
	out := make([]geoblocks.Result, len(polys))
	for i, j := range back {
		out[i] = ts[j].res
	}
	return out, stats, nil
}

// polygonContentKey is an exact byte-string of the polygon's rings, used
// to recognise repeated polygons within one join request: each ring is
// its vertex count followed by its vertices, so no two ring splits of
// one vertex sequence share a key. Unlike the result cache's hashed key,
// equality here is exact, so deduplication can never alias two distinct
// polygons.
func polygonContentKey(p *geom.Polygon) string {
	n := 8 + len(p.Outer())*16
	for _, h := range p.Holes() {
		n += 8 + len(h)*16
	}
	b := appendRing(make([]byte, 0, n), p.Outer())
	for _, h := range p.Holes() {
		b = appendRing(b, h)
	}
	return string(b)
}

// appendRing appends one ring's vertex count, then its vertices.
func appendRing(b []byte, ring []geom.Point) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ring)))
	for _, v := range ring {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Y))
	}
	return b
}

// JoinRects is Join over rectangles — the window/grid fast path (a batch
// of map tiles or a rect-grid aggregation window).
func (d *Dataset) JoinRects(rects []geom.Rect, opts geoblocks.QueryOptions, reqs ...geoblocks.AggRequest) ([]geoblocks.Result, JoinStats, error) {
	res, stats, err := d.JoinRectsVia(nil, rects, opts, reqs)
	if err == nil {
		d.NoteJoin(stats)
	}
	return res, stats, err
}

// JoinRectsVia is JoinVia over rectangles, the path behind JoinRects.
func (d *Dataset) JoinRectsVia(remote Remote, rects []geom.Rect, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) ([]geoblocks.Result, JoinStats, error) {
	ts := make([]target, len(rects))
	for i, r := range rects {
		ts[i].rect = r
	}
	stats, err := d.execute(ts, len(rects), opts, reqs, remote)
	if err != nil {
		return nil, stats, err
	}
	out := make([]geoblocks.Result, len(rects))
	for i := range ts {
		out[i] = ts[i].res
	}
	return out, stats, nil
}

// Remote is the executor's seam for shards this node does not serve,
// supplied by the cluster coordinator through JoinVia and JoinRectsVia;
// every single-node path runs without one. The
// executor asks Local once per shard it routed parts to: the parts on
// local shards run as local tasks, the rest go to Run, on one goroutine,
// while the local tasks run. Each region's partials then merge in
// ascending shard order, local and remote alike.
type Remote interface {
	// Local reports whether this node answers the shard cell in process.
	// It is called with the dataset read-locked, so it must not call
	// back into the dataset.
	Local(cell cellid.ID) bool
	// Run answers every sub at grid level lvl, leaving the partial of
	// subs[i] in accs[i], or fails. subs are in ascending shard order,
	// a shard once per region routed there. The dataset is not locked
	// while the executor waits for Run, so Run may call its methods
	// (DecodePartial).
	Run(lvl int, subs []ShardSub, accs []*geoblocks.Accumulator) error
}

// NoteJoin folds one join's stats into the dataset's cumulative
// counters — called by Join and JoinRects, and by the cluster
// coordinator after a JoinVia or JoinRectsVia that is a join.
// Batches are not counted.
func (d *Dataset) NoteJoin(s JoinStats) {
	d.joins.Add(1)
	d.joinPolygons.Add(uint64(s.Polygons))
	d.joinInterior.Add(uint64(s.InteriorPairs))
	d.joinBoundary.Add(uint64(s.BoundaryPairs))
	d.joinCacheHits.Add(uint64(s.CacheHits))
	d.joinCacheMisses.Add(uint64(s.CacheMisses))
}

// target is one region of an executor call and, once the call returns,
// its answer. A single query passes a one-element array from its own
// stack; a join passes one target per distinct region.
type target struct {
	poly *geom.Polygon // the region: poly, or rect when poly is nil
	rect geom.Rect
	// cells and bound are the region's covering and its guaranteed error
	// bound, valid once covered is set: on entry for a pre-computed
	// covering, or from a memoized result-cache entry.
	cells   []cellid.ID
	bound   float64
	covered bool
	// keyed marks a target probed in the result cache under key; its
	// computed answer is offered back. served marks a hit: res is final.
	key    resultcache.Key
	keyed  bool
	served bool
	acc    *geoblocks.Accumulator
	res    geoblocks.Result
}

// region returns the target's region for the coverer.
func (t *target) region() cover.Region {
	if t.poly != nil {
		return t.poly
	}
	return cover.RectRegion(t.rect)
}

// footprint returns the target's result-cache key at the planned level.
func (t *target) footprint(lvl int, maxError float64, tag string) resultcache.Key {
	if t.poly != nil {
		return resultcache.PolygonKey(t.poly, lvl, maxError, tag)
	}
	return resultcache.RectKey(t.rect, lvl, maxError, tag)
}

// uncovered reports whether the target still needs a covering.
func (t *target) uncovered() bool { return !t.served && !t.covered }

// execute is the store's one executor, behind every query, batch and
// join: plan one level, resolve each target through the result cache,
// cover the rest, route every covering, run one task per involved shard,
// and merge each target's partials in ascending shard order — the merge
// tree of a sequential query. queries is the number of caller-visible
// regions counted against the dataset (a join counts its repeats).
// Targets covered on entry bypass the result cache, and so does a call
// with a remote runner (nil on every single-node path). Answers land in
// ts[i].res.
func (d *Dataset) execute(ts []target, queries int, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest, remote Remote) (JoinStats, error) {
	if err := opts.Validate(); err != nil {
		return JoinStats{}, err
	}
	d.queries.Add(uint64(queries))
	d.mu.RLock()
	defer d.mu.RUnlock()
	lvl := d.PlanLevel(opts.MaxError)
	stats := JoinStats{Polygons: queries, UniquePolygons: len(ts), Level: lvl}

	// Result-cache resolution, before anything is allocated: a hit is
	// final, a memoized covering skips classification. A cached Level and
	// ErrorBound derive from the covering alone, so replaying them after
	// an invalidation is exact.
	var gen uint64
	if d.results != nil && !opts.DisableCache && remote == nil {
		tag := aggsTag(reqs)
		gen = d.results.Generation()
		for i := range ts {
			if t := &ts[i]; !t.covered {
				var outcome resultcache.Outcome
				t.key, t.keyed = t.footprint(lvl, opts.MaxError, tag), true
				t.res, t.cells, t.bound, outcome = d.results.Lookup(t.key, gen)
				t.served, t.covered = outcome == resultcache.Hit, outcome == resultcache.MissCovered
				if t.served {
					stats.CacheHits++
				} else {
					stats.CacheMisses++
				}
			}
		}
	}

	// Cover the rest with the Cover a single query uses, so cached and
	// fresh coverings are interchangeable: one region on this goroutine
	// (CoverShared allocates its result and its workers), several in
	// parallel.
	n, last := 0, 0
	for i := range ts {
		if ts[i].uncovered() {
			n, last = n+1, i
		}
	}
	if n == 1 {
		t, c := &ts[last], d.covererAt(lvl)
		cov := c.Cover(t.region())
		t.cells, t.bound = cov.Cells, c.GuaranteedErrorDistance(cov)
		interior := 0
		for _, in := range cov.Interior {
			if in {
				interior++
			}
		}
		stats.InteriorPairs, stats.BoundaryPairs = interior, len(cov.Interior)-interior
	} else if n > 1 {
		regions := make([]cover.Region, 0, n)
		for i := range ts {
			if ts[i].uncovered() {
				regions = append(regions, ts[i].region())
			}
		}
		sc := d.covererAt(lvl).CoverShared(regions)
		stats.InteriorPairs, stats.BoundaryPairs = sc.InteriorPairs, sc.BoundaryPairs
		for i, j := 0, 0; j < n; i++ {
			if t := &ts[i]; t.uncovered() {
				t.cells, t.bound = sc.Covers[j].Cells, sc.Bounds[j]
				j++
			}
		}
	}

	// Route each covering; a region routed to no shard gets shard 0's
	// empty partial, the identity answer (zero count, NaN extrema). One
	// region's parts are in shard order already; several regions' parts,
	// presized by their candidate shards, are stably sorted by shard, so
	// each region's stay in shard order.
	var parts []queryPart
	if len(ts) > 1 {
		n := 0
		for i := range ts {
			if !ts[i].served {
				first, end := d.candidates(ts[i].cells)
				n += max(1, end-first)
			}
		}
		parts = make([]queryPart, 0, n)
	}
	for i := range ts {
		if ts[i].served {
			continue
		}
		k := len(parts)
		if parts = d.routeInto(parts, ts[i].cells, i); len(parts) == k {
			parts = append(parts, queryPart{shard: &d.shards[0], region: i})
		}
	}
	if len(ts) > 1 {
		slices.SortStableFunc(parts, byShard)
	}
	var err error
	if remote == nil {
		err = runTasks(parts, lvl, opts, reqs)
	} else {
		err = d.scatter(parts, lvl, opts, reqs, remote)
	}
	if err != nil {
		return stats, err
	}

	// Merge each region's partials in shard order, then finalise.
	for _, p := range parts {
		if t := &ts[p.region]; t.acc == nil {
			t.acc = p.acc
		} else if err := t.acc.MergeFrom(p.acc); err != nil {
			return stats, err
		}
	}
	for i := range ts {
		if t := &ts[i]; !t.served {
			t.res = t.acc.Result()
			t.res.Level, t.res.ErrorBound = lvl, t.bound
			if t.keyed {
				d.results.Store(t.key, t.cells, t.bound, t.res, gen)
			}
		}
	}
	return stats, nil
}

// byShard orders parts by shard cell.
func byShard(a, b queryPart) int { return cmp.Compare(a.shard.cell, b.shard.cell) }

// scatter runs parts, sorted by shard, with a remote runner: the
// identity parts and the parts on shards remote.Local claims run as
// local tasks (runTasks), the rest go to remote.Run on one goroutine at
// the same time, and every partial lands back in its part. A local error
// wins over a remote one. The caller's read lock is dropped while the
// remote parts finish: that wait is on the network, and a slow peer
// must not hold up a fold's swap, nor every query queued behind it. Run
// locks the dataset itself where it reads it (DecodePartial).
func (d *Dataset) scatter(parts []queryPart, lvl int, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest, remote Remote) error {
	local := make([]queryPart, 0, len(parts))
	var subs []ShardSub
	var localAt, remoteAt []int
	var last *shard
	isLocal := false
	for i, p := range parts {
		if len(p.sub) > 0 && p.shard != last {
			last, isLocal = p.shard, remote.Local(p.shard.cell)
		}
		if len(p.sub) == 0 || isLocal {
			local, localAt = append(local, p), append(localAt, i)
		} else {
			subs, remoteAt = append(subs, ShardSub{Cell: p.shard.cell, Sub: p.sub}), append(remoteAt, i)
		}
	}
	accs := make([]*geoblocks.Accumulator, len(subs))
	done := make(chan error, 1)
	if len(subs) > 0 {
		go func() { done <- remote.Run(lvl, subs, accs) }()
	} else {
		done <- nil
	}
	err := runTasks(local, lvl, opts, reqs)
	d.mu.RUnlock()
	rerr := <-done
	d.mu.RLock()
	if err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	for j, i := range localAt {
		parts[i].acc = local[j].acc
	}
	for j, i := range remoteAt {
		parts[i].acc = accs[j]
	}
	return nil
}

// runTasks runs one task per shard of parts, which are sorted by shard:
// the caller's goroutine runs the first task and one goroutine runs each
// of the others, so a single task starts none. It waits for every task,
// so no pin outlives the call, and returns the first error in shard
// order. Several pins held at once cannot deadlock: acquire waits only
// on a concurrent fault of the same shard, never on the residency budget.
func runTasks(parts []queryPart, lvl int, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) error {
	end := taskEnd(parts, 0)
	if end == len(parts) {
		return runTask(parts, lvl, opts, reqs)
	}
	errs := make([]error, len(parts)) // at each task's first part
	var wg sync.WaitGroup
	for s, e := end, end; s < len(parts); s = e {
		e = taskEnd(parts, s)
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			errs[s] = runTask(parts[s:e], lvl, opts, reqs)
		}(s, e)
	}
	errs[0] = runTask(parts[:end], lvl, opts, reqs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// taskEnd returns the end of the task starting at parts[s]: the run of
// parts on one shard.
func taskEnd(parts []queryPart, s int) int {
	e := s
	for e < len(parts) && parts[e].shard == parts[s].shard {
		e++
	}
	return e
}

// runTask pins the task's shard once and runs blockPartial for every
// part routed there, leaving each partial in its part. The pin only
// needs to outlive the scans: an Accumulator holds pre-combined scalar
// state, so merging and finalising it never touch the (possibly evicted)
// shard arrays again.
func runTask(task []queryPart, lvl int, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) error {
	if len(task) == 0 {
		return nil
	}
	sh := task[0].shard
	blk, release, err := sh.acquire()
	if err != nil {
		return err
	}
	defer release()
	for i := range task {
		if task[i].acc, err = blockPartial(sh, blk, task[i].sub, lvl, opts, reqs); err != nil {
			return err
		}
	}
	return nil
}

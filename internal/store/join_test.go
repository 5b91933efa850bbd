package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geoblocks"
	"geoblocks/internal/geom"
)

// joinPolys generates a mixed join workload: hotspot-clustered irregular
// polygons plus uniform ones, sizes spanning sub-cell to tens of cells.
func joinPolys(rng *rand.Rand, n int) []*geom.Polygon {
	polys := make([]*geom.Polygon, n)
	for i := range polys {
		c := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		if i%3 == 0 {
			c = geom.Pt(25+rng.NormFloat64()*8, 70+rng.NormFloat64()*8)
		}
		polys[i] = geoblocks.RegularPolygon(c, 0.5+rng.Float64()*18, 3+rng.Intn(8))
	}
	return polys
}

// assertBitIdentical demands full bitwise equality — Count, every
// value's float bits (SUM included), Level and ErrorBound. Valid when
// both sides ran the same per-shard partials under the same options and
// query-cache state, which is exactly the join's single-node contract.
func assertBitIdentical(t *testing.T, label string, got, want geoblocks.Result) {
	t.Helper()
	if got.Count != want.Count {
		t.Fatalf("%s: count %d, sequential %d", label, got.Count, want.Count)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: %d values, sequential %d", label, len(got.Values), len(want.Values))
	}
	for k := range want.Values {
		if math.Float64bits(got.Values[k]) != math.Float64bits(want.Values[k]) {
			t.Fatalf("%s: value[%d] = %v, sequential %v (bits differ)",
				label, k, got.Values[k], want.Values[k])
		}
	}
	if got.Level != want.Level {
		t.Fatalf("%s: level %d, sequential %d", label, got.Level, want.Level)
	}
	if got.ErrorBound != want.ErrorBound {
		t.Fatalf("%s: error bound %v, sequential %v", label, got.ErrorBound, want.ErrorBound)
	}
}

// TestJoinEquivalence is the join's randomized property suite: across
// shard levels, max_error settings and cached/uncached datasets, Join
// must return exactly what N sequential QueryOpts calls return — bit for
// bit, SUM included (the datasets carry no aggtrie, so both sides run
// the serial kernel over the same ranges in the same order).
func TestJoinEquivalence(t *testing.T) {
	const rows = 20_000
	for _, shardLevel := range []int{1, 2, 3} {
		for _, cached := range []bool{false, true} {
			d := buildDataset(t, "join", rows, 7, Options{Level: 12, ShardLevel: shardLevel, PyramidLevels: 4})
			if cached {
				if err := d.EnableResultCache(1<<20, 0); err != nil {
					t.Fatalf("enable result cache: %v", err)
				}
			}
			rng := rand.New(rand.NewSource(int64(40 + shardLevel)))
			polys := joinPolys(rng, 60)
			for _, maxErr := range []float64{0, 0.2, 3.0} {
				opts := geoblocks.QueryOptions{MaxError: maxErr}
				got, stats, err := d.Join(polys, opts, testReqs...)
				if err != nil {
					t.Fatalf("join (shard %d, err %v, cached %v): %v", shardLevel, maxErr, cached, err)
				}
				if len(got) != len(polys) {
					t.Fatalf("join returned %d results for %d polygons", len(got), len(polys))
				}
				if stats.Polygons != len(polys) {
					t.Fatalf("stats report %d polygons, want %d", stats.Polygons, len(polys))
				}
				if stats.InteriorPairs+stats.BoundaryPairs == 0 && stats.CacheHits == 0 {
					t.Fatalf("join classified nothing: %+v", stats)
				}
				for i, poly := range polys {
					want, err := d.QueryOpts(poly, opts, testReqs...)
					if err != nil {
						t.Fatalf("sequential query %d: %v", i, err)
					}
					assertBitIdentical(t, "join result", got[i], want)
				}
				// Second pass: on cached datasets the join must now be
				// served entirely from the result cache (the sequential
				// queries above stored every footprint) and still agree.
				again, stats2, err := d.Join(polys, opts, testReqs...)
				if err != nil {
					t.Fatalf("second join: %v", err)
				}
				for i := range polys {
					assertBitIdentical(t, "warm join result", again[i], got[i])
				}
				if cached && stats2.CacheHits != len(polys) {
					t.Fatalf("warm join hit cache %d/%d times", stats2.CacheHits, len(polys))
				}
				if !cached && (stats2.CacheHits != 0 || stats2.CacheMisses != 0) {
					t.Fatalf("uncached dataset reported cache traffic: %+v", stats2)
				}
			}
		}
	}
}

// TestJoinRectsEquivalence covers the rectangle (window/tile-grid) form
// against sequential QueryRectOpts, including an adjacent tile grid —
// the shared-edge case the closed-rectangle predicates make adversarial.
func TestJoinRectsEquivalence(t *testing.T) {
	d := buildDataset(t, "joinrect", 15_000, 9, Options{Level: 11, ShardLevel: 2, PyramidLevels: 3})
	rng := rand.New(rand.NewSource(21))
	var rects []geom.Rect
	for i := 0; i < 20; i++ {
		rects = append(rects, geom.RectFromCenter(
			geom.Pt(rng.Float64()*100, rng.Float64()*100),
			1+rng.Float64()*25, 1+rng.Float64()*25))
	}
	// An 5x4 window grid: adjacent tiles sharing edges.
	const nx, ny = 5, 4
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			rects = append(rects, geom.Rect{
				Min: geom.Pt(10+float64(ix)*12, 20+float64(iy)*12),
				Max: geom.Pt(10+float64(ix+1)*12, 20+float64(iy+1)*12),
			})
		}
	}
	for _, maxErr := range []float64{0, 0.2} {
		opts := geoblocks.QueryOptions{MaxError: maxErr}
		got, stats, err := d.JoinRects(rects, opts, testReqs...)
		if err != nil {
			t.Fatalf("join rects: %v", err)
		}
		if stats.Polygons != len(rects) {
			t.Fatalf("stats count %d, want %d", stats.Polygons, len(rects))
		}
		for i, r := range rects {
			want, err := d.QueryRectOpts(r, opts, testReqs...)
			if err != nil {
				t.Fatalf("sequential rect %d: %v", i, err)
			}
			assertBitIdentical(t, "join rect", got[i], want)
		}
	}
}

// TestJoinThroughDelta pins the join against the streaming write path:
// pending delta rows must fold into join answers exactly as they do for
// sequential queries (base first, delta second, per shard).
func TestJoinThroughDelta(t *testing.T) {
	d := buildDataset(t, "joindelta", 8_000, 13, Options{Level: 11, ShardLevel: 2})
	pts, cols := testRows(2_000, 99)
	if _, err := d.Ingest(pts, cols); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	rng := rand.New(rand.NewSource(31))
	polys := joinPolys(rng, 30)
	got, _, err := d.Join(polys, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	for i, poly := range polys {
		want, err := d.Query(poly, testReqs...)
		if err != nil {
			t.Fatalf("sequential query %d: %v", i, err)
		}
		assertBitIdentical(t, "delta join", got[i], want)
	}

	// The same delta under a pyramid: planned (coarser) levels merge the
	// delta rows into each polygon's per-shard partial exactly as a
	// sequential query does.
	pd := buildDataset(t, "joindeltapyr", 8_000, 13, Options{Level: 11, ShardLevel: 2, PyramidLevels: 4})
	if _, err := pd.Ingest(pts, cols); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	for _, maxErr := range []float64{0, 0.5, 3} {
		opts := geoblocks.QueryOptions{MaxError: maxErr}
		got, stats, err := pd.Join(polys, opts, testReqs...)
		if err != nil {
			t.Fatalf("join (maxErr %v): %v", maxErr, err)
		}
		if maxErr == 3 && stats.Level >= 11 {
			t.Fatalf("maxErr 3 planned at level %d, want a pyramid level below 11", stats.Level)
		}
		for i, poly := range polys {
			want, err := pd.QueryOpts(poly, opts, testReqs...)
			if err != nil {
				t.Fatalf("sequential query %d: %v", i, err)
			}
			assertBitIdentical(t, "pyramid delta join", got[i], want)
		}
	}
}

// holeSplitPolygons returns two distinct polygons whose vertices, read
// ring after ring, are one byte sequence apart from where the rings
// split: b's fourth outer vertex has 0xb1 as its first byte, and a's
// hole starts with a vertex built from that vertex's other 15 bytes
// followed by 0xb1. A key that joins rings with a bare 0xb1 byte cannot
// tell them apart.
func holeSplitPolygons(t *testing.T) (a, b *geom.Polygon) {
	t.Helper()
	lowByte := func(f float64, v byte) float64 {
		return math.Float64frombits(math.Float64bits(f)&^0xff | uint64(v))
	}
	v3 := geom.Pt(lowByte(30, 0xb1), lowByte(70, 0x40))
	var raw [17]byte
	binary.LittleEndian.PutUint64(raw[0:], math.Float64bits(v3.X))
	binary.LittleEndian.PutUint64(raw[8:], math.Float64bits(v3.Y))
	raw[16] = 0xb1
	w := geom.Pt(
		math.Float64frombits(binary.LittleEndian.Uint64(raw[1:])),
		math.Float64frombits(binary.LittleEndian.Uint64(raw[9:])),
	)
	hole := []geom.Point{geom.Pt(40, 40), geom.Pt(40, 60), geom.Pt(60, 60)}
	b = geom.NewPolygon([]geom.Point{geom.Pt(10, 10), geom.Pt(90, 10), geom.Pt(90, 90), v3})
	a = geom.NewPolygon([]geom.Point{geom.Pt(10, 10), geom.Pt(90, 10), geom.Pt(90, 90)})
	if err := b.AddHole(hole); err != nil {
		t.Fatal(err)
	}
	if err := a.AddHole(append([]geom.Point{w}, hole...)); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestJoinKeepsHoleSplitsApart: two distinct polygons that differ only
// in where one ring ends and the next begins are neither deduplicated by
// the join nor conflated by the result cache.
func TestJoinKeepsHoleSplitsApart(t *testing.T) {
	d := buildDataset(t, "joinholes", 20_000, 13, Options{Level: 11, ShardLevel: 2})
	a, b := holeSplitPolygons(t)
	polys := []*geom.Polygon{a, b}
	got, stats, err := d.Join(polys, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if stats.UniquePolygons != 2 {
		t.Fatalf("unique polygons = %d, want 2", stats.UniquePolygons)
	}
	want := make([]geoblocks.Result, len(polys))
	for i, poly := range polys {
		if want[i], err = d.QueryOpts(poly, geoblocks.QueryOptions{}, testReqs...); err != nil {
			t.Fatalf("sequential query %d: %v", i, err)
		}
		assertBitIdentical(t, "hole-split join", got[i], want[i])
	}
	if want[0].Count == want[1].Count {
		t.Fatalf("both polygons count %d rows; the fixture must tell them apart", want[0].Count)
	}

	if err := d.EnableResultCache(1<<20, 0); err != nil {
		t.Fatalf("enable result cache: %v", err)
	}
	for i, poly := range polys {
		res, err := d.Query(poly, testReqs...)
		if err != nil {
			t.Fatalf("cached query %d: %v", i, err)
		}
		assertBitIdentical(t, "hole-split cached query", res, want[i])
	}
}

// TestJoinEdgeCases: empty input, invalid options, unknown columns, and
// polygons entirely outside the domain (identity result, NaN extrema).
func TestJoinEdgeCases(t *testing.T) {
	d := buildDataset(t, "joinedge", 2_000, 17, Options{Level: 10, ShardLevel: 1})
	res, stats, err := d.Join(nil, geoblocks.QueryOptions{}, testReqs...)
	if err != nil || len(res) != 0 || stats.Polygons != 0 {
		t.Fatalf("empty join: %v, %d results, %+v", err, len(res), stats)
	}
	if _, _, err := d.Join(nil, geoblocks.QueryOptions{MaxError: -1}, testReqs...); err == nil {
		t.Fatal("negative max error accepted")
	}
	outside := geoblocks.RegularPolygon(geom.Pt(900, 900), 5, 6)
	inside := geoblocks.RegularPolygon(geom.Pt(50, 50), 10, 6)
	if _, _, err := d.Join([]*geom.Polygon{inside}, geoblocks.QueryOptions{}, geoblocks.Sum("nope")); err == nil {
		t.Fatal("unknown column accepted")
	}
	res, _, err = d.Join([]*geom.Polygon{outside, inside}, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	want, err := d.Query(outside, testReqs...)
	if err != nil {
		t.Fatalf("sequential outside: %v", err)
	}
	assertBitIdentical(t, "outside polygon", res[0], want)
	if res[0].Count != 0 {
		t.Fatalf("outside polygon counted %d rows", res[0].Count)
	}
	want, err = d.Query(inside, testReqs...)
	if err != nil {
		t.Fatalf("sequential inside: %v", err)
	}
	assertBitIdentical(t, "inside polygon", res[1], want)
}

// TestJoinDuplicatePolygons pins the fan-in dedup: repeated polygons —
// whether literally the same object or content-equal clones, as the
// HTTP path produces — are planned and aggregated once, replicated
// positionally, and still bit-identical to querying each occurrence
// independently.
func TestJoinDuplicatePolygons(t *testing.T) {
	d := buildDataset(t, "joindup", 10_000, 47, Options{Level: 11, ShardLevel: 2, PyramidLevels: 3})
	if err := d.EnableResultCache(1<<20, 0); err != nil {
		t.Fatalf("enable result cache: %v", err)
	}
	rng := rand.New(rand.NewSource(53))
	base := joinPolys(rng, 12)
	clone := func(p *geom.Polygon) *geom.Polygon {
		return geom.NewPolygon(append([]geom.Point(nil), p.Outer()...))
	}
	// 12 unique geometries across 30 slots: same-pointer repeats,
	// content-equal clones, and a Zipfian-style pileup on base[0].
	polys := make([]*geom.Polygon, 0, 30)
	for i := 0; i < 30; i++ {
		p := base[i%len(base)]
		if i%2 == 1 {
			p = clone(p)
		}
		if i >= 24 {
			p = base[0]
		}
		polys = append(polys, p)
	}
	for _, opts := range []geoblocks.QueryOptions{{DisableCache: true}, {MaxError: 0.2}} {
		got, stats, err := d.Join(polys, opts, testReqs...)
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		if stats.Polygons != len(polys) || stats.UniquePolygons != len(base) {
			t.Fatalf("stats report %d/%d polygons, want %d/%d unique",
				stats.Polygons, stats.UniquePolygons, len(polys), len(base))
		}
		for i, poly := range polys {
			want, err := d.QueryOpts(poly, opts, testReqs...)
			if err != nil {
				t.Fatalf("sequential query %d: %v", i, err)
			}
			assertBitIdentical(t, "dedup join", got[i], want)
		}
	}
	// Warm pass over the cached dataset: one hit per unique geometry.
	_, stats, err := d.Join(polys, geoblocks.QueryOptions{MaxError: 0.2}, testReqs...)
	if err != nil {
		t.Fatalf("warm join: %v", err)
	}
	if stats.CacheHits != len(base) || stats.CacheMisses != 0 {
		t.Fatalf("warm dedup join: %d hits, %d misses, want %d/0",
			stats.CacheHits, stats.CacheMisses, len(base))
	}
}

// TestJoinStatsCounters pins the dataset-level join counters surfaced in
// DatasetStats.
func TestJoinStatsCounters(t *testing.T) {
	d := buildDataset(t, "joinstats", 5_000, 23, Options{Level: 11, ShardLevel: 1})
	if d.Stats().Join != nil {
		t.Fatal("join counters present before any join")
	}
	rng := rand.New(rand.NewSource(41))
	polys := joinPolys(rng, 25)
	_, stats, err := d.Join(polys, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	jc := d.Stats().Join
	if jc == nil {
		t.Fatal("no join counters after a join")
	}
	if jc.Joins != 1 || jc.Polygons != uint64(len(polys)) {
		t.Fatalf("counters %+v after one %d-polygon join", jc, len(polys))
	}
	if jc.InteriorPairs != uint64(stats.InteriorPairs) || jc.BoundaryPairs != uint64(stats.BoundaryPairs) {
		t.Fatalf("counters %+v disagree with call stats %+v", jc, stats)
	}
}

// TestBatchAndJoinCacheCountedPerElement pins the satellite contract:
// batch lookups and joins route through the result cache per element —
// every polygon counts one hit or one miss, never one per call.
func TestBatchAndJoinCacheCountedPerElement(t *testing.T) {
	d := buildDataset(t, "joincache", 6_000, 29, Options{Level: 11, ShardLevel: 2})
	if err := d.EnableResultCache(1<<20, 0); err != nil {
		t.Fatalf("enable result cache: %v", err)
	}
	rng := rand.New(rand.NewSource(43))
	polys := joinPolys(rng, 20)

	if _, err := d.QueryBatchOpts(polys, geoblocks.QueryOptions{}, testReqs...); err != nil {
		t.Fatalf("cold batch: %v", err)
	}
	st := d.Stats().ResultCache
	if st.Misses != uint64(len(polys)) || st.Hits != 0 {
		t.Fatalf("cold batch: %d misses, %d hits, want %d/0", st.Misses, st.Hits, len(polys))
	}
	if _, err := d.QueryBatchOpts(polys, geoblocks.QueryOptions{}, testReqs...); err != nil {
		t.Fatalf("warm batch: %v", err)
	}
	st = d.Stats().ResultCache
	if st.Hits != uint64(len(polys)) {
		t.Fatalf("warm batch: %d hits, want %d", st.Hits, len(polys))
	}

	// The join shares the same per-element accounting and footprints:
	// it must hit every entry the batch stored.
	_, jstats, err := d.Join(polys, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if jstats.CacheHits != len(polys) || jstats.CacheMisses != 0 {
		t.Fatalf("join over warm cache: %d hits, %d misses, want %d/0",
			jstats.CacheHits, jstats.CacheMisses, len(polys))
	}
	st = d.Stats().ResultCache
	if st.Hits != uint64(2*len(polys)) {
		t.Fatalf("cache hits %d after warm batch + join, want %d", st.Hits, 2*len(polys))
	}

	// DisableCache bypasses the result cache per element too.
	_, jstats, err = d.Join(polys, geoblocks.QueryOptions{DisableCache: true}, testReqs...)
	if err != nil {
		t.Fatalf("bypass join: %v", err)
	}
	if jstats.CacheHits != 0 || jstats.CacheMisses != 0 {
		t.Fatalf("DisableCache join recorded cache traffic: %+v", jstats)
	}
}

// TestJoinMatchesWarmCacheQueries pins the join to the query path once
// the per-shard query caches hold aggregates: a join partial is a query
// partial with the request's options, so it probes the same cached cells
// and re-associates SUM exactly as QueryOpts does. fval sums are not
// integer-exact, so a join that skipped the cache would differ in bits.
func TestJoinMatchesWarmCacheQueries(t *testing.T) {
	d := buildDataset(t, "joinwarm", 20_000, 7, Options{Level: 12, ShardLevel: 2, PyramidLevels: 4, CacheThreshold: 0.25})
	polys := joinPolys(rand.New(rand.NewSource(41)), 60)
	reqs := []geoblocks.AggRequest{geoblocks.Count(), geoblocks.Sum("fval"), geoblocks.Min("fval"), geoblocks.Max("ival")}
	maxErrs := []float64{0, 0.2}
	for _, maxErr := range maxErrs {
		for i, poly := range polys {
			if _, err := d.QueryOpts(poly, geoblocks.QueryOptions{MaxError: maxErr}, reqs...); err != nil {
				t.Fatalf("warm-up query %d: %v", i, err)
			}
		}
	}
	d.RefreshCaches()
	for _, maxErr := range maxErrs {
		opts := geoblocks.QueryOptions{MaxError: maxErr}
		got, _, err := d.Join(polys, opts, reqs...)
		if err != nil {
			t.Fatalf("join (max_error %v): %v", maxErr, err)
		}
		for i, poly := range polys {
			want, err := d.QueryOpts(poly, opts, reqs...)
			if err != nil {
				t.Fatalf("sequential query %d: %v", i, err)
			}
			assertBitIdentical(t, fmt.Sprintf("warm join max_error %v poly %d", maxErr, i), got[i], want)
		}
	}
	if cs := d.Stats().Cache; cs.FullHits+cs.PartialHits == 0 {
		t.Fatal("the query caches served nothing; the test does not exercise them")
	}
}

// TestBatchDedupsRepeatedPolygons: a batch is a join without its stats,
// so repeated polygons — the same object or content-equal clones — are
// answered once. Results stay positionally equal to sequential queries,
// the result cache sees one miss per unique polygon, and the join
// counters are left alone.
func TestBatchDedupsRepeatedPolygons(t *testing.T) {
	opts := Options{Level: 11, ShardLevel: 2, PyramidLevels: 3}
	d := buildDataset(t, "batchdup", 10_000, 61, opts)
	if err := d.EnableResultCache(1<<20, 0); err != nil {
		t.Fatalf("enable result cache: %v", err)
	}
	control := buildDataset(t, "batchdupctl", 10_000, 61, opts)
	base := joinPolys(rand.New(rand.NewSource(67)), 15)
	var polys []*geom.Polygon
	for i, p := range base {
		polys = append(polys, p, geom.NewPolygon(append([]geom.Point(nil), p.Outer()...)))
		if i%2 == 0 {
			polys = append(polys, p)
		}
	}
	rand.New(rand.NewSource(71)).Shuffle(len(polys), func(i, j int) { polys[i], polys[j] = polys[j], polys[i] })

	qo := geoblocks.QueryOptions{MaxError: 0.2}
	got, err := d.QueryBatchOpts(polys, qo, testReqs...)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(got) != len(polys) {
		t.Fatalf("batch returned %d results for %d polygons", len(got), len(polys))
	}
	st := d.Stats()
	if st.ResultCache.Misses != uint64(len(base)) || st.ResultCache.Hits != 0 {
		t.Fatalf("batch of %d polygons (%d unique): %d misses, %d hits, want %d/0",
			len(polys), len(base), st.ResultCache.Misses, st.ResultCache.Hits, len(base))
	}
	if st.Join != nil {
		t.Fatalf("a batch moved the join counters: %+v", st.Join)
	}
	for i, poly := range polys {
		want, err := control.QueryOpts(poly, qo, testReqs...)
		if err != nil {
			t.Fatalf("sequential query %d: %v", i, err)
		}
		assertBitIdentical(t, fmt.Sprintf("batch element %d", i), got[i], want)
	}
}

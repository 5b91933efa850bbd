package geoblocks_test

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"geoblocks"
	"geoblocks/internal/core"
)

var testBound = geoblocks.Rect{Min: geoblocks.Pt(0, 0), Max: geoblocks.Pt(100, 100)}

func newTestBuilder(t testing.TB, n int, seed int64) *geoblocks.Builder {
	t.Helper()
	schema := geoblocks.NewSchema("fare", "distance")
	b, err := geoblocks.NewBuilder(testBound, schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geoblocks.Point, n)
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			pts[i] = geoblocks.Pt(40+rng.NormFloat64()*8, 50+rng.NormFloat64()*8)
		} else {
			pts[i] = geoblocks.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		cols[0][i] = 2 + rng.Float64()*40
		cols[1][i] = rng.Float64() * 15
	}
	if err := b.AddRows(pts, cols); err != nil {
		t.Fatal(err)
	}
	return b
}

func testPoly(t testing.TB) *geoblocks.Polygon {
	t.Helper()
	p, err := geoblocks.NewPolygon([]geoblocks.Point{
		geoblocks.Pt(25, 30), geoblocks.Pt(65, 25), geoblocks.Pt(70, 70), geoblocks.Pt(30, 65),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEndToEndQuery(t *testing.T) {
	b := newTestBuilder(t, 20000, 1)
	blk, err := b.Build(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	poly := testPoly(t)
	res, err := blk.Query(poly, geoblocks.Count(), geoblocks.Sum("fare"), geoblocks.Avg("distance"), geoblocks.Min("fare"), geoblocks.Max("fare"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 {
		t.Fatal("no tuples found")
	}
	if res.Values[0] != float64(res.Count) {
		t.Fatal("count value mismatch")
	}
	if res.Values[1] <= 0 {
		t.Fatal("sum must be positive")
	}
	if res.Values[3] < 2 || res.Values[4] > 42 {
		t.Fatalf("min/max out of generation range: %g/%g", res.Values[3], res.Values[4])
	}
	avg := res.Values[2]
	if avg <= 0 || avg >= 15 {
		t.Fatalf("avg distance %g out of range", avg)
	}
	// COUNT query agrees with SELECT count.
	if got := blk.Count(poly); got != res.Count {
		t.Fatalf("Count = %d, SELECT count = %d", got, res.Count)
	}
}

func TestQueryUnknownColumn(t *testing.T) {
	b := newTestBuilder(t, 1000, 2)
	blk, err := b.Build(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blk.Query(testPoly(t), geoblocks.Sum("nope")); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestRectAndCoveringQueries(t *testing.T) {
	b := newTestBuilder(t, 10000, 3)
	blk, err := b.Build(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := geoblocks.Rect{Min: geoblocks.Pt(30, 30), Max: geoblocks.Pt(70, 70)}
	res, err := blk.QueryRect(r, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 {
		t.Fatal("rect query found nothing")
	}
	if got := blk.CountRect(r); got != res.Count {
		t.Fatalf("CountRect = %d, want %d", got, res.Count)
	}
	cov := blk.CoverRect(r)
	res2, err := blk.QueryCovering(cov, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != res.Count {
		t.Fatal("covering query differs from rect query")
	}
}

func TestFilteredBlock(t *testing.T) {
	b := newTestBuilder(t, 10000, 4)
	filter := geoblocks.Where(geoblocks.NewSchema("fare", "distance"), "fare", geoblocks.OpGt, 20)
	blk, err := b.Build(12, filter)
	if err != nil {
		t.Fatal(err)
	}
	all, err := b.Build(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blk.NumTuples() >= all.NumTuples() {
		t.Fatal("filter did not reduce tuples")
	}
	sel, err := b.Selectivity(filter)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(blk.NumTuples()) / float64(all.NumTuples())
	if math.Abs(got-sel) > 1e-9 {
		t.Fatalf("filtered fraction %g != selectivity %g", got, sel)
	}
}

func TestCacheSpeedsUpAndStaysCorrect(t *testing.T) {
	b := newTestBuilder(t, 30000, 5)
	blk, err := b.Build(13, nil)
	if err != nil {
		t.Fatal(err)
	}
	poly := testPoly(t)
	plain, err := blk.Query(poly, geoblocks.Count(), geoblocks.Sum("fare"))
	if err != nil {
		t.Fatal(err)
	}

	if err := blk.EnableCache(0.10, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := blk.Query(poly, geoblocks.Count(), geoblocks.Sum("fare")); err != nil {
			t.Fatal(err)
		}
	}
	blk.RefreshCache()
	cached, err := blk.Query(poly, geoblocks.Count(), geoblocks.Sum("fare"))
	if err != nil {
		t.Fatal(err)
	}
	if cached.Count != plain.Count || math.Abs(cached.Values[1]-plain.Values[1]) > 1e-6 {
		t.Fatal("cached result differs")
	}
	m := blk.CacheMetrics()
	if m.FullHits == 0 {
		t.Fatal("warm cache produced no hits")
	}
	if blk.CacheSizeBytes() <= 0 {
		t.Fatal("cache arena empty after refresh")
	}
	blk.DisableCache()
	if blk.CacheSizeBytes() != 0 {
		t.Fatal("disabled cache still reports size")
	}
}

func TestAutoRefresh(t *testing.T) {
	b := newTestBuilder(t, 10000, 6)
	blk, err := b.Build(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := blk.EnableCache(0.10, 2); err != nil { // refresh every 2 queries
		t.Fatal(err)
	}
	poly := testPoly(t)
	// The refresh runs in a background goroutine, so keep querying until
	// it has landed and produced hits (bounded by the deadline).
	deadline := time.Now().Add(5 * time.Second)
	for blk.CacheMetrics().FullHits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-refresh never warmed the cache")
		}
		if _, err := blk.Query(poly, geoblocks.Count()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEnableCacheValidation(t *testing.T) {
	b := newTestBuilder(t, 2000, 11)
	blk, err := b.Build(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []float64{0, -0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := blk.EnableCache(threshold, 0); err == nil {
			t.Fatalf("threshold %v accepted", threshold)
		}
	}
	if err := blk.EnableCache(0.10, -1); err == nil {
		t.Fatal("negative autoRefreshEvery accepted")
	}
	// A rejected EnableCache must not leave a half-attached cache.
	if blk.CacheSizeBytes() != 0 {
		t.Fatal("failed EnableCache attached a cache")
	}
	if err := blk.EnableCache(0.10, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDisableCacheResetsAutoRefresh(t *testing.T) {
	b := newTestBuilder(t, 10000, 12)
	blk, err := b.Build(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	poly := testPoly(t)

	// Warm an auto-refreshing cache, then disable it.
	if err := blk.EnableCache(0.10, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for blk.CacheMetrics().FullHits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-refresh never warmed the cache")
		}
		if _, err := blk.Query(poly, geoblocks.Count()); err != nil {
			t.Fatal(err)
		}
	}
	blk.DisableCache()

	// Re-enabling with manual refresh must not inherit the old cadence:
	// with no RefreshCache call the cache stays cold and never hits.
	if err := blk.EnableCache(0.10, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := blk.Query(poly, geoblocks.Count()); err != nil {
			t.Fatal(err)
		}
	}
	if m := blk.CacheMetrics(); m.FullHits != 0 {
		t.Fatalf("manual-refresh cache produced %d hits without RefreshCache — stale auto-refresh cadence", m.FullHits)
	}
}

func TestConcurrentQueriesWithAutoRefresh(t *testing.T) {
	b := newTestBuilder(t, 30000, 13)
	blk, err := b.Build(13, nil)
	if err != nil {
		t.Fatal(err)
	}
	poly := testPoly(t)
	want, err := blk.Query(poly, geoblocks.Count(), geoblocks.Sum("fare"), geoblocks.Min("fare"), geoblocks.Max("fare"))
	if err != nil {
		t.Fatal(err)
	}
	if err := blk.EnableCache(0.10, 8); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				got, err := blk.Query(poly, geoblocks.Count(), geoblocks.Sum("fare"), geoblocks.Min("fare"), geoblocks.Max("fare"))
				if err != nil {
					errs <- err.Error()
					return
				}
				if got.Count != want.Count || got.Values[2] != want.Values[2] || got.Values[3] != want.Values[3] {
					errs <- "count/min/max mismatch under concurrency"
					return
				}
				if math.Abs(got.Values[1]-want.Values[1]) > 1e-6*math.Abs(want.Values[1]) {
					errs <- "sum mismatch under concurrency"
					return
				}
				if n := blk.Count(poly); n != want.Count {
					errs <- "Count mismatch under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

func TestCoarsenPublic(t *testing.T) {
	b := newTestBuilder(t, 10000, 7)
	fine, err := b.Build(14, nil)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := fine.Coarsen(10)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Level() != 10 {
		t.Fatalf("level = %d", coarse.Level())
	}
	if coarse.NumCells() >= fine.NumCells() {
		t.Fatal("coarsening did not reduce cells")
	}
	if coarse.ErrorBound() <= fine.ErrorBound() {
		t.Fatal("coarser block must have larger error bound")
	}
	// Counts agree on a polygon within the coarser covering.
	poly := testPoly(t)
	cf := fine.Count(poly)
	cc := coarse.Count(poly)
	if cc < cf {
		t.Fatalf("coarser covering must be a superset: %d < %d", cc, cf)
	}
}

func TestSerializationPublic(t *testing.T) {
	b := newTestBuilder(t, 5000, 8)
	blk, err := b.Build(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := blk.WriteFramed(&buf); err != nil {
		t.Fatal(err)
	}
	rb, _, err := geoblocks.ReadGeoBlockFramed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	poly := testPoly(t)
	a := blk.Count(poly)
	c := rb.Count(poly)
	if a != c {
		t.Fatalf("counts differ after round trip: %d vs %d", a, c)
	}
}

func TestUpdatePublic(t *testing.T) {
	b := newTestBuilder(t, 10000, 9)
	blk, err := b.Build(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := blk.NumTuples()
	// Target a location guaranteed to have a cell aggregate: the centre
	// of the block's first stored cell.
	target := blk.Inner().Domain().CellCenter(blk.Inner().CellAt(0).Key)
	batch := &geoblocks.UpdateBatch{
		Points: []geoblocks.Point{target},
		Cols:   [][]float64{{10}, {1}},
	}
	if err := blk.Update(batch); err != nil {
		t.Fatal(err)
	}
	if blk.NumTuples() != before+1 {
		t.Fatalf("tuples = %d, want %d", blk.NumTuples(), before+1)
	}
	// Updates outside the aggregated region surface ErrRebuildRequired.
	far := &geoblocks.UpdateBatch{
		Points: []geoblocks.Point{geoblocks.Pt(99.9, 0.1)},
		Cols:   [][]float64{{10}, {1}},
	}
	err = blk.Update(far)
	if err != nil && err != core.ErrRebuildRequired {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestLevelForError(t *testing.T) {
	lvl, err := geoblocks.LevelForError(testBound, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Domain diagonal is ~141; each level halves it. Level 8 gives ~0.55,
	// level 7 ~1.1: the coarsest level at or under 1.0 must be 8.
	if lvl != 8 {
		t.Fatalf("LevelForError = %d, want 8", lvl)
	}
	if _, err := geoblocks.LevelForError(geoblocks.Rect{}, 1.0); err == nil {
		t.Fatal("invalid bound accepted")
	}
}

func TestBuildForError(t *testing.T) {
	b := newTestBuilder(t, 5000, 10)
	blk, err := b.BuildForError(1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blk.ErrorBound() > 1.0 {
		t.Fatalf("error bound %g exceeds request", blk.ErrorBound())
	}
	if blk.Level() != 8 {
		t.Fatalf("level = %d, want 8", blk.Level())
	}
}

func TestBuilderValidation(t *testing.T) {
	schema := geoblocks.NewSchema("a")
	if _, err := geoblocks.NewBuilder(geoblocks.Rect{}, schema); err == nil {
		t.Fatal("empty bound accepted")
	}
	b, err := geoblocks.NewBuilder(testBound, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddRow(geoblocks.Pt(1, 1), 1, 2); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := b.AddRows([]geoblocks.Point{{X: 1, Y: 1}}, [][]float64{{1}, {2}}); err == nil {
		t.Fatal("column count mismatch accepted")
	}
	if _, err := b.Selectivity(nil); err == nil {
		t.Fatal("selectivity before extract accepted")
	}
}

func TestRegularPolygonHelper(t *testing.T) {
	p := geoblocks.RegularPolygon(geoblocks.Pt(50, 50), 10, 16)
	if p.Area() < 250 || p.Area() > 320 {
		t.Fatalf("area = %g", p.Area())
	}
}

// TestSplitCovering pins the covering-split hook: the sub-coverings of
// sibling cells partition the covering cells they own, coarse covering
// cells appear in every overlapping split, and out-of-range splits are
// empty.
func TestSplitCovering(t *testing.T) {
	b := newTestBuilder(t, 20000, 4)
	blk, err := b.Build(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	poly := testPoly(t)
	cov := blk.Cover(poly)
	if len(cov) == 0 {
		t.Fatal("empty covering")
	}

	// Split across the four level-1 quadrants.
	root := geoblocks.CellID(1) << (2 * geoblocks.MaxLevel)
	total := 0
	seen := make(map[geoblocks.CellID]int)
	for _, q := range root.Children() {
		sub := geoblocks.SplitCovering(cov, q)
		total += len(sub)
		for _, c := range sub {
			seen[c]++
		}
		for i := 1; i < len(sub); i++ {
			if sub[i] <= sub[i-1] {
				t.Fatal("split not ascending")
			}
		}
	}
	if total < len(cov) {
		t.Fatalf("splits hold %d cells, covering has %d", total, len(cov))
	}
	for _, c := range cov {
		want := 1
		if c.Level() < 1 {
			want = 4 // a cell coarser than the split level overlaps all children
		}
		if got := seen[c]; got < 1 || got > want {
			t.Fatalf("cell %v appears in %d splits, want 1..%d", c, got, want)
		}
	}
	// The whole-root split is the covering itself (shared backing).
	if whole := geoblocks.SplitCovering(cov, root); len(whole) != len(cov) {
		t.Fatalf("root split kept %d of %d cells", len(whole), len(cov))
	}
	// A disjoint cell yields an empty split.
	if sub := geoblocks.SplitCovering(nil, root); len(sub) != 0 {
		t.Fatalf("empty covering split non-empty")
	}
}

// TestQueryCoveringPartialMerge pins the partial-accumulator hook: the
// quadrant partials of a covering merge to the full-query answer —
// bit-identically for COUNT/MIN/MAX, and up to floating-point
// reassociation for AVG (the cached path pre-combines records in a
// different order than the quadrant split).
func TestQueryCoveringPartialMerge(t *testing.T) {
	b := newTestBuilder(t, 20000, 5)
	blk, err := b.Build(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cached := range []bool{false, true} {
		if cached {
			if err := blk.EnableCache(0.2, 0); err != nil {
				t.Fatal(err)
			}
			blk.RefreshCache()
		}
		reqs := []geoblocks.AggRequest{
			geoblocks.Count(), geoblocks.Min("fare"), geoblocks.Max("fare"), geoblocks.Avg("distance"),
		}
		cov := blk.Cover(testPoly(t))
		want, err := blk.QueryCovering(cov, reqs...)
		if err != nil {
			t.Fatal(err)
		}

		root := geoblocks.CellID(1) << (2 * geoblocks.MaxLevel)
		var total *geoblocks.Accumulator
		for _, q := range root.Children() {
			acc, err := blk.QueryCoveringPartial(geoblocks.SplitCovering(cov, q), reqs...)
			if err != nil {
				t.Fatal(err)
			}
			if total == nil {
				total = acc
			} else if err := total.MergeFrom(acc); err != nil {
				t.Fatal(err)
			}
		}
		got := total.Result()
		if got.Count != want.Count {
			t.Fatalf("cached=%v: merged count %d, want %d", cached, got.Count, want.Count)
		}
		for i := range want.Values {
			diff := math.Abs(got.Values[i] - want.Values[i])
			if i < 3 && diff != 0 { // count/min/max merge bit-identically
				t.Fatalf("cached=%v: merged value %d = %v, want %v", cached, i, got.Values[i], want.Values[i])
			}
			if diff > 1e-12*math.Abs(want.Values[i]) {
				t.Fatalf("cached=%v: merged avg %v, want %v", cached, got.Values[i], want.Values[i])
			}
		}
	}

	// Mismatched specs refuse to merge.
	a1, _ := blk.QueryCoveringPartial(nil, geoblocks.Count())
	a2, _ := blk.QueryCoveringPartial(nil, geoblocks.Min("fare"))
	if err := a1.MergeFrom(a2); err == nil {
		t.Fatal("mismatched-spec merge accepted")
	}
}

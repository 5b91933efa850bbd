package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"geoblocks/internal/cellid"
	"geoblocks/internal/column"
	"geoblocks/internal/cover"
	"geoblocks/internal/geom"
)

// testFixture bundles a deterministic synthetic dataset with its extract.
type testFixture struct {
	dom    cellid.Domain
	schema column.Schema
	pts    []geom.Point
	cols   [][]float64
	base   *BaseData
}

func newFixture(t testing.TB, n int, seed int64) *testFixture {
	t.Helper()
	dom := cellid.MustDomain(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)})
	schema := column.NewSchema("fare", "distance", "passengers")
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		// Cluster half the points in a hotspot, rest uniform.
		if i%2 == 0 {
			pts[i] = geom.Pt(30+rng.NormFloat64()*5, 40+rng.NormFloat64()*5)
		} else {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		cols[0][i] = 2 + rng.Float64()*50
		cols[1][i] = rng.Float64() * 20
		cols[2][i] = float64(1 + rng.Intn(5))
	}
	base, _, err := Extract(dom, pts, schema, cols, CleanRule{Bounds: dom.Bound()}, 12)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	return &testFixture{dom: dom, schema: schema, pts: pts, cols: cols, base: base}
}

func (f *testFixture) build(t testing.TB, level int, filter column.Filter) *GeoBlock {
	t.Helper()
	b, err := Build(f.base, BuildOptions{Level: level, Filter: filter})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return b
}

// bruteForce aggregates rows of the fixture whose leaf key falls in the
// covering, honouring the filter — the ground truth for covering queries.
func (f *testFixture) bruteForce(cov []cellid.ID, filter column.Filter, specs []AggSpec) Result {
	acc := newAccumulator(specs)
	tbl := f.base.Table
	for i := 0; i < tbl.NumRows(); i++ {
		if !filter.MatchesRow(tbl, i) {
			continue
		}
		leaf := cellid.ID(tbl.Keys[i])
		inside := false
		for _, qc := range cov {
			if qc.Contains(leaf) {
				inside = true
				break
			}
		}
		if !inside {
			continue
		}
		acc.count++
		for k, s := range acc.specs {
			v := 0.0
			if s.Func != AggCount {
				v = tbl.Cols[s.Col][i]
			}
			switch s.Func {
			case AggSum, AggAvg:
				acc.vals[k] += v
			case AggMin:
				if v < acc.vals[k] {
					acc.vals[k] = v
				}
			case AggMax:
				if v > acc.vals[k] {
					acc.vals[k] = v
				}
			}
		}
	}
	return acc.finish(0)
}

func allSpecs() []AggSpec {
	return []AggSpec{
		{Func: AggCount},
		{Col: 0, Func: AggSum},
		{Col: 0, Func: AggMin},
		{Col: 0, Func: AggMax},
		{Col: 1, Func: AggAvg},
		{Col: 2, Func: AggSum},
	}
}

func testPolygon() *geom.Polygon {
	return geom.NewPolygon([]geom.Point{
		geom.Pt(20, 30), geom.Pt(60, 15), geom.Pt(85, 50), geom.Pt(55, 85), geom.Pt(25, 70),
	})
}

func approxEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9 || diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestExtractSortsAndCleans(t *testing.T) {
	f := newFixture(t, 5000, 1)
	keys := f.base.Table.Keys
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("base data not sorted at %d", i)
		}
	}
	if f.base.DistinctCells <= 0 {
		t.Fatal("piggybacked distinct-cell collection missing")
	}
}

func TestExtractRejectsOutliers(t *testing.T) {
	dom := cellid.MustDomain(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)})
	schema := column.NewSchema("v")
	pts := []geom.Point{{X: 5, Y: 5}, {X: -3, Y: 5}, {X: 5, Y: 50}, {X: 1, Y: 1}}
	cols := [][]float64{{1, 2, 3, -7}}
	rule := CleanRule{
		Bounds:    dom.Bound(),
		ColRanges: []ColRange{{Col: 0, Min: 0, Max: 100}},
	}
	base, stats, err := Extract(dom, pts, schema, cols, rule, -1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsIn != 4 || stats.RowsKept != 1 {
		t.Fatalf("kept %d of %d rows, want 1 of 4", stats.RowsKept, stats.RowsIn)
	}
	if base.NumRows() != 1 {
		t.Fatalf("base rows = %d", base.NumRows())
	}
}

func TestExtractValidatesShape(t *testing.T) {
	dom := cellid.MustDomain(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)})
	schema := column.NewSchema("a", "b")
	if _, _, err := Extract(dom, []geom.Point{{}}, schema, [][]float64{{1}}, CleanRule{}, -1); err == nil {
		t.Fatal("column count mismatch accepted")
	}
	if _, _, err := Extract(dom, []geom.Point{{}}, schema, [][]float64{{1}, {1, 2}}, CleanRule{}, -1); err == nil {
		t.Fatal("column length mismatch accepted")
	}
}

func TestBuildBasicInvariants(t *testing.T) {
	f := newFixture(t, 20000, 2)
	b := f.build(t, 10, nil)

	if b.NumTuples() != uint64(f.base.NumRows()) {
		t.Fatalf("tuples = %d, want %d", b.NumTuples(), f.base.NumRows())
	}
	// Keys strictly ascending, all at block level.
	var sumCounts uint64
	for i := 0; i < b.NumCells(); i++ {
		if b.keys[i].Level() != 10 {
			t.Fatalf("cell %d at level %d", i, b.keys[i].Level())
		}
		if i > 0 && b.keys[i-1] >= b.keys[i] {
			t.Fatalf("keys not strictly ascending at %d", i)
		}
		if b.counts[i] == 0 {
			t.Fatalf("empty cell %d stored", i)
		}
		if uint64(b.offsets[i]) != sumCounts {
			t.Fatalf("offset[%d] = %d, want %d", i, b.offsets[i], sumCounts)
		}
		sumCounts += uint64(b.counts[i])
		// Leaf key extremes must be inside the cell.
		if !b.keys[i].Contains(b.minKeys[i]) || !b.keys[i].Contains(b.maxKeys[i]) {
			t.Fatalf("cell %d min/max keys escape the cell", i)
		}
	}
	if sumCounts != b.NumTuples() {
		t.Fatalf("counts sum %d != tuples %d", sumCounts, b.NumTuples())
	}
	h := b.Header()
	if h.MinCell != b.keys[0] || h.MaxCell != b.keys[b.NumCells()-1] {
		t.Fatal("header min/max cells wrong")
	}
}

func TestBuildWithFilter(t *testing.T) {
	f := newFixture(t, 10000, 3)
	filter := column.Pred(f.schema, "fare", column.OpGt, 20)
	b := f.build(t, 10, filter)

	want := uint64(0)
	for i := 0; i < f.base.Table.NumRows(); i++ {
		if filter.MatchesRow(f.base.Table, i) {
			want++
		}
	}
	if b.NumTuples() != want {
		t.Fatalf("filtered tuples = %d, want %d", b.NumTuples(), want)
	}
	// Min fare in every cell must satisfy the predicate.
	for i := 0; i < b.NumCells(); i++ {
		if b.cols[0].mins[i] <= 20 {
			t.Fatalf("cell %d min fare %g violates filter", i, b.cols[0].mins[i])
		}
	}
}

func TestSelectMatchesBruteForce(t *testing.T) {
	f := newFixture(t, 30000, 4)
	b := f.build(t, 11, nil)
	cov := cover.MustCoverer(f.dom, cover.DefaultOptions(11)).Cover(testPolygon())

	got, err := b.SelectCovering(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	want := f.bruteForce(cov.Cells, nil, allSpecs())
	if got.Count != want.Count {
		t.Fatalf("count = %d, want %d", got.Count, want.Count)
	}
	for i := range got.Values {
		if !approxEqual(got.Values[i], want.Values[i]) {
			t.Fatalf("value[%d] = %g, want %g", i, got.Values[i], want.Values[i])
		}
	}
	if got.Count == 0 {
		t.Fatal("test polygon should contain points")
	}
}

func TestSelectWithFilterMatchesBruteForce(t *testing.T) {
	f := newFixture(t, 20000, 5)
	filter := column.Pred(f.schema, "passengers", column.OpGt, 1)
	b := f.build(t, 11, filter)
	cov := cover.MustCoverer(f.dom, cover.DefaultOptions(11)).Cover(testPolygon())

	got, err := b.SelectCovering(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	want := f.bruteForce(cov.Cells, filter, allSpecs())
	if got.Count != want.Count {
		t.Fatalf("count = %d, want %d", got.Count, want.Count)
	}
	for i := range got.Values {
		if !approxEqual(got.Values[i], want.Values[i]) {
			t.Fatalf("value[%d] = %g, want %g", i, got.Values[i], want.Values[i])
		}
	}
}

func TestSelectBinaryOnlyEquivalent(t *testing.T) {
	f := newFixture(t, 20000, 6)
	b := f.build(t, 12, nil)
	cov := cover.MustCoverer(f.dom, cover.DefaultOptions(12)).Cover(testPolygon())

	a, err := b.SelectCovering(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.SelectCoveringBinaryOnly(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != c.Count {
		t.Fatalf("counts differ: %d vs %d", a.Count, c.Count)
	}
	for i := range a.Values {
		if !approxEqual(a.Values[i], c.Values[i]) {
			t.Fatalf("value[%d] differs: %g vs %g", i, a.Values[i], c.Values[i])
		}
	}
}

func TestCountMatchesSelect(t *testing.T) {
	f := newFixture(t, 25000, 7)
	for _, level := range []int{8, 10, 12, 14} {
		b := f.build(t, level, nil)
		cov := cover.MustCoverer(f.dom, cover.DefaultOptions(level)).Cover(testPolygon())

		sel, err := b.SelectCovering(cov.Cells, []AggSpec{{Func: AggCount}})
		if err != nil {
			t.Fatal(err)
		}
		cnt := b.CountCovering(cov.Cells)
		if cnt != sel.Count {
			t.Fatalf("level %d: COUNT = %d, SELECT count = %d", level, cnt, sel.Count)
		}
		if scan := b.CountCoveringScan(cov.Cells); scan != cnt {
			t.Fatalf("level %d: scan count = %d, range-sum count = %d", level, scan, cnt)
		}
	}
}

func TestCountOnWholeDomain(t *testing.T) {
	f := newFixture(t, 10000, 8)
	b := f.build(t, 10, nil)
	cov := []cellid.ID{cellid.Root()}
	if got := b.CountCovering(cov); got != b.NumTuples() {
		t.Fatalf("whole-domain count = %d, want %d", got, b.NumTuples())
	}
}

func TestEmptyCoveringAndMissRegions(t *testing.T) {
	f := newFixture(t, 5000, 9)
	b := f.build(t, 10, nil)

	res, err := b.SelectCovering(nil, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("empty covering count = %d", res.Count)
	}
	if !math.IsNaN(res.Values[2]) { // min over empty set
		t.Fatalf("min over empty covering = %g, want NaN", res.Values[2])
	}
	if b.CountCovering(nil) != 0 {
		t.Fatal("empty covering COUNT != 0")
	}
}

func TestSpecValidation(t *testing.T) {
	f := newFixture(t, 1000, 10)
	b := f.build(t, 8, nil)
	if _, err := b.SelectCovering(nil, []AggSpec{{Col: 99, Func: AggSum}}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, err := b.SelectCovering(nil, []AggSpec{{Col: 0, Func: AggFunc(42)}}); err == nil {
		t.Fatal("unknown function accepted")
	}
	if _, err := b.SelectCovering(nil, []AggSpec{{Col: -1, Func: AggCount}}); err != nil {
		t.Fatalf("count with ignored column rejected: %v", err)
	}
}

func TestCoarsenMatchesDirectBuild(t *testing.T) {
	f := newFixture(t, 20000, 11)
	fine := f.build(t, 14, nil)
	for _, level := range []int{12, 10, 6, 0} {
		coarse, err := Coarsen(fine, level)
		if err != nil {
			t.Fatal(err)
		}
		direct := f.build(t, level, nil)
		if coarse.NumCells() != direct.NumCells() {
			t.Fatalf("level %d: coarsened %d cells, direct %d", level, coarse.NumCells(), direct.NumCells())
		}
		for i := 0; i < coarse.NumCells(); i++ {
			ca, da := coarse.CellAt(i), direct.CellAt(i)
			if ca.Key != da.Key || ca.Count != da.Count || ca.Offset != da.Offset {
				t.Fatalf("level %d cell %d: %+v vs %+v", level, i, ca, da)
			}
			for c := range ca.Cols {
				if !approxEqual(ca.Cols[c].Sum, da.Cols[c].Sum) ||
					ca.Cols[c].Min != da.Cols[c].Min || ca.Cols[c].Max != da.Cols[c].Max {
					t.Fatalf("level %d cell %d col %d aggregates differ", level, i, c)
				}
			}
		}
	}
}

func TestCoarsenRejectsFiner(t *testing.T) {
	f := newFixture(t, 1000, 12)
	b := f.build(t, 10, nil)
	if _, err := Coarsen(b, 12); err == nil {
		t.Fatal("coarsening to finer level accepted")
	}
	if _, err := Coarsen(b, -1); err == nil {
		t.Fatal("negative level accepted")
	}
}

func TestBuildIsolatedMatchesIncremental(t *testing.T) {
	f := newFixture(t, 10000, 13)
	filter := column.Pred(f.schema, "distance", column.OpGe, 4)
	incr := f.build(t, 12, filter)
	iso, stats, err := BuildIsolated(f.dom, f.pts, f.schema, f.cols,
		CleanRule{Bounds: f.dom.Bound()}, BuildOptions{Level: 12, Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total() <= 0 {
		t.Fatal("missing build stats")
	}
	if iso.NumTuples() != incr.NumTuples() || iso.NumCells() != incr.NumCells() {
		t.Fatalf("isolated (%d tuples, %d cells) != incremental (%d tuples, %d cells)",
			iso.NumTuples(), iso.NumCells(), incr.NumTuples(), incr.NumCells())
	}
	for i := 0; i < iso.NumCells(); i++ {
		if iso.keys[i] != incr.keys[i] || iso.counts[i] != incr.counts[i] {
			t.Fatalf("cell %d differs", i)
		}
	}
}

func TestUpdateIntoExistingCells(t *testing.T) {
	f := newFixture(t, 10000, 14)
	b := f.build(t, 8, nil) // coarse level: new points land in existing cells
	before := b.NumTuples()

	// Insert points at locations of existing rows to guarantee cell hits.
	batch := &UpdateBatch{
		Points: []geom.Point{f.pts[0], f.pts[1], f.pts[2]},
		Cols: [][]float64{
			{100, 200, 300},
			{1, 2, 3},
			{1, 1, 1},
		},
	}
	if err := b.Update(batch); err != nil {
		t.Fatal(err)
	}
	if b.NumTuples() != before+3 {
		t.Fatalf("tuples = %d, want %d", b.NumTuples(), before+3)
	}
	// Offsets invariant must hold.
	var running uint32
	for i := 0; i < b.NumCells(); i++ {
		if b.offsets[i] != running {
			t.Fatalf("offset invariant broken at %d", i)
		}
		running += b.counts[i]
	}
	// COUNT over the whole domain reflects the update.
	if got := b.CountCovering([]cellid.ID{cellid.Root()}); got != before+3 {
		t.Fatalf("count after update = %d, want %d", got, before+3)
	}
	// Max fare must now be at least 300.
	if b.header.Cols[0].Max < 300 {
		t.Fatalf("header max fare %g, want >= 300", b.header.Cols[0].Max)
	}
}

func TestUpdateRequiresRebuildForNewRegion(t *testing.T) {
	dom := cellid.MustDomain(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)})
	schema := column.NewSchema("v")
	// All base points in one corner.
	pts := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	cols := [][]float64{{1, 2}}
	base, _, err := Extract(dom, pts, schema, cols, CleanRule{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(base, BuildOptions{Level: 10})
	if err != nil {
		t.Fatal(err)
	}
	batch := &UpdateBatch{Points: []geom.Point{{X: 99, Y: 99}}, Cols: [][]float64{{5}}}
	if err := b.Update(batch); err != ErrRebuildRequired {
		t.Fatalf("err = %v, want ErrRebuildRequired", err)
	}
	// The failed update must not have mutated anything.
	if b.NumTuples() != 2 {
		t.Fatalf("tuples = %d after failed update", b.NumTuples())
	}

	nb, err := b.RebuildWith(batch)
	if err != nil {
		t.Fatal(err)
	}
	if nb.NumTuples() != 3 {
		t.Fatalf("rebuilt tuples = %d, want 3", nb.NumTuples())
	}
}

func TestUpdateHonoursFilter(t *testing.T) {
	f := newFixture(t, 5000, 15)
	filter := column.Pred(f.schema, "fare", column.OpGt, 20)
	b := f.build(t, 8, filter)
	before := b.NumTuples()

	batch := &UpdateBatch{
		Points: []geom.Point{f.pts[0], f.pts[1]},
		Cols:   [][]float64{{5, 50}, {1, 1}, {1, 1}}, // first row fails filter
	}
	if err := b.Update(batch); err != nil {
		t.Fatal(err)
	}
	if b.NumTuples() != before+1 {
		t.Fatalf("tuples = %d, want %d", b.NumTuples(), before+1)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	fx := gbf1Fixtures[1]
	f, rb, b := fx.decode(t)
	if len(rb.Filter()) != 1 {
		t.Fatalf("%s: %d filter predicates, want 1", fx.file, len(rb.Filter()))
	}
	// Queries on the deserialized block give identical results.
	cov := cover.MustCoverer(f.dom, cover.DefaultOptions(fx.level)).Cover(testPolygon())
	a, err := b.SelectCovering(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	c, err := rb.SelectCovering(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != c.Count {
		t.Fatalf("counts differ after round trip: %d vs %d", a.Count, c.Count)
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(c.Values[i]) {
			t.Fatalf("value[%d] differs after round trip", i)
		}
	}
}

func TestReadBlockRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{[]byte("not a block"), nil} {
		if _, _, err := DecodeFramed(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%q: error %v, want ErrCorrupt", data, err)
		}
	}
}

func TestAggregateCell(t *testing.T) {
	f := newFixture(t, 10000, 17)
	b := f.build(t, 12, nil)
	// Aggregate over the root must equal the header.
	count, cols := b.AggregateCell(cellid.Root())
	if count != b.NumTuples() {
		t.Fatalf("root aggregate count = %d, want %d", count, b.NumTuples())
	}
	h := b.Header()
	for c := range cols {
		if !approxEqual(cols[c].Sum, h.Cols[c].Sum) || cols[c].Min != h.Cols[c].Min || cols[c].Max != h.Cols[c].Max {
			t.Fatalf("root aggregate col %d differs from header", c)
		}
	}
	// Aggregate over one stored cell equals that cell.
	ca := b.CellAt(b.NumCells() / 2)
	count, cols = b.AggregateCell(ca.Key)
	if count != uint64(ca.Count) {
		t.Fatalf("cell aggregate count = %d, want %d", count, ca.Count)
	}
	for c := range cols {
		if !approxEqual(cols[c].Sum, ca.Cols[c].Sum) {
			t.Fatalf("cell aggregate col %d sum differs", c)
		}
	}
}

func TestSizeBytesGrowsWithLevel(t *testing.T) {
	f := newFixture(t, 30000, 18)
	var prev int
	for _, level := range []int{6, 9, 12, 15} {
		b := f.build(t, level, nil)
		size := b.SizeBytes()
		if size <= prev {
			t.Fatalf("size at level %d (%d) not larger than previous (%d)", level, size, prev)
		}
		prev = size
	}
}

package experiments

import (
	"time"

	"geoblocks/internal/aggtrie"
	"geoblocks/internal/baseline"
	"geoblocks/internal/btree"
	"geoblocks/internal/cellid"
	"geoblocks/internal/core"
	"geoblocks/internal/cover"
	"geoblocks/internal/dataset"
	"geoblocks/internal/geom"
	"geoblocks/internal/phtree"
	"geoblocks/internal/rtree"
	"geoblocks/internal/workload"
)

// env bundles a generated dataset with its extract and query workloads —
// the shared setup of the evaluation section.
type env struct {
	raw   *dataset.Raw
	base  *core.BaseData
	dom   cellid.Domain
	polys []*geom.Polygon
}

// newTaxiEnv generates the primary dataset and the neighborhood workload.
func newTaxiEnv(cfg Config, piggyPaperLevel int) *env {
	raw := dataset.Generate(dataset.NYCTaxi(), cfg.TaxiRows, cfg.Seed)
	piggy := -1
	if piggyPaperLevel > 0 {
		piggy = DomainLevel(raw.Spec.Bound, piggyPaperLevel)
	}
	base, _, err := raw.Extract(piggy)
	if err != nil {
		panic(err)
	}
	return &env{
		raw:   raw,
		base:  base,
		dom:   raw.Domain(),
		polys: workload.Neighborhoods(raw.Spec.Bound, cfg.Seed+100),
	}
}

// newTweetsEnv generates the tweets dataset with the states workload.
func newTweetsEnv(cfg Config) *env {
	raw := dataset.Generate(dataset.USTweets(), cfg.TweetRows, cfg.Seed+1)
	base, _, err := raw.Extract(-1)
	if err != nil {
		panic(err)
	}
	return &env{
		raw:   raw,
		base:  base,
		dom:   raw.Domain(),
		polys: workload.States(raw.Spec.Bound, cfg.Seed+101),
	}
}

// newOSMEnv generates the OSM dataset with the countries workload.
func newOSMEnv(cfg Config) *env {
	raw := dataset.Generate(dataset.OSMAmericas(), cfg.OSMRows, cfg.Seed+2)
	base, _, err := raw.Extract(-1)
	if err != nil {
		panic(err)
	}
	return &env{
		raw:   raw,
		base:  base,
		dom:   raw.Domain(),
		polys: workload.Countries(raw.Spec.Bound, cfg.Seed+102),
	}
}

// lvl maps a paper (S2) level to this env's domain level of equal
// metric cell size.
func (e *env) lvl(paperLevel int) int { return DomainLevel(e.dom.Bound(), paperLevel) }

// block builds a GeoBlock at the given paper level.
func (e *env) block(paperLevel int) *core.GeoBlock {
	b, err := core.Build(e.base, core.BuildOptions{Level: e.lvl(paperLevel)})
	if err != nil {
		panic(err)
	}
	return b
}

// coverer returns a coverer limited to the given paper level.
func (e *env) coverer(paperLevel int) *cover.Coverer {
	return cover.MustCoverer(e.dom, cover.DefaultOptions(e.lvl(paperLevel)))
}

// coverings computes block-level coverings for a polygon workload once, so
// query-time comparisons exclude the (identical) covering cost, matching
// the paper's setup where all covering-based approaches share the mapping
// from geospatial to linear space.
func (e *env) coverings(polys []*geom.Polygon, paperLevel int) [][]cellid.ID {
	c := e.coverer(paperLevel)
	out := make([][]cellid.ID, len(polys))
	for i, p := range polys {
		out[i] = c.Cover(p).Cells
	}
	return out
}

// interiorRects computes the interior rectangles the PH-tree and aR-tree
// baselines are queried with (paper Sec. 4.1).
func interiorRects(polys []*geom.Polygon) []geom.Rect {
	out := make([]geom.Rect, len(polys))
	for i, p := range polys {
		out[i] = p.InteriorRect(24)
	}
	return out
}

// pointAt reconstructs a base row's location from its leaf key (identical
// data for every baseline).
func (e *env) pointAt(row int) geom.Point {
	return e.dom.CellCenter(cellid.ID(e.base.Table.Keys[row]))
}

// standardSpecs returns n aggregate requests over the dataset's columns,
// cycling count/sum/min/max/avg like the paper's 1..8-aggregate workloads.
func (e *env) standardSpecs(n int) []core.AggSpec {
	numCols := e.base.Table.Schema.NumCols()
	out := make([]core.AggSpec, 0, n)
	out = append(out, core.AggSpec{Func: core.AggCount})
	fns := []core.AggFunc{core.AggSum, core.AggMin, core.AggMax, core.AggAvg}
	for len(out) < n {
		i := len(out) - 1
		out = append(out, core.AggSpec{Col: i % numCols, Func: fns[i%len(fns)]})
	}
	return out[:n]
}

// timeIt measures fn.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// approaches bundles every comparable structure over one env/level.
type approaches struct {
	binary *baseline.BinarySearch
	block  *core.GeoBlock
	btree  *btree.Index
	ph     *phtree.Tree
	art    *rtree.Tree
}

// buildApproaches constructs the requested baselines. Flags keep the
// expensive ones (aR-tree) out of experiments that exclude them, exactly
// as the paper does.
func (e *env) buildApproaches(paperLevel int, withPH, withART bool) approaches {
	a := approaches{
		binary: baseline.NewBinarySearch(e.base.Table),
		block:  e.block(paperLevel),
		btree:  btree.NewIndex(e.base.Table),
	}
	if withPH {
		a.ph = phtree.New(e.base.Table, e.dom.Bound(), e.pointAt)
	}
	if withART {
		a.art = rtree.New(e.base.Table, e.pointAt)
	}
	return a
}

// cachedBlock wraps a block in the query cache with the given threshold.
// A non-positive threshold builds the explicit 0-budget ablation cache
// (Fig. 18's 0% point) — the validated NewWithThreshold rejects it.
func cachedBlock(b *core.GeoBlock, threshold float64) *aggtrie.CachedBlock {
	if threshold <= 0 {
		return aggtrie.New(b, 0)
	}
	cb, err := aggtrie.NewWithThreshold(b, threshold)
	if err != nil {
		panic(err)
	}
	return cb
}

package geoblocks

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"geoblocks/internal/aggtrie"
	"geoblocks/internal/cellid"
	"geoblocks/internal/column"
	"geoblocks/internal/core"
	"geoblocks/internal/cover"
	"geoblocks/internal/geom"
)

// Geometry and schema types, re-exported for the public API. X is
// longitude and Y latitude for geographic data, but any planar coordinates
// work.
type (
	// Point is a location in the plane.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Polygon is a simple polygon with optional holes.
	Polygon = geom.Polygon
	// Schema names the value columns of a dataset.
	Schema = column.Schema
	// Filter is a conjunction of column predicates.
	Filter = column.Filter
	// Predicate is a single column comparison.
	Predicate = column.Predicate
	// Result is a query answer: tuple count plus one value per AggSpec.
	Result = core.Result
	// AggSpec requests one aggregate over one column.
	AggSpec = core.AggSpec
	// CellID identifies a cell of the spatial decomposition.
	CellID = cellid.ID
	// CacheMetrics reports query-cache effectiveness.
	CacheMetrics = aggtrie.Metrics
	// UpdateBatch is a set of new tuples for GeoBlock.Update.
	UpdateBatch = core.UpdateBatch
	// Accumulator holds a pre-finalisation partial query result. Partials
	// from different blocks over the same domain (the shards of a
	// partitioned dataset) merge with MergeFrom before Result finalises.
	Accumulator = core.Accumulator
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewSchema builds a schema from column names.
func NewSchema(names ...string) Schema { return column.NewSchema(names...) }

// NewPolygon builds a polygon from an outer ring (at least three
// non-collinear vertices; orientation is normalised).
func NewPolygon(ring []Point) (*Polygon, error) { return geom.TryPolygon(ring) }

// Comparison operators for Where.
const (
	OpEq = column.OpEq
	OpNe = column.OpNe
	OpLt = column.OpLt
	OpLe = column.OpLe
	OpGt = column.OpGt
	OpGe = column.OpGe
)

// Where builds a single-predicate filter on a named column.
func Where(schema Schema, col string, op column.Op, value float64) Filter {
	return column.Pred(schema, col, op, value)
}

// MaxLevel is the finest grid level of the spatial decomposition.
const MaxLevel = cellid.MaxLevel

// Aggregate request constructors. Column-taking constructors resolve the
// name at query time against the block's schema.

// Count requests the number of tuples in the query region.
func Count() AggRequest { return AggRequest{fn: core.AggCount} }

// Sum requests the sum of the named column.
func Sum(col string) AggRequest { return AggRequest{fn: core.AggSum, col: col} }

// Min requests the minimum of the named column.
func Min(col string) AggRequest { return AggRequest{fn: core.AggMin, col: col} }

// Max requests the maximum of the named column.
func Max(col string) AggRequest { return AggRequest{fn: core.AggMax, col: col} }

// Avg requests the average of the named column (derived from sum/count).
func Avg(col string) AggRequest { return AggRequest{fn: core.AggAvg, col: col} }

// AggRequest is a named-column aggregate request, resolved against the
// block schema at query time.
type AggRequest struct {
	fn  core.AggFunc
	col string
}

// String returns the request's canonical spelling — "count",
// "sum(fare)" — the form serving layers use to tag query footprints and
// the HTTP API accepts in aggregate specs.
func (r AggRequest) String() string {
	if r.fn == core.AggCount {
		return r.fn.String()
	}
	return r.fn.String() + "(" + r.col + ")"
}

// ErrUnknownColumn reports an aggregate request naming a column absent
// from the block's schema; wrap-aware callers (the HTTP layer's status
// mapping) match it with errors.Is.
var ErrUnknownColumn = errors.New("geoblocks: unknown column")

func resolveSpecs(schema Schema, reqs []AggRequest) ([]AggSpec, error) {
	specs := make([]AggSpec, len(reqs))
	for i, r := range reqs {
		spec := AggSpec{Func: r.fn}
		if r.fn != core.AggCount {
			idx := schema.ColIndex(r.col)
			if idx < 0 {
				return nil, fmt.Errorf("%w %q", ErrUnknownColumn, r.col)
			}
			spec.Col = idx
		}
		specs[i] = spec
	}
	return specs, nil
}

// GeoBlock is the public handle to a built block: the pre-aggregated cell
// grid, a region coverer configured for the block's level, and an optional
// query cache.
//
// # Concurrency
//
// Any number of goroutines may call the query methods — Query, QueryRect,
// QueryCovering, their *Opts forms, Count, CountRect, and the read
// accessors — on one GeoBlock concurrently, with or without an enabled
// cache. The cache path is lock-light: effectiveness counters are atomic,
// query statistics are sharded, and the cache trie is published through an
// atomic pointer so readers never observe a half-built cache. Auto-refresh
// runs in a single-flight background goroutine off the query path.
//
// Structural mutations — Update, Coarsen, EnableCache, DisableCache,
// RefreshCache and deserialisation — remain exclusive: they must not run
// concurrently with queries or each other. Once queries are quiesced the
// mutation entry points drain any still-in-flight background refresh
// themselves, so the contract is simply: serve traffic, stop it (or swap
// the block pointer), mutate, resume.
type GeoBlock struct {
	inner   *core.GeoBlock
	coverer *cover.Coverer
	cached  *aggtrie.CachedBlock

	// pyramid holds coarser read-only blocks derived from this one with
	// Coarsen, sorted finest-first (strictly descending level). Each entry
	// is a complete GeoBlock with its own coverer and — when the base
	// block's cache is enabled — its own query cache, so hot approximate
	// traffic at one error bound warms a cache dedicated to its level.
	// Built by BuildPyramid, consulted by the query planner; nil means
	// every query answers at the base level.
	pyramid []*GeoBlock
	// cacheThreshold remembers the EnableCache threshold so pyramid levels
	// built later inherit the cache configuration (0 = no cache).
	cacheThreshold float64

	// autoRefresh rebuilds the cache every n queries (0 = manual).
	autoRefresh int
	// queries counts cache-served queries; crossing a multiple of
	// autoRefresh arms the background refresh.
	queries atomic.Uint64
	// refreshing is the single-flight gate: only the goroutine that wins
	// the CompareAndSwap launches a background refresh.
	refreshing atomic.Bool
	// refreshWG tracks the in-flight background refresh so mutation entry
	// points can drain it (waitRefresh) before touching shared state.
	refreshWG sync.WaitGroup
}

func wrapBlock(b *core.GeoBlock) (*GeoBlock, error) {
	cov, err := cover.NewCoverer(b.Domain(), cover.DefaultOptions(b.Level()))
	if err != nil {
		return nil, err
	}
	return &GeoBlock{inner: b, coverer: cov}, nil
}

// Level returns the block level (grid granularity).
func (g *GeoBlock) Level() int { return g.inner.Level() }

// Schema returns the block's value-column schema.
func (g *GeoBlock) Schema() Schema { return g.inner.Schema() }

// Filter returns the filter the block was built with.
func (g *GeoBlock) Filter() Filter { return g.inner.Filter() }

// NumCells returns the number of non-empty grid cells.
func (g *GeoBlock) NumCells() int { return g.inner.NumCells() }

// NumTuples returns the number of aggregated tuples.
func (g *GeoBlock) NumTuples() uint64 { return g.inner.NumTuples() }

// SizeBytes returns the in-memory size of the aggregate storage.
func (g *GeoBlock) SizeBytes() int { return g.inner.SizeBytes() }

// ErrorBound returns the block's spatial error bound in domain units: the
// diagonal of one grid cell. Any point of a covering is within this
// distance of the query polygon's outline (paper Sec. 3.2).
func (g *GeoBlock) ErrorBound() float64 {
	return g.inner.Domain().CellDiagonal(g.inner.Level())
}

// Inner exposes the underlying core block for advanced use (experiments,
// serialization internals).
func (g *GeoBlock) Inner() *core.GeoBlock { return g.inner }

// Cover computes the block-level cell covering of a polygon, exposed for
// diagnostics and repeated-query optimisation.
func (g *GeoBlock) Cover(poly *Polygon) []CellID {
	return g.coverer.Cover(poly).Cells
}

// CoverRect computes the covering of a rectangle.
func (g *GeoBlock) CoverRect(r Rect) []CellID {
	return g.coverer.CoverRect(r).Cells
}

// QueryOptions are the unified knobs of the query planner. One options
// struct replaces the combinatorial method matrix (Query/QueryRect/
// QueryCovering × cached/uncached): every query resolves through one
// plan→execute pipeline, and the legacy signatures remain as thin
// wrappers over it. The zero value reproduces the exact path bit for bit.
type QueryOptions struct {
	// MaxError is the acceptable spatial error bound in domain units.
	// 0 answers exactly, at the base block level. A positive value lets
	// the planner answer at the coarsest pyramid level (BuildPyramid)
	// whose cell diagonal does not exceed it — a smaller covering and a
	// cheaper query, the paper's accuracy-for-speed trade (Sec. 3.4).
	// When no pyramid level satisfies the bound (or no pyramid is built)
	// the planner answers at the base level; Result.ErrorBound always
	// reports the bound actually achieved. Must be finite and >= 0.
	MaxError float64
	// DisableCache answers directly from the aggregate arrays even when a
	// query cache is enabled, leaving cache state and statistics
	// untouched — for latency probes and cache-benefit measurements.
	DisableCache bool
}

// Validate reports whether the options are well-formed: MaxError must be
// finite and non-negative. Serving layers call it up front to map bad
// options onto caller errors; the query methods validate internally.
func (o QueryOptions) Validate() error {
	if o.MaxError < 0 || math.IsNaN(o.MaxError) || math.IsInf(o.MaxError, 0) {
		return fmt.Errorf("geoblocks: MaxError must be finite and >= 0, got %v", o.MaxError)
	}
	return nil
}

// plan validates the options and resolves the block that will execute the
// query: the base block, or the pyramid level the error bound admits.
func (g *GeoBlock) plan(opts QueryOptions) (*GeoBlock, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return g.planTarget(opts.MaxError), nil
}

// planTarget picks the coarsest available level whose cell diagonal does
// not exceed maxError. The pyramid is sorted finest-first, so the last
// entry still meeting the wanted level is the cheapest admissible block.
func (g *GeoBlock) planTarget(maxError float64) *GeoBlock {
	if maxError <= 0 || len(g.pyramid) == 0 {
		return g
	}
	want := g.inner.Domain().LevelForMaxDiagonal(maxError)
	if want >= g.Level() {
		return g
	}
	target := g
	for _, pb := range g.pyramid {
		if pb.Level() < want {
			break
		}
		target = pb
	}
	return target
}

// execCovering is the single execution kernel behind every public query
// method. Running on the plan's target block, it folds the covering with
// selectPartial, finalises, and stamps the achieved level and guaranteed
// error bound into the result.
func (g *GeoBlock) execCovering(cov []CellID, bound float64, opts QueryOptions, reqs []AggRequest) (Result, error) {
	acc, err := g.selectPartial(cov, opts, reqs)
	if err != nil {
		return Result{}, err
	}
	res := acc.Result()
	res.Level = g.Level()
	res.ErrorBound = bound
	return res, nil
}

// selectPartial resolves the aggregate requests against the schema and
// folds the covering into a partial accumulator — through the adapted
// cache algorithm (probes, statistics and auto-refresh included) when a
// cache is enabled and opts does not disable it, else through the plain
// range kernel. It is the one place a block chooses its SELECT kernel.
func (g *GeoBlock) selectPartial(cov []CellID, opts QueryOptions, reqs []AggRequest) (*Accumulator, error) {
	specs, err := resolveSpecs(g.inner.Schema(), reqs)
	if err != nil {
		return nil, err
	}
	if g.cached == nil || opts.DisableCache {
		return g.inner.SelectCoveringPartial(cov, specs)
	}
	acc, err := g.cached.SelectPartial(cov, specs)
	if err != nil {
		return nil, err
	}
	g.maybeAutoRefresh()
	return acc, nil
}

// QueryOpts answers a SELECT aggregate query over a polygon through the
// query planner: pick the coarsest pyramid level admitted by
// opts.MaxError, compute the covering at that level, execute through the
// kernel opts selects. The result reports the level answered at and the
// guaranteed error bound of the covering actually executed (0 when the
// covering is exact). QueryOpts with zero options is exactly Query.
func (g *GeoBlock) QueryOpts(poly *Polygon, opts QueryOptions, reqs ...AggRequest) (Result, error) {
	t, err := g.plan(opts)
	if err != nil {
		return Result{}, err
	}
	cov := t.coverer.Cover(poly)
	return t.execCovering(cov.Cells, t.coverer.GuaranteedErrorDistance(cov), opts, reqs)
}

// QueryRectOpts is QueryOpts over a rectangle (rectangles are just
// constrained polygons; the same planning and covering machinery applies).
func (g *GeoBlock) QueryRectOpts(r Rect, opts QueryOptions, reqs ...AggRequest) (Result, error) {
	t, err := g.plan(opts)
	if err != nil {
		return Result{}, err
	}
	cov := t.coverer.CoverRect(r)
	return t.execCovering(cov.Cells, t.coverer.GuaranteedErrorDistance(cov), opts, reqs)
}

// coveringBound is the conservative guaranteed bound of a bare cell list:
// the diagonal of its coarsest cell, 0 for an empty covering.
func (g *GeoBlock) coveringBound(cov []CellID) float64 {
	return g.inner.Domain().MaxDiagonal(cov)
}

// Query answers a SELECT aggregate query over an arbitrary polygon.
// COUNT/SUM/AVG combine each covering cell in O(1) from stored offsets and
// prefix sums; MIN/MAX scan the covered aggregates with fused per-column
// kernels. Query is QueryOpts with zero options: exact and cached.
func (g *GeoBlock) Query(poly *Polygon, reqs ...AggRequest) (Result, error) {
	return g.QueryOpts(poly, QueryOptions{}, reqs...)
}

// QueryRect answers a SELECT aggregate query over a rectangle.
func (g *GeoBlock) QueryRect(r Rect, reqs ...AggRequest) (Result, error) {
	return g.QueryRectOpts(r, QueryOptions{}, reqs...)
}

// QueryCovering answers a SELECT query over a pre-computed covering,
// exact and cached, against this block as given: the covering fixes the
// grid level (compute it with AtLevel's coverer to target a pyramid
// level). Without interior flags the reported bound is conservative —
// the diagonal of the coarsest covering cell.
func (g *GeoBlock) QueryCovering(cov []CellID, reqs ...AggRequest) (Result, error) {
	return g.execCovering(cov, g.coveringBound(cov), QueryOptions{}, reqs)
}

// QueryCoveringPartialOpts answers a SELECT query over a pre-computed
// covering but stops before finalisation, returning the partial
// accumulator. It is the per-shard hook of a sharded deployment
// (internal/store): a router computes one covering, splits it with
// SplitCovering, runs one partial per shard and merges them with
// Accumulator.MergeFrom before calling Result. With an enabled cache the
// partial goes through the adapted cache algorithm (probes, statistics
// and auto-refresh included), exactly like Query; DisableCache bypasses
// it. Like QueryCovering it never re-plans the level — the sharded
// router resolves the pyramid level once per query (LevelFor, AtLevel)
// and computes one covering at it.
func (g *GeoBlock) QueryCoveringPartialOpts(cov []CellID, opts QueryOptions, reqs ...AggRequest) (*Accumulator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return g.selectPartial(cov, opts, reqs)
}

// JoinInfo reports the plan shape of one JoinOpts call: the pyramid
// level every region was answered at and the (region, covering cell)
// pair counts — interior pairs are cells wholly inside their region,
// answered with no refinement; boundary pairs are the rest.
type JoinInfo struct {
	Level         int
	InteriorPairs int
	BoundaryPairs int
}

// JoinOpts answers one aggregate query per polygon in one call: the
// planner resolves one pyramid level for the whole set, the polygons are
// covered in parallel exactly as QueryOpts covers each one
// (cover.CoverShared), and each covering runs through the single-query
// kernel with the caller's options, so the query cache serves a join as
// it serves a query unless opts.DisableCache is set. Results align
// positionally with polys and each is bit-identical to QueryOpts on that
// polygon alone with the same options and cache state.
func (g *GeoBlock) JoinOpts(polys []*Polygon, opts QueryOptions, reqs ...AggRequest) ([]Result, JoinInfo, error) {
	target, err := g.plan(opts)
	if err != nil {
		return nil, JoinInfo{}, err
	}
	regions := make([]cover.Region, len(polys))
	for i, p := range polys {
		regions[i] = p
	}
	sc := target.coverer.CoverShared(regions)
	results := make([]Result, len(polys))
	for i, cov := range sc.Covers {
		results[i], err = target.execCovering(cov.Cells, sc.Bounds[i], opts, reqs)
		if err != nil {
			return nil, JoinInfo{}, err
		}
	}
	info := JoinInfo{
		Level:         target.Level(),
		InteriorPairs: sc.InteriorPairs,
		BoundaryPairs: sc.BoundaryPairs,
	}
	return results, info, nil
}

// DecodePartial parses an accumulator partial frame produced by
// Accumulator.EncodePartial on another node, validating its checksum and
// requiring its aggregate signature to match reqs resolved against this
// block's schema. It is the receive half of the cluster scatter-gather
// wire: a coordinator decodes peer frames into accumulators bound to a
// local block and merges them with MergeFrom in shard order, so cluster
// answers inherit the single-node merge contract bit for bit
// (COUNT/MIN/MAX exact, SUM within the DESIGN.md Sec. 6 bound).
// Malformed frames return errors wrapping ErrCorruptBlock; an unknown
// wire version wraps ErrBlockVersion.
func (g *GeoBlock) DecodePartial(data []byte, reqs ...AggRequest) (*Accumulator, error) {
	specs, err := resolveSpecs(g.inner.Schema(), reqs)
	if err != nil {
		return nil, err
	}
	return g.inner.DecodePartial(data, specs)
}

// SplitCovering returns the sub-covering of cov that intersects cell's
// leaf range — the cells a shard owning cell must answer. cov must be
// sorted ascending with disjoint cells (the form Cover and CoverRect
// produce); the result is a sub-slice of cov sharing its backing array,
// so splitting a covering across shards allocates nothing. A covering
// cell coarser than cell appears in the split of every shard it overlaps;
// because shards partition the underlying cell aggregates, the per-shard
// contributions of such a cell are disjoint and merge exactly.
func SplitCovering(cov []CellID, cell CellID) []CellID {
	lo, hi := cell.RangeMin(), cell.RangeMax()
	// Disjoint sorted cells have sorted range endpoints, so both bounds
	// are binary searches.
	first := sort.Search(len(cov), func(i int) bool { return cov[i].RangeMax() >= lo })
	last := sort.Search(len(cov), func(i int) bool { return cov[i].RangeMin() > hi })
	return cov[first:last:last]
}

// Count answers a COUNT query over a polygon with the specialised
// range-sum algorithm (paper Listing 2).
func (g *GeoBlock) Count(poly *Polygon) uint64 {
	cov := g.Cover(poly)
	if g.cached != nil {
		n := g.cached.Count(cov)
		g.maybeAutoRefresh()
		return n
	}
	return g.inner.CountCovering(cov)
}

// CountRect is Count over a rectangle.
func (g *GeoBlock) CountRect(r Rect) uint64 {
	cov := g.CoverRect(r)
	if g.cached != nil {
		n := g.cached.Count(cov)
		g.maybeAutoRefresh()
		return n
	}
	return g.inner.CountCovering(cov)
}

// EnableCache attaches an AggregateTrie query cache with a budget of
// threshold × the block's aggregate storage size (the paper's aggregate
// threshold, Fig. 18). The threshold must be a positive number — zero or
// negative values would silently yield a 0-byte budget and a cache that
// can never store a record. autoRefreshEvery > 0 rebuilds the cache from
// query statistics (in the background, off the query path) every that
// many queries; 0 leaves refresh manual; negative values are rejected.
// A pyramid level built later (BuildPyramid) inherits the cache
// configuration with its own private cache; enabling on a block that
// already carries a pyramid enables one cache per level.
func (g *GeoBlock) EnableCache(threshold float64, autoRefreshEvery int) error {
	if autoRefreshEvery < 0 {
		return fmt.Errorf("geoblocks: autoRefreshEvery must be >= 0, got %d", autoRefreshEvery)
	}
	cached, err := aggtrie.NewWithThreshold(g.inner, threshold)
	if err != nil {
		return err
	}
	g.waitRefresh()
	g.cached = cached
	g.cacheThreshold = threshold
	g.autoRefresh = autoRefreshEvery
	g.queries.Store(0)
	for _, pb := range g.pyramid {
		if err := pb.EnableCache(threshold, autoRefreshEvery); err != nil {
			return err
		}
	}
	return nil
}

// DisableCache detaches the query cache (on every pyramid level too) and
// clears the auto-refresh cadence and query counter, so a later
// EnableCache(t, 0) cannot inherit a stale auto-refresh schedule.
func (g *GeoBlock) DisableCache() {
	g.waitRefresh()
	g.cached = nil
	g.cacheThreshold = 0
	g.autoRefresh = 0
	g.queries.Store(0)
	for _, pb := range g.pyramid {
		pb.DisableCache()
	}
}

// RefreshCache rebuilds the query cache (and every pyramid level's) from
// accumulated statistics. It is a no-op without an enabled cache.
func (g *GeoBlock) RefreshCache() {
	if g.cached != nil {
		g.waitRefresh()
		g.cached.Refresh()
	}
	for _, pb := range g.pyramid {
		pb.RefreshCache()
	}
}

// CacheMetrics returns cache effectiveness counters, summed over the base
// cache and the per-level pyramid caches (zero value without a cache).
func (g *GeoBlock) CacheMetrics() CacheMetrics {
	var m CacheMetrics
	if g.cached != nil {
		m = g.cached.Metrics()
	}
	for _, pb := range g.pyramid {
		pm := pb.CacheMetrics()
		m.Probes += pm.Probes
		m.FullHits += pm.FullHits
		m.PartialHits += pm.PartialHits
		m.Misses += pm.Misses
		m.DerivedHits += pm.DerivedHits
	}
	return m
}

// CacheSizeBytes returns the current cache arena size, summed over the
// base cache and the per-level pyramid caches.
func (g *GeoBlock) CacheSizeBytes() int {
	total := 0
	if g.cached != nil {
		total = g.cached.Trie().SizeBytes()
	}
	for _, pb := range g.pyramid {
		total += pb.CacheSizeBytes()
	}
	return total
}

// autoRefreshMaxMissRate is the miss share above which an armed
// auto-refresh actually rebuilds: a cache that fits the workload is left
// untouched (warm arenas included).
const autoRefreshMaxMissRate = 0.10

// maybeAutoRefresh arms a background cache refresh every autoRefresh
// queries. The query path only pays an atomic increment; the winner of
// the CompareAndSwap gate launches a single-flight goroutine that runs
// the adaptive refresh policy, so rebuilds never add latency to the
// query that triggered them and never pile up.
func (g *GeoBlock) maybeAutoRefresh() {
	if g.autoRefresh <= 0 {
		return
	}
	if g.queries.Add(1)%uint64(g.autoRefresh) != 0 {
		return
	}
	if !g.refreshing.CompareAndSwap(false, true) {
		return // a refresh is already in flight
	}
	cached := g.cached
	g.refreshWG.Add(1)
	go func() {
		defer g.refreshWG.Done()
		defer g.refreshing.Store(false)
		cached.MaybeRefresh(autoRefreshMaxMissRate)
	}()
}

// waitRefresh blocks until no background refresh is in flight. Mutation
// entry points call it first: their contract requires queries to be
// quiesced already, so no new refresh can be armed while waiting, and an
// in-flight one must not be left reading the block mid-mutation.
func (g *GeoBlock) waitRefresh() { g.refreshWG.Wait() }

// Coarsen derives a coarser-grained GeoBlock without re-scanning base data
// (paper Sec. 3.4).
func (g *GeoBlock) Coarsen(level int) (*GeoBlock, error) {
	nb, err := core.Coarsen(g.inner, level)
	if err != nil {
		return nil, err
	}
	return wrapBlock(nb)
}

// BuildPyramid derives a pyramid of coarser levels below the base block:
// levels base−1, base−2, …, down to max(0, base−levels), each obtained by
// coarsening the previous level — a linear merge of the finer aggregates, no
// base-data rescan (core.Coarsen). The query planner (QueryOpts) answers
// error-bounded queries at the coarsest admissible pyramid level. Each
// level inherits the block's cache configuration with its own private
// cache. Because each level holds at most as many cells as the next finer
// one (typically ~1/4), a full pyramid costs at most a constant factor of
// the base block's memory; PyramidBytes reports the actual cost.
//
// levels <= 0 removes the pyramid. BuildPyramid is a structural mutation
// under the block's concurrency contract: it must not run concurrently
// with queries. Serialization is unaffected — WriteFramed persists only the
// base level and readers rebuild the pyramid (the snapshot subsystem does
// so on restore).
func (g *GeoBlock) BuildPyramid(levels int) error {
	g.waitRefresh()
	if levels <= 0 {
		g.pyramid = nil
		return nil
	}
	pyr := make([]*GeoBlock, 0, levels)
	prev := g.inner
	for lvl := g.Level() - 1; lvl >= 0 && len(pyr) < levels; lvl-- {
		nb, err := core.Coarsen(prev, lvl)
		if err != nil {
			return err
		}
		pb, err := wrapBlock(nb)
		if err != nil {
			return err
		}
		if g.cacheThreshold > 0 {
			if err := pb.EnableCache(g.cacheThreshold, g.autoRefresh); err != nil {
				return err
			}
		}
		pyr = append(pyr, pb)
		prev = nb
	}
	g.pyramid = pyr
	return nil
}

// PyramidLevels returns the block levels of the pyramid, finest first,
// excluding the base level. Empty without a pyramid.
func (g *GeoBlock) PyramidLevels() []int {
	out := make([]int, len(g.pyramid))
	for i, pb := range g.pyramid {
		out[i] = pb.Level()
	}
	return out
}

// PyramidBytes returns the total in-memory size of the pyramid levels'
// aggregate storage — the memory price of the query-time error knob.
func (g *GeoBlock) PyramidBytes() int {
	total := 0
	for _, pb := range g.pyramid {
		total += pb.SizeBytes()
	}
	return total
}

// AtLevel returns the block answering queries at exactly the given grid
// level — the base block or a pyramid entry — and whether one exists. The
// returned block supports the full query API (own coverer, own cache);
// sharded routers use it to execute one planned level across shards.
func (g *GeoBlock) AtLevel(level int) (*GeoBlock, bool) {
	if level == g.Level() {
		return g, true
	}
	for _, pb := range g.pyramid {
		if pb.Level() == level {
			return pb, true
		}
	}
	return nil, false
}

// LevelFor returns the grid level the planner would answer at for the
// given error bound: the coarsest available level whose cell diagonal
// does not exceed maxError, or the base level when maxError is 0 (or
// tighter than the base diagonal, or no pyramid is built).
func (g *GeoBlock) LevelFor(maxError float64) int {
	return g.planTarget(maxError).Level()
}

// Update folds a batch of new tuples into the block's aggregates (paper
// Sec. 5). It returns core.ErrRebuildRequired when tuples land outside all
// existing cell aggregates; rebuild with Builder in that case. Updating
// invalidates cached aggregates, so an enabled cache is rebuilt, and
// re-derives any pyramid levels (their aggregates are views of the base
// block's; per-level caches restart empty).
func (g *GeoBlock) Update(batch *UpdateBatch) error {
	// Drain any in-flight background refresh before mutating: it reads
	// the aggregate arrays the update is about to patch.
	g.waitRefresh()
	if err := g.inner.Update(batch); err != nil {
		return err
	}
	if g.cached != nil {
		g.cached.Refresh()
	}
	if n := len(g.pyramid); n > 0 {
		if err := g.BuildPyramid(n); err != nil {
			return err
		}
	}
	return nil
}

// QueryRowsPartial answers a SELECT over raw, un-aggregated rows — the
// delta half of a base+delta query. Rows are leaf cell ids plus one value
// slice per schema column; rows outside the covering (or failing the
// block's filter) are skipped. The block's aggregate arrays are never read,
// only its schema/filter, so any pyramid level of the same dataset may
// serve as receiver. Merge the result into the base partial with MergeFrom
// in a fixed base-then-delta order: COUNT/MIN/MAX stay bit-identical to a
// from-scratch rebuild and SUM keeps the DESIGN.md Sec. 6 reassociation
// bound.
func (g *GeoBlock) QueryRowsPartial(cov []CellID, leaves []CellID, cols [][]float64, reqs ...AggRequest) (*Accumulator, error) {
	specs, err := resolveSpecs(g.inner.Schema(), reqs)
	if err != nil {
		return nil, err
	}
	return g.inner.SelectRowsPartial(cov, leaves, cols, specs)
}

// Fold builds a new GeoBlock with the given raw rows folded into this one's
// aggregates — the compaction step of the base+delta write path. Unlike
// Update it absorbs rows landing in cells with no existing aggregate (the
// sorted layout is rebuilt by one merge pass, never patched in place), and
// unlike Update it does not mutate the receiver: Fold is safe to run
// concurrently with queries on g, and the caller swaps the returned block
// in when done. Rows must be sorted ascending by leaf id. The new block
// inherits the cache configuration (cache restarts empty; auto-refresh
// re-warms it) and re-derives the same number of pyramid levels.
func (g *GeoBlock) Fold(leaves []CellID, cols [][]float64) (*GeoBlock, error) {
	nb, err := core.FoldRows(g.inner, leaves, cols)
	if err != nil {
		return nil, err
	}
	ng, err := wrapBlock(nb)
	if err != nil {
		return nil, err
	}
	if g.cacheThreshold > 0 {
		if err := ng.EnableCache(g.cacheThreshold, g.autoRefresh); err != nil {
			return nil, err
		}
	}
	if n := len(g.pyramid); n > 0 {
		if err := ng.BuildPyramid(n); err != nil {
			return nil, err
		}
	}
	return ng, nil
}

// FrameInfo describes a framed serialization: total frame size, payload
// size and the payload's CRC32C — the facts a durable store records in
// its manifest next to the payload file.
type FrameInfo = core.FrameInfo

// Typed deserialization failures, wrapped by every ReadGeoBlockFramed
// error: ErrCorruptBlock for malformed or checksum-failing bytes,
// ErrBlockVersion for a format version this build does not read. The snapshot subsystem maps them onto its own
// artifact-level sentinels.
var (
	ErrCorruptBlock = core.ErrCorrupt
	ErrBlockVersion = core.ErrVersion
)

// WriteFramed serialises the block (without base data or cache) as a
// self-delimiting frame: the serialization-v2 payload wrapped in a
// length prefix and a CRC32C trailer (docs/FORMAT.md specifies the
// bytes). This is the on-disk form of snapshot artifacts and of
// cmd/geoblocks block files.
func (g *GeoBlock) WriteFramed(w io.Writer) (FrameInfo, error) {
	return g.inner.EncodeFramed(w)
}

// ReadGeoBlockFramed deserialises a block written with WriteFramed,
// validating frame magic, format version and checksum before decoding.
// Failures wrap ErrCorruptBlock or ErrBlockVersion. The result supports
// queries but not rebuilds (no base-data reference).
func ReadGeoBlockFramed(r io.Reader) (*GeoBlock, FrameInfo, error) {
	b, info, err := core.DecodeFramed(r)
	if err != nil {
		return nil, FrameInfo{}, err
	}
	g, err := wrapBlock(b)
	if err != nil {
		return nil, FrameInfo{}, err
	}
	return g, info, nil
}

// ErrReadOnly reports a mutation attempt on a mapped (format v3
// view-backed) block; see MapGeoBlock.
var ErrReadOnly = core.ErrReadOnly

// ErrRebuildRequired reports an update or ingest whose rows land outside
// every aggregated cell (Update) or built shard (store ingest): the
// block/dataset must be rebuilt with coverage for that region.
var ErrRebuildRequired = core.ErrRebuildRequired

// EncodeV3 serialises the block in the random-access format v3 and
// returns the complete file image (docs/FORMAT.md Sec. 8). v3 files can
// be reopened without per-element decode via MapGeoBlock.
func (g *GeoBlock) EncodeV3() []byte { return g.inner.EncodeV3() }

// MapGeoBlock constructs a read-only block whose aggregate arrays are
// views directly over data, a complete format-v3 file image — typically
// an mmap'd region the caller keeps valid for the block's lifetime. The
// block answers queries through the normal API (derived structures such
// as prefix sums and pyramid levels live on the heap) but rejects Update
// with ErrReadOnly. Failures wrap ErrCorruptBlock or ErrBlockVersion.
func MapGeoBlock(data []byte) (*GeoBlock, error) {
	b, err := core.MapBlock(data)
	if err != nil {
		return nil, err
	}
	return wrapBlock(b)
}

// MapOwnedGeoBlock is MapGeoBlock over a buffer the block takes
// ownership of, typically a format-v3 file read into the heap: the block
// is not mapped, so it takes Update like a decoded one. The caller must
// not touch data again.
func MapOwnedGeoBlock(data []byte) (*GeoBlock, error) {
	b, err := core.MapOwnedBlock(data)
	if err != nil {
		return nil, err
	}
	return wrapBlock(b)
}

// Mapped reports whether the block is a read-only view over mapped file
// bytes.
func (g *GeoBlock) Mapped() bool { return g.inner.Mapped() }

// LevelForError returns the coarsest block level whose cell diagonal does
// not exceed maxError over the given domain bound — the user-facing way to
// turn a spatial error bound into a block level.
func LevelForError(bound Rect, maxError float64) (int, error) {
	dom, err := cellid.NewDomain(bound)
	if err != nil {
		return 0, err
	}
	return dom.LevelForMaxDiagonal(maxError), nil
}

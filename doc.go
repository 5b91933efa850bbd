// Package geoblocks is a pre-aggregating data structure for spatial
// aggregation over arbitrary polygons, reproducing "GeoBlocks: A
// Query-Cache Accelerated Data Structure for Spatial Aggregation over
// Polygons" (EDBT 2021) and grown into a standalone, servable
// spatial-aggregation engine.
//
// A GeoBlock is a materialized view over geospatial point data: it
// subdivides the spatial domain into fine-grained grid cells along a
// Hilbert-ordered quadtree, pre-computes per-cell aggregates (count, min,
// max, sum per column, stored struct-of-arrays with per-column prefix
// sums), and answers aggregate queries over arbitrary polygons by
// combining the aggregates of an error-bounded cell covering of the query
// polygon. COUNT, SUM and AVG are answered from range endpoints — tuple
// offsets and prefix sums — so their cost per covering cell is constant
// regardless of the block level; only MIN/MAX scan the covered aggregates,
// and they do so over contiguous per-column arrays (DESIGN.md Sec. 2-3).
// The spatial approximation is the covering: every point of the covering
// lies within one grid-cell diagonal of the polygon outline, a bound the
// user controls by choosing the block level. SUM/AVG additionally carry
// ordinary floating-point rounding from the prefix-sum endpoint
// subtraction (exact for integer-valued columns; see DESIGN.md Sec. 2 for
// the cancellation characteristics); COUNT and MIN/MAX are always exact
// over the covering.
// An optional trie-based query cache ("BlockQC") adapts to workload skew
// by pre-combining aggregates of frequently queried regions.
//
// # Query planner and the error/speed knob
//
// The paper's central trade — spatial accuracy for speed — is a
// per-query decision here, not a build-time one. BuildPyramid derives a
// pyramid of coarser levels from a built block (via Coarsen, no
// base-data rescan; each level carries its own coverer and, when
// enabled, its own query cache), and every query method resolves
// through one plan→execute pipeline driven by QueryOptions: MaxError
// picks the coarsest pyramid level whose cell diagonal satisfies the
// bound, DisableCache bypasses the cache. Results report the level
// answered at and the guaranteed error bound of the covering actually
// executed (Result.Level, Result.ErrorBound); MaxError 0 — and every
// legacy method, which wraps the pipeline with zero options — is
// bit-identical to the exact path. LevelFor and AtLevel expose the planner's level
// arithmetic to sharded routers.
//
// # Quick start
//
//	schema := geoblocks.NewSchema("fare", "distance")
//	b := geoblocks.NewBuilder(bound, schema)
//	b.AddRows(points, cols)
//	if err := b.Extract(); err != nil { ... }
//	blk, err := b.Build(17, nil) // ~level-17 grid, no filter
//	res, err := blk.Query(polygon, geoblocks.Count(), geoblocks.Sum("fare"))
//
// See the examples directory for complete programs.
//
// # Concurrency
//
// A built GeoBlock is a concurrent serving structure: any number of
// goroutines may query one block, with or without an enabled cache, while
// structural mutations (Update, Coarsen, cache enable/disable) remain
// exclusive. The GeoBlock type's comment states the exact contract;
// DESIGN.md Sec. 6 documents the mechanisms.
//
// # Sharded serving
//
// For multi-dataset, multi-shard deployments the package exposes the
// hooks a spatial router needs — SplitCovering to divide one covering
// into per-shard sub-coverings and QueryCoveringPartial plus
// Accumulator.MergeFrom to combine per-shard partial results exactly.
// internal/store builds the sharded dataset registry on these hooks and
// cmd/geoblocksd serves it over HTTP; docs/ARCHITECTURE.md shows the full
// layer stack.
//
// # Persistence
//
// A built block serialises without its base data or cache: WriteFramed
// writes the serialization-v2 payload in a length-prefixed,
// CRC32C-checksummed frame, and ReadGeoBlockFramed reads it back (typed
// failures: ErrCorruptBlock, ErrBlockVersion). The frame is the
// building block of the snapshot subsystem (internal/snapshot) that makes
// the serving tier durable; docs/FORMAT.md specifies every on-disk byte.
package geoblocks

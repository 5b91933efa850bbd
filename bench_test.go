// Benchmarks regenerating the paper's evaluation, one per table/figure,
// plus ablation benches for the design choices DESIGN.md calls out. The
// experiment benches wrap the drivers in internal/experiments at a reduced
// scale (testing.B re-runs the body; the full-scale single-shot runs live
// in cmd/geobench). Run everything with:
//
//	go test -bench=. -benchmem
package geoblocks_test

import (
	"fmt"
	"math/rand"
	"testing"

	"geoblocks"
	"geoblocks/internal/aggtrie"
	"geoblocks/internal/cellid"
	"geoblocks/internal/core"
	"geoblocks/internal/cover"
	"geoblocks/internal/dataset"
	"geoblocks/internal/experiments"
	"geoblocks/internal/geom"
	"geoblocks/internal/store"
	"geoblocks/internal/workload"
)

// benchConfig is small enough that a single experiment iteration stays in
// benchmark-friendly territory while exercising every code path.
func benchConfig() experiments.Config {
	return experiments.Config{TaxiRows: 120_000, TweetRows: 60_000, OSMRows: 80_000, Seed: 1}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := r.Run(cfg)
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// One benchmark per paper table/figure.

func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11a(b *testing.B) { benchExperiment(b, "fig11a") }
func BenchmarkFig11b(b *testing.B) { benchExperiment(b, "fig11b") }
func BenchmarkFig11c(b *testing.B) { benchExperiment(b, "fig11c") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "tab2") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }

// Micro-benchmarks of the core query paths.

type benchEnv struct {
	blk    *core.GeoBlock
	covs   [][]cellid.ID
	bigCov []cellid.ID
	specs  []core.AggSpec
}

func newBenchEnv(b *testing.B, rows int) *benchEnv {
	b.Helper()
	raw := dataset.Generate(dataset.NYCTaxi(), rows, 1)
	base, _, err := raw.Extract(-1)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := core.Build(base, core.BuildOptions{Level: 10})
	if err != nil {
		b.Fatal(err)
	}
	cov := cover.MustCoverer(raw.Domain(), cover.DefaultOptions(10))
	polys := workload.Neighborhoods(raw.Spec.Bound, 7)
	covs := make([][]cellid.ID, len(polys))
	for i, p := range polys {
		covs[i] = cov.Cover(p).Cells
	}
	big := workload.SelectivityRect(base.Table, raw.Domain(), 0.5)
	return &benchEnv{
		blk:    blk,
		covs:   covs,
		bigCov: cov.CoverRect(big).Cells,
		specs: []core.AggSpec{
			{Func: core.AggCount},
			{Col: 0, Func: core.AggSum},
			{Col: 3, Func: core.AggAvg},
		},
	}
}

func BenchmarkSelectNeighborhoods(b *testing.B) {
	e := newBenchEnv(b, 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov := e.covs[i%len(e.covs)]
		if _, err := e.blk.SelectCovering(cov, e.specs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountNeighborhoods(b *testing.B) {
	e := newBenchEnv(b, 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.blk.CountCovering(e.covs[i%len(e.covs)])
	}
}

func BenchmarkCovering(b *testing.B) {
	raw := dataset.Generate(dataset.NYCTaxi(), 10_000, 1)
	cov := cover.MustCoverer(raw.Domain(), cover.DefaultOptions(10))
	polys := workload.Neighborhoods(raw.Spec.Bound, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov.Cover(polys[i%len(polys)])
	}
}

// BenchmarkSelectLevelSweep compares the three SELECT variants across
// block levels on the clustered taxi workload — the PR1 headline
// measurement (DESIGN.md Sec. 5). "prefix" answers SUM per covering cell
// from prefix-sum endpoints (O(1) per cell), "scan" is the preserved
// pre-prefix per-cell combine, "binary-only" additionally drops the
// successor cursor. At fine levels (17) the prefix path must be multiple
// times faster than the scan ablation; COUNT is included as the
// level-independence reference (paper Listing 2).
func BenchmarkSelectLevelSweep(b *testing.B) {
	raw := dataset.Generate(dataset.NYCTaxi(), 200_000, 1)
	base, _, err := raw.Extract(-1)
	if err != nil {
		b.Fatal(err)
	}
	specs := []core.AggSpec{{Col: 0, Func: core.AggSum}}
	for _, level := range []int{13, 15, 17} {
		blk, err := core.Build(base, core.BuildOptions{Level: level})
		if err != nil {
			b.Fatal(err)
		}
		cov := cover.MustCoverer(raw.Domain(), cover.DefaultOptions(level))
		big := cov.CoverRect(workload.SelectivityRect(base.Table, raw.Domain(), 0.5)).Cells
		b.Run(fmt.Sprintf("level=%d/prefix", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := blk.SelectCovering(big, specs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("level=%d/scan", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := blk.SelectCoveringScan(big, specs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("level=%d/binary-only", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := blk.SelectCoveringBinaryOnly(big, specs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("level=%d/count", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blk.CountCovering(big)
			}
		})
	}
}

// Ablation benches (DESIGN.md Sec. 5).

// BenchmarkAblationPrefixSum compares the prefix-sum SELECT against the
// preserved scan kernel on the level-10 neighborhood workload.
func BenchmarkAblationPrefixSum(b *testing.B) {
	e := newBenchEnv(b, 200_000)
	b.Run("prefix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.blk.SelectCovering(e.bigCov, e.specs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.blk.SelectCoveringScan(e.bigCov, e.specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSuccessorScan compares the Listing 1 successor-cursor
// scan against a fresh binary search per covering cell.
func BenchmarkAblationSuccessorScan(b *testing.B) {
	e := newBenchEnv(b, 200_000)
	b.Run("cursor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.blk.SelectCovering(e.bigCov, e.specs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.blk.SelectCoveringBinaryOnly(e.bigCov, e.specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCountRangeSum compares the Listing 2 range-sum COUNT
// against a SELECT-style scan of every contained aggregate.
func BenchmarkAblationCountRangeSum(b *testing.B) {
	e := newBenchEnv(b, 200_000)
	b.Run("range-sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.blk.CountCovering(e.bigCov)
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.blk.CountCoveringScan(e.bigCov)
		}
	})
}

// BenchmarkAblationCacheScore compares the paper's hits+parent-hits cache
// ranking against own-hits-only ranking under a parent-heavy workload.
func BenchmarkAblationCacheScore(b *testing.B) {
	e := newBenchEnv(b, 200_000)
	run := func(b *testing.B, ownOnly bool) {
		qc, err := aggtrie.NewWithThreshold(e.blk, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		qc.ScoreOwnHitsOnly = ownOnly
		for _, cov := range e.covs {
			if _, err := qc.Select(cov, e.specs); err != nil {
				b.Fatal(err)
			}
		}
		qc.Refresh()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cov := e.covs[i%len(e.covs)]
			if _, err := qc.Select(cov, e.specs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("hits+parent", func(b *testing.B) { run(b, false) })
	b.Run("own-hits", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationCoarsen compares deriving a coarser block from a finer
// one against rebuilding from base data.
func BenchmarkAblationCoarsen(b *testing.B) {
	raw := dataset.Generate(dataset.NYCTaxi(), 200_000, 1)
	base, _, err := raw.Extract(-1)
	if err != nil {
		b.Fatal(err)
	}
	fine, err := core.Build(base, core.BuildOptions{Level: 12})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("coarsen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Coarsen(fine, 9); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(base, core.BuildOptions{Level: 9}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCachedSelect measures the warm BlockQC path end to end.
func BenchmarkCachedSelect(b *testing.B) {
	e := newBenchEnv(b, 200_000)
	qc, err := aggtrie.NewWithThreshold(e.blk, 0.10)
	if err != nil {
		b.Fatal(err)
	}
	for _, cov := range e.covs {
		if _, err := qc.Select(cov, e.specs); err != nil {
			b.Fatal(err)
		}
	}
	qc.Refresh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov := e.covs[i%len(e.covs)]
		if _, err := qc.Select(cov, e.specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentCachedSelect drives one warm CachedBlock from
// b.RunParallel goroutines — the lock-light read path under contention
// (sharded statistics, atomic metrics, atomically published trie).
func BenchmarkConcurrentCachedSelect(b *testing.B) {
	e := newBenchEnv(b, 200_000)
	qc, err := aggtrie.NewWithThreshold(e.blk, 0.10)
	if err != nil {
		b.Fatal(err)
	}
	for _, cov := range e.covs {
		if _, err := qc.Select(cov, e.specs); err != nil {
			b.Fatal(err)
		}
	}
	qc.Refresh()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := qc.Select(e.covs[i%len(e.covs)], e.specs); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkPublicQuery measures the public API round trip including
// covering computation.
func BenchmarkPublicQuery(b *testing.B) {
	bound := geoblocks.Rect{Min: geoblocks.Pt(0, 0), Max: geoblocks.Pt(100, 100)}
	builder, err := geoblocks.NewBuilder(bound, geoblocks.NewSchema("v"))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		if err := builder.AddRow(geoblocks.Pt(rng.Float64()*100, rng.Float64()*100), rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	blk, err := builder.Build(10, nil)
	if err != nil {
		b.Fatal(err)
	}
	poly := geoblocks.RegularPolygon(geoblocks.Pt(50, 50), 20, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blk.Query(poly, geoblocks.Count(), geoblocks.Sum("v")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHilbert measures the cell id <-> coordinate conversions that
// sit on every hot path.
func BenchmarkHilbert(b *testing.B) {
	dom := cellid.MustDomain(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)})
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 1024)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	b.Run("FromPoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = dom.FromPoint(pts[i%len(pts)])
		}
	})
	ids := make([]cellid.ID, len(pts))
	for i, p := range pts {
		ids[i] = dom.FromPoint(p)
	}
	b.Run("CellRect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = dom.CellRect(ids[i%len(ids)])
		}
	})
}

// Sharded store benchmarks: the covering split + fan-out + partial merge
// of internal/store against a raw single block, on shard-local and
// cross-shard traffic, as per-query latency.

type storeBenchEnv struct {
	ds    *store.Dataset
	local [][]cellid.ID
	cross [][]cellid.ID
	polys []*geom.Polygon
}

func newStoreBenchEnv(b *testing.B, rows, shardLevel int) *storeBenchEnv {
	b.Helper()
	raw := dataset.Generate(dataset.NYCTaxi(), rows, 1)
	clean := raw.CleanRule()
	ds, err := store.Build("taxi", raw.Spec.Bound, raw.Spec.Schema, raw.Points, raw.Cols,
		store.Options{Level: 12, ShardLevel: shardLevel, Clean: &clean})
	if err != nil {
		b.Fatal(err)
	}
	localPolys := workload.ShardLocal(raw.Spec.Bound, 2, 32, 5)
	crossPolys := workload.CrossShard(raw.Spec.Bound, 1, 32, 6)
	local := make([][]cellid.ID, len(localPolys))
	for i, p := range localPolys {
		local[i] = ds.Cover(p)
	}
	cross := make([][]cellid.ID, len(crossPolys))
	for i, p := range crossPolys {
		cross[i] = ds.Cover(p)
	}
	return &storeBenchEnv{ds: ds, local: local, cross: cross,
		polys: append(localPolys, crossPolys...)}
}

var storeBenchReqs = []geoblocks.AggRequest{geoblocks.Count(), geoblocks.Sum("fare_amount")}

func BenchmarkStoreShardLocalQuery(b *testing.B) {
	for _, shardLevel := range []int{0, 2} {
		b.Run(fmt.Sprintf("shardLevel=%d", shardLevel), func(b *testing.B) {
			e := newStoreBenchEnv(b, 150_000, shardLevel)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ds.QueryCovering(e.local[i%len(e.local)], storeBenchReqs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStoreCrossShardQuery(b *testing.B) {
	for _, shardLevel := range []int{0, 2} {
		b.Run(fmt.Sprintf("shardLevel=%d", shardLevel), func(b *testing.B) {
			e := newStoreBenchEnv(b, 150_000, shardLevel)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ds.QueryCovering(e.cross[i%len(e.cross)], storeBenchReqs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStoreBatchQuery(b *testing.B) {
	e := newStoreBenchEnv(b, 150_000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ds.QueryBatch(e.polys, storeBenchReqs...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerMaxError is the per-query latency view of the planner:
// the routed store path answering the same polygon workload at
// progressively looser error bounds. maxErr=0 is the exact baseline;
// each coarser admitted level should shrink the latency with it.
func BenchmarkPlannerMaxError(b *testing.B) {
	raw := dataset.Generate(dataset.NYCTaxi(), 150_000, 1)
	clean := raw.CleanRule()
	ds, err := store.Build("taxi", raw.Spec.Bound, raw.Spec.Schema, raw.Points, raw.Cols,
		store.Options{Level: 14, ShardLevel: 2, PyramidLevels: 6, Clean: &clean})
	if err != nil {
		b.Fatal(err)
	}
	polys := workload.Neighborhoods(raw.Spec.Bound, 5)[:16]
	dom := raw.Domain()
	for _, lvl := range []int{14, 12, 10, 8} {
		maxErr := 0.0
		if lvl < 14 {
			maxErr = dom.CellDiagonal(lvl)
		}
		b.Run(fmt.Sprintf("level=%d", lvl), func(b *testing.B) {
			opts := geoblocks.QueryOptions{MaxError: maxErr}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ds.QueryOpts(polys[i%len(polys)], opts, storeBenchReqs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

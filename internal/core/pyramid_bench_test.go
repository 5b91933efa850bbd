package core_test

import (
	"testing"

	"geoblocks/internal/core"
	"geoblocks/internal/dataset"
)

// BenchmarkBuildPyramid derives the four pyramid levels below a level-14
// block of 300k taxi rows, each level coarsened from the one above it,
// the way geoblocks.BuildPyramid(4) does on every shard fault, restore
// and compaction.
func BenchmarkBuildPyramid(b *testing.B) {
	raw := dataset.Generate(dataset.NYCTaxi(), 300_000, 1)
	base, _, err := raw.Extract(-1)
	if err != nil {
		b.Fatal(err)
	}
	fine, err := core.Build(base, core.BuildOptions{Level: 14})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		level := fine
		for lvl := fine.Level() - 1; lvl >= fine.Level()-4; lvl-- {
			if level, err = core.Coarsen(level, lvl); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(fine.NumCells()), "fine_cells")
}

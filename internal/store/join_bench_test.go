package store

import (
	"math/rand"
	"testing"

	"geoblocks"
	"geoblocks/internal/geom"
)

// benchJoinSetup builds a tract-join workload with every polygon
// distinct: a sharded pyramid dataset and 500 small tract polygons,
// planned below full resolution. All-distinct inputs keep the dedup
// fast path out of the loop, so the benchmark isolates the covering
// step and the multi-accumulator kernel themselves.
func benchJoinSetup(b *testing.B) (*Dataset, []*geom.Polygon, geoblocks.QueryOptions, []geoblocks.AggRequest) {
	b.Helper()
	d := buildDataset(b, "taxi", 60_000, 1, Options{Level: 14, ShardLevel: 2, PyramidLevels: 5})
	rng := rand.New(rand.NewSource(11))
	bound := d.Bound()
	polys := make([]*geom.Polygon, 500)
	for i := range polys {
		r := (0.0092 + rng.Float64()*0.0123) * bound.Width()
		c := geom.Pt(
			bound.Min.X+r+rng.Float64()*(bound.Width()-2*r),
			bound.Min.Y+r+rng.Float64()*(bound.Height()-2*r),
		)
		polys[i] = geoblocks.RegularPolygon(c, r, 4+rng.Intn(5))
	}
	opts := geoblocks.QueryOptions{MaxError: bound.Width() * 0.0032, DisableCache: true}
	reqs := []geoblocks.AggRequest{
		geoblocks.Count(), geoblocks.Sum("ival"), geoblocks.Min("fval"), geoblocks.Max("fval"),
	}
	return d, polys, opts, reqs
}

func BenchmarkJoin500(b *testing.B) {
	d, polys, opts, reqs := benchJoinSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Join(polys, opts, reqs...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequential500(b *testing.B) {
	d, polys, opts, reqs := benchJoinSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range polys {
			if _, err := d.QueryOpts(p, opts, reqs...); err != nil {
				b.Fatal(err)
			}
		}
	}
}

package cover

import (
	"math/rand"
	"testing"

	"geoblocks/internal/geom"
)

// exploreStars returns n star polygons shaped like the bench's
// explore_uniform requests: 12–24 vertices, 0.5–2 % of the 100-wide test
// domain across.
func exploreStars(rng *rand.Rand, n int) []*geom.Polygon {
	polys := make([]*geom.Polygon, n)
	for i := range polys {
		d := 0.5 + 1.5*rng.Float64()
		c := geom.Pt(5+rng.Float64()*90, 5+rng.Float64()*90)
		polys[i] = randStar(rng, c, d/4, d/2, 12+rng.Intn(13))
	}
	return polys
}

var (
	benchCovering *Covering
	benchShared   *SharedCovering
)

// BenchmarkCoverExplore is one uncached single-region request's covering
// at block level 14.
func BenchmarkCoverExplore(b *testing.B) {
	c := MustCoverer(testDomain(), DefaultOptions(14))
	polys := exploreStars(rand.New(rand.NewSource(1)), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCovering = c.Cover(polys[i%len(polys)])
	}
}

// BenchmarkCoverSharedJoin is one join's shared-grid covering: 32
// explore-shaped regions at level 10.
func BenchmarkCoverSharedJoin(b *testing.B) {
	c := MustCoverer(testDomain(), DefaultOptions(10))
	rng := rand.New(rand.NewSource(1))
	joins := make([][]Region, 8)
	for i := range joins {
		for _, p := range exploreStars(rng, 32) {
			joins[i] = append(joins[i], p)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchShared = c.CoverShared(joins[i%len(joins)])
	}
}

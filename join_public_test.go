package geoblocks_test

import (
	"math"
	"math/rand"
	"testing"

	"geoblocks"
)

// TestJoinOptsMatchesSequential pins the public single-block join: every
// per-polygon result must be bit-identical to QueryOpts on that polygon
// alone (cache disabled — joins stay off the query cache), at full
// resolution and through the pyramid planner.
func TestJoinOptsMatchesSequential(t *testing.T) {
	b := newTestBuilder(t, 20000, 3)
	blk, err := b.Build(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := blk.BuildPyramid(4); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var polys []*geoblocks.Polygon
	for i := 0; i < 50; i++ {
		c := geoblocks.Pt(rng.Float64()*100, rng.Float64()*100)
		if i%2 == 0 {
			c = geoblocks.Pt(40+rng.NormFloat64()*8, 50+rng.NormFloat64()*8)
		}
		polys = append(polys, geoblocks.RegularPolygon(c, 0.5+rng.Float64()*15, 3+rng.Intn(7)))
	}
	reqs := []geoblocks.AggRequest{
		geoblocks.Count(), geoblocks.Sum("fare"), geoblocks.Min("distance"), geoblocks.Max("fare"),
	}
	for _, maxErr := range []float64{0, 0.5, 4.0} {
		opts := geoblocks.QueryOptions{MaxError: maxErr}
		results, info, err := blk.JoinOpts(polys, opts, reqs...)
		if err != nil {
			t.Fatalf("join (maxErr %v): %v", maxErr, err)
		}
		if info.Level > blk.Level() || (maxErr >= 4.0 && info.Level >= blk.Level()) {
			t.Fatalf("maxErr %v answered at level %d (block level %d)", maxErr, info.Level, blk.Level())
		}
		seqOpts := geoblocks.QueryOptions{MaxError: maxErr, DisableCache: true}
		for i, poly := range polys {
			want, err := blk.QueryOpts(poly, seqOpts, reqs...)
			if err != nil {
				t.Fatalf("sequential %d: %v", i, err)
			}
			got := results[i]
			if got.Count != want.Count || got.Level != want.Level || got.ErrorBound != want.ErrorBound {
				t.Fatalf("poly %d maxErr %v: got %+v, want %+v", i, maxErr, got, want)
			}
			for k := range want.Values {
				if math.Float64bits(got.Values[k]) != math.Float64bits(want.Values[k]) {
					t.Fatalf("poly %d value %d: %v vs %v (bits differ)", i, k, got.Values[k], want.Values[k])
				}
			}
		}
	}
}

// Package workload generates the query workloads of the paper's evaluation
// (Sec. 4.1): polygon sets standing in for NYC neighborhoods and US states
// (jittered tessellations of "simple quadrilaterals or pentagons", which is
// how the paper describes the real polygons), random rectangles, skewed
// sub-workloads, and selectivity-calibrated query regions. ShardLocal and
// CrossShard generate the multi-shard serving workloads of the sharded
// store (internal/store): queries confined to one shard and queries
// straddling shard boundaries.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"geoblocks/internal/cellid"
	"geoblocks/internal/column"
	"geoblocks/internal/geom"
)

// Tessellation produces a jittered-grid polygon partition of bound with
// nx × ny cells. Grid vertices are jittered once and shared between
// neighbouring polygons, so the result is a proper tessellation; a share
// of polygons get a fifth vertex on their top edge, matching the mix of
// quadrilaterals and pentagons in real neighborhood data.
func Tessellation(bound geom.Rect, nx, ny int, seed int64) []*geom.Polygon {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("workload: tessellation needs positive grid, got %dx%d", nx, ny))
	}
	rng := rand.New(rand.NewSource(seed))
	cw := bound.Width() / float64(nx)
	ch := bound.Height() / float64(ny)
	jitterX := cw * 0.30
	jitterY := ch * 0.30

	// Jitter interior grid vertices; border vertices stay put so the
	// tessellation exactly tiles the bound.
	verts := make([]geom.Point, (nx+1)*(ny+1))
	at := func(i, j int) int { return j*(nx+1) + i }
	for j := 0; j <= ny; j++ {
		for i := 0; i <= nx; i++ {
			p := geom.Pt(bound.Min.X+float64(i)*cw, bound.Min.Y+float64(j)*ch)
			if i > 0 && i < nx {
				p.X += (rng.Float64() - 0.5) * jitterX
			}
			if j > 0 && j < ny {
				p.Y += (rng.Float64() - 0.5) * jitterY
			}
			verts[at(i, j)] = p
		}
	}

	polys := make([]*geom.Polygon, 0, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			a := verts[at(i, j)]
			b := verts[at(i+1, j)]
			c := verts[at(i+1, j+1)]
			d := verts[at(i, j+1)]
			ring := []geom.Point{a, b, c, d}
			if rng.Float64() < 0.4 {
				// Pentagon: split the top edge at its midpoint. The point
				// lies exactly on the shared edge, so the partition still
				// tiles.
				mid := geom.Pt((c.X+d.X)/2, (c.Y+d.Y)/2)
				ring = []geom.Point{a, b, c, mid, d}
			}
			if p, err := geom.TryPolygon(ring); err == nil {
				polys = append(polys, p)
			}
		}
	}
	return polys
}

// Neighborhoods returns a stand-in for the ~195 NYC neighborhood polygons
// the paper queries (a 15×13 jittered tessellation of the bound).
func Neighborhoods(bound geom.Rect, seed int64) []*geom.Polygon {
	return Tessellation(bound, 15, 13, seed)
}

// States returns a stand-in for the US state polygons: a coarse 10×5
// jittered tessellation (the paper queries 49 contiguous states plus DC).
func States(bound geom.Rect, seed int64) []*geom.Polygon {
	return Tessellation(bound, 10, 5, seed)
}

// Countries returns a stand-in for the country polygons used on the OSM
// Americas dataset: a very coarse tessellation.
func Countries(bound geom.Rect, seed int64) []*geom.Polygon {
	return Tessellation(bound, 6, 5, seed)
}

// RandomRects generates n axis-aligned rectangles inside bound whose side
// lengths are between minFrac and maxFrac of the bound's extent — the
// generated rectangle workload of paper Fig. 15 (51 rects over the US).
func RandomRects(bound geom.Rect, n int, minFrac, maxFrac float64, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, n)
	for i := range out {
		w := (minFrac + rng.Float64()*(maxFrac-minFrac)) * bound.Width()
		h := (minFrac + rng.Float64()*(maxFrac-minFrac)) * bound.Height()
		x0 := bound.Min.X + rng.Float64()*(bound.Width()-w)
		y0 := bound.Min.Y + rng.Float64()*(bound.Height()-h)
		out[i] = geom.Rect{Min: geom.Pt(x0, y0), Max: geom.Pt(x0+w, y0+h)}
	}
	return out
}

// SkewedSubset picks ceil(frac·len) polygons uniformly at random — the
// paper's skewed workload selects 10% of neighborhoods and queries them
// repeatedly.
func SkewedSubset(polys []*geom.Polygon, frac float64, seed int64) []*geom.Polygon {
	rng := rand.New(rand.NewSource(seed))
	n := int(frac*float64(len(polys)) + 0.999)
	if n < 1 {
		n = 1
	}
	if n > len(polys) {
		n = len(polys)
	}
	perm := rng.Perm(len(polys))
	out := make([]*geom.Polygon, n)
	for i := 0; i < n; i++ {
		out[i] = polys[perm[i]]
	}
	return out
}

// Combined builds the evaluation's combined workload: the base polygons
// once plus the skewed subset repeated skewedRuns times (paper Sec. 4.2,
// Fig. 10/17).
func Combined(base, skewed []*geom.Polygon, skewedRuns int) []*geom.Polygon {
	out := make([]*geom.Polygon, 0, len(base)+skewedRuns*len(skewed))
	out = append(out, base...)
	for r := 0; r < skewedRuns; r++ {
		out = append(out, skewed...)
	}
	return out
}

// ShardLocal generates n polygons that each lie strictly inside one
// random cell of the level-shardLevel grid over bound — the shard-local
// workload of a spatially partitioned deployment (internal/store): every
// query's covering routes to exactly one shard, so this is the
// best-case traffic for sharded serving. Polygons keep a comfortable
// margin (¼ of the shard cell) from the shard boundary so block-level
// covering cells cannot leak into a neighbouring shard.
func ShardLocal(bound geom.Rect, shardLevel, n int, seed int64) []*geom.Polygon {
	if shardLevel < 0 || shardLevel > 15 {
		panic(fmt.Sprintf("workload: shard level %d out of range", shardLevel))
	}
	rng := rand.New(rand.NewSource(seed))
	side := 1 << uint(shardLevel)
	cw := bound.Width() / float64(side)
	ch := bound.Height() / float64(side)
	out := make([]*geom.Polygon, n)
	for k := range out {
		i := rng.Intn(side)
		j := rng.Intn(side)
		// Centre within the middle half of the cell; radius below the
		// remaining quarter-cell margin.
		cx := bound.Min.X + (float64(i)+0.3+rng.Float64()*0.4)*cw
		cy := bound.Min.Y + (float64(j)+0.3+rng.Float64()*0.4)*ch
		r := (0.05 + rng.Float64()*0.15) * math.Min(cw, ch)
		out[k] = geom.RegularPolygon(geom.Pt(cx, cy), r, 4+rng.Intn(5))
	}
	return out
}

// CrossShard generates n polygons centred on random interior corners of
// the level-shardLevel grid over bound, so every query straddles the
// (typically four) shards meeting at that corner — the worst-case
// fan-out traffic for sharded serving, exercising the covering split and
// partial-accumulator merge on every query. shardLevel must be at least
// 1 (a level-0 grid has no interior corners).
func CrossShard(bound geom.Rect, shardLevel, n int, seed int64) []*geom.Polygon {
	if shardLevel < 1 || shardLevel > 15 {
		panic(fmt.Sprintf("workload: cross-shard needs shard level in [1,15], got %d", shardLevel))
	}
	rng := rand.New(rand.NewSource(seed))
	side := 1 << uint(shardLevel)
	cw := bound.Width() / float64(side)
	ch := bound.Height() / float64(side)
	out := make([]*geom.Polygon, n)
	for k := range out {
		cx := bound.Min.X + float64(1+rng.Intn(side-1))*cw
		cy := bound.Min.Y + float64(1+rng.Intn(side-1))*ch
		// Radius within half a shard cell: big enough that the covering
		// reaches into all adjacent shards, small enough to stay off
		// further corners.
		r := (0.15 + rng.Float64()*0.3) * math.Min(cw, ch)
		out[k] = geom.RegularPolygon(geom.Pt(cx, cy), r, 6+rng.Intn(7))
	}
	return out
}

// Hotspot is a deterministic skewed repeated-query generator: a fixed
// pool of small polygons ("map tiles over urban centers") drawn with
// Zipf-distributed frequencies, so a few hot regions dominate the stream
// while the tail stays long — the serving-tier traffic shape the result
// cache (internal/resultcache) adapts to. Construct with ZipfianHotspot.
type Hotspot struct {
	pool []*geom.Polygon
	zipf *rand.Zipf
}

// ZipfianHotspot builds a Hotspot over bound: a pool of nPolys small
// convex polygons (radius 1–4% of the bound's smaller extent) placed
// uniformly, drawn by rank with Zipf exponent s. Pool rank i is the
// (i+1)-th most popular query. s must exceed 1 (the math/rand Zipf
// sampler's domain); larger s concentrates more of the stream on the
// hottest few polygons. The same (bound, nPolys, s, seed) always yields
// the same pool and the same draw sequence.
func ZipfianHotspot(bound geom.Rect, nPolys int, s float64, seed int64) *Hotspot {
	if nPolys < 1 {
		panic(fmt.Sprintf("workload: hotspot needs >= 1 polygon, got %d", nPolys))
	}
	if s <= 1 {
		panic(fmt.Sprintf("workload: zipf exponent must be > 1, got %v", s))
	}
	rng := rand.New(rand.NewSource(seed))
	ext := math.Min(bound.Width(), bound.Height())
	pool := make([]*geom.Polygon, nPolys)
	for i := range pool {
		r := (0.01 + rng.Float64()*0.03) * ext
		cx := bound.Min.X + r + rng.Float64()*(bound.Width()-2*r)
		cy := bound.Min.Y + r + rng.Float64()*(bound.Height()-2*r)
		pool[i] = geom.RegularPolygon(geom.Pt(cx, cy), r, 4+rng.Intn(5))
	}
	return &Hotspot{pool: pool, zipf: rand.NewZipf(rng, s, 1, uint64(nPolys-1))}
}

// Pool returns the polygon pool, hottest rank first. The slice is shared;
// callers must not mutate it.
func (h *Hotspot) Pool() []*geom.Polygon { return h.pool }

// NextIndex draws the next pool rank of the stream.
func (h *Hotspot) NextIndex() int { return int(h.zipf.Uint64()) }

// Next draws the next query polygon of the stream.
func (h *Hotspot) Next() *geom.Polygon { return h.pool[h.NextIndex()] }

// ZipfIndices draws count Zipf-distributed ranks in [0, n) with exponent
// s — the bare index stream for callers with their own query pool (e.g.
// skewed cell streams in cache tests). Deterministic per seed; s must
// exceed 1.
func ZipfIndices(n, count int, s float64, seed int64) []int {
	if n < 1 {
		panic(fmt.Sprintf("workload: zipf indices need n >= 1, got %d", n))
	}
	if s <= 1 {
		panic(fmt.Sprintf("workload: zipf exponent must be > 1, got %v", s))
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, s, 1, uint64(n-1))
	out := make([]int, count)
	for i := range out {
		out[i] = int(zipf.Uint64())
	}
	return out
}

// SelectivityRect grows a rectangle around the data's spatial median until
// it contains approximately the target fraction of the table's rows (the
// paper's Fig. 12 polygons "covering a part of NYC which contains a
// certain percentage of the total rides"). The rectangle's aspect follows
// the domain. Accuracy is within ~1% of the target or the best achievable
// at the domain boundary.
func SelectivityRect(tbl *column.Table, dom cellid.Domain, target float64) geom.Rect {
	if target >= 1 {
		return dom.Bound()
	}
	center := spatialMedian(tbl, dom)
	bound := dom.Bound()
	total := float64(tbl.NumRows())

	count := func(scale float64) float64 {
		halfW := bound.Width() / 2 * scale
		halfH := bound.Height() / 2 * scale
		r := geom.RectFromCenter(center, halfW, halfH)
		n := 0
		for i := 0; i < tbl.NumRows(); i++ {
			if r.ContainsPoint(dom.CellCenter(cellid.ID(tbl.Keys[i]))) {
				n++
			}
		}
		return float64(n) / total
	}

	lo, hi := 0.0, 2.0 // scale 2 always covers the bound from any centre
	for iter := 0; iter < 24; iter++ {
		mid := (lo + hi) / 2
		if count(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return geom.RectFromCenter(center, bound.Width()/2*hi, bound.Height()/2*hi)
}

// spatialMedian approximates the coordinate-wise median of the table's
// point locations by sampling.
func spatialMedian(tbl *column.Table, dom cellid.Domain) geom.Point {
	n := tbl.NumRows()
	if n == 0 {
		return dom.Bound().Center()
	}
	step := n/1024 + 1
	var xs, ys []float64
	for i := 0; i < n; i += step {
		p := dom.CellCenter(cellid.ID(tbl.Keys[i]))
		xs = append(xs, p.X)
		ys = append(ys, p.Y)
	}
	return geom.Pt(median(xs), median(ys))
}

func median(v []float64) float64 {
	// Insertion-select the middle element; inputs are ~1k values.
	c := append([]float64(nil), v...)
	k := len(c) / 2
	for i := 0; i <= k; i++ {
		minIdx := i
		for j := i + 1; j < len(c); j++ {
			if c[j] < c[minIdx] {
				minIdx = j
			}
		}
		c[i], c[minIdx] = c[minIdx], c[i]
	}
	return c[k]
}

package main

import (
	"math"
	"sort"
	"strconv"
)

// The generators below are the benchmark's own: they share no code with
// internal/workload, so a change there cannot move the benchmark's
// inputs. Every input is a pure function of (seed, stream, index), which
// lets any client goroutine build request i without coordination and
// lets the traced pass replay the same requests.

// rng is splitmix64: small enough to seed once per request.
type rng struct{ s uint64 }

// Streams keep the inputs of different purposes independent under one seed.
const (
	streamPool uint64 = iota + 1
	streamExplore
	streamZipf
	streamJoin
	streamProbe
	streamIngest
	streamSweep
	streamChurn
	streamChurnShape
	streamMix
)

func newRNG(seed int64, stream, index uint64) rng {
	r := rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xBF58476D1CE4E5B9 ^ index*0x94D049BB133111EB}
	r.u64() // decorrelate neighbouring indices
	return r
}

func (r *rng) u64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// box is an axis-aligned rectangle as /v1/stats reports a dataset bound:
// minX, minY, maxX, maxY.
type box [4]float64

func (b box) width() float64  { return b[2] - b[0] }
func (b box) height() float64 { return b[3] - b[1] }

// sub returns the sub-rectangle spanning the given fractions of b.
func (b box) sub(fx0, fy0, fx1, fy1 float64) box {
	return box{b[0] + fx0*b.width(), b[1] + fy0*b.height(), b[0] + fx1*b.width(), b[1] + fy1*b.height()}
}

// ring is a polygon's outer ring in the JSON API's form.
type ring [][2]float64

// genRing draws a star-shaped (hence simple) polygon lying wholly inside
// in. Two numbers in [0, 1) fix what its cost depends on: size places
// its diameter between 0.5 and 2 % of side, verts its vertex count
// between 12 and 24. Place and outline come from r.
func genRing(r *rng, in box, side, size, verts float64) ring {
	n := 12 + int(verts*13)
	rad := (0.005 + 0.015*size) * side / 2
	cx := in[0] + rad + r.float()*(in.width()-2*rad)
	cy := in[1] + rad + r.float()*(in.height()-2*rad)
	out := make(ring, n)
	for k := range out {
		// Angular jitter below half a step keeps the vertices in order.
		ang := 2 * math.Pi * (float64(k) + 0.8*(r.float()-0.5)) / float64(n)
		d := rad * (0.6 + 0.4*r.float())
		out[k] = [2]float64{cx + d*math.Cos(ang), cy + d*math.Sin(ang)}
	}
	return out
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(u float64) int {
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

const (
	loadAggs  = `[{"func":"count"},{"func":"sum","col":"fare_amount"}]`
	probeAggs = `[{"func":"count"},{"func":"sum","col":"fare_amount"},{"func":"min","col":"fare_amount"},{"func":"max","col":"fare_amount"}]`
)

func appendFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

func appendRing(b []byte, rg ring) []byte {
	b = append(b, '[')
	for i, v := range rg {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = appendFloat(b, v[0])
		b = append(b, ',')
		b = appendFloat(b, v[1])
		b = append(b, ']')
	}
	return append(b, ']')
}

// queryBody encodes one /v1/query request.
func queryBody(rg ring, aggs string, maxError float64) []byte {
	b := append(make([]byte, 0, 64+40*len(rg)), `{"dataset":"taxi","polygon":`...)
	b = appendRing(b, rg)
	b = append(b, `,"max_error":`...)
	b = appendFloat(b, maxError)
	b = append(b, `,"aggs":`...)
	b = append(b, aggs...)
	return append(b, '}')
}

// joinBody encodes one /v1/join request over pre-encoded rings; joins
// run with no_cache so the shared-grid coverer does the work every time.
func joinBody(rings [][]byte, aggs string, maxError float64) []byte {
	b := append(make([]byte, 0, 1024*len(rings)), `{"dataset":"taxi","polygons":[`...)
	for i, rg := range rings {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, rg...)
	}
	b = append(b, `],"no_cache":true,"max_error":`...)
	b = appendFloat(b, maxError)
	b = append(b, `,"aggs":`...)
	b = append(b, aggs...)
	return append(b, '}')
}

// Shapes of the inputs, fixed by the benchmark's definition.
const (
	poolSize     = 256   // hot pool: fits the result cache many times over
	zipfS        = 1.3   // skew of every Zipf draw
	joinPolys    = 64    // polygons per join request
	joinMaxError = 0.002 // lets the join planner pick a pyramid level
	probeCount   = 64    // polygons in a workload's answer-check set
	ingestBatch  = 250   // rows per ingest batch
	ingestRate   = 20.0  // batches per second
	sweepGrid    = 8     // shard level 3 is an 8x8 grid of shard cells
	sweepInset   = 0.02  // keeps a sweep polygon off its shard cell's edge
	mixHotShare  = 0.80  // open_mix: share of zipf_hot requests
	mixJoinShare = 0.02  // open_mix: share of join_tiles requests
	taxiNumCols  = 7     // value columns of the taxi schema
)

// Polygon centres fall in this part of the bound, where the synthetic
// taxi data is dense, so that answers are not mostly empty.
const focusX0, focusY0, focusX1, focusY1 = 0.35, 0.30, 0.75, 0.75

const (
	queryPath   = "/v1/query"
	joinPath    = "/v1/join"
	ingestPath  = "/v1/datasets/taxi/rows"
	ctypeJSON   = "application/json"
	ctypeNDJSON = "application/x-ndjson"
)

type reqKind int

const (
	kindQuery reqKind = iota
	kindJoin
	kindIngest
)

// request is one HTTP call of a workload's stream. rings holds the
// polygons the request asks about, for the traced pass to rebuild
// geometry from.
type request struct {
	kind  reqKind
	path  string
	ctype string
	body  []byte
	rings []ring
}

// gen builds every input of one seed.
type gen struct {
	seed  int64
	bound box
	side  float64
	focus box
	// ingestBox is where written rows land: one shard cell of the
	// level-2 partition (the one holding midtown and upper Manhattan), so
	// that a fold rebuilds one large shard, not the four that meet in the
	// middle of the bound.
	ingestBox box
	zipf      *zipf
	// The hot pool: rings, their /v1/query bodies and their bare ring
	// encodings (joined into /v1/join bodies), all built once.
	pool     []ring
	poolBody [][]byte
	poolRing [][]byte
}

func newGen(seed int64, bound box) *gen {
	g := &gen{
		seed:      seed,
		bound:     bound,
		side:      min(bound.width(), bound.height()),
		focus:     bound.sub(focusX0, focusY0, focusX1, focusY1),
		ingestBox: bound.sub(0.5, 0.5, 0.75, 0.75),
		zipf:      newZipf(poolSize, zipfS),
	}
	for k := 0; k < poolSize; k++ {
		r := newRNG(seed, streamPool, uint64(k))
		// A Zipf draw puts a third of the load on the first pool entry, so
		// its size and vertex count would decide a whole run's cost. Those
		// two are therefore the same for entry k under every seed (two
		// low-discrepancy sequences, which spread any prefix of the pool
		// evenly over the ranges); only place and outline are drawn.
		_, size := math.Modf(float64(k+1) * math.Phi)
		_, verts := math.Modf(float64(k+1) * math.Sqrt2)
		rg := genRing(&r, g.focus, g.side, size, verts)
		g.pool = append(g.pool, rg)
		g.poolBody = append(g.poolBody, queryBody(rg, loadAggs, 0))
		g.poolRing = append(g.poolRing, appendRing(nil, rg))
	}
	return g
}

// explore is request i of explore_uniform: a polygon no other request uses.
func (g *gen) explore(i uint64) request {
	r := newRNG(g.seed, streamExplore, i)
	rg := genRing(&r, g.focus, g.side, r.float(), r.float())
	return request{kind: kindQuery, path: queryPath, ctype: ctypeJSON, body: queryBody(rg, loadAggs, 0), rings: []ring{rg}}
}

// hot is request i of zipf_hot: a Zipf draw from the pool.
func (g *gen) hot(i uint64) request {
	r := newRNG(g.seed, streamZipf, i)
	k := g.zipf.draw(r.float())
	return request{kind: kindQuery, path: queryPath, ctype: ctypeJSON, body: g.poolBody[k], rings: g.pool[k : k+1]}
}

// join is request i of join_tiles: 64 Zipf draws from the pool, so a
// request repeats polygons and the operator's content dedup has work.
func (g *gen) join(i uint64) request {
	r := newRNG(g.seed, streamJoin, i)
	enc := make([][]byte, joinPolys)
	rings := make([]ring, joinPolys)
	for j := range enc {
		k := g.zipf.draw(r.float())
		enc[j], rings[j] = g.poolRing[k], g.pool[k]
	}
	return request{kind: kindJoin, path: joinPath, ctype: ctypeJSON, body: joinBody(enc, loadAggs, joinMaxError), rings: rings}
}

// mix is request i of open_mix.
func (g *gen) mix(i uint64) request {
	r := newRNG(g.seed, streamMix, i)
	switch u := r.float(); {
	case u < mixHotShare:
		return g.hot(i)
	case u < 1-mixJoinShare:
		return g.explore(i)
	default:
		return g.join(i)
	}
}

// shardCell returns cell j (row-major) of the shard-level-3 grid, inset
// so a polygon drawn inside it touches that shard only.
func (g *gen) shardCell(j int) box {
	ix, iy := float64(j%sweepGrid), float64(j/sweepGrid)
	return g.bound.sub(
		(ix+sweepInset)/sweepGrid, (iy+sweepInset)/sweepGrid,
		(ix+1-sweepInset)/sweepGrid, (iy+1-sweepInset)/sweepGrid)
}

// sweep is request j of mapped_cold's first-touch sweep: one fixed
// polygon per shard cell, in row-major order.
func (g *gen) sweep(j uint64) request {
	r := newRNG(g.seed, streamSweep, j)
	rg := genRing(&r, g.shardCell(int(j)), g.side, r.float(), r.float())
	return request{kind: kindQuery, path: queryPath, ctype: ctypeJSON, body: queryBody(rg, probeAggs, 0), rings: []ring{rg}}
}

// churn is request i of mapped_cold's second phase: a fresh polygon in
// the next shard cell of a schedule that visits the cells uniformly, so
// the resident set keeps turning over. Each block of 64 requests is a
// fresh random permutation of the 64 cells: exactly uniform, where
// independent draws would make one run's mix of big and small shards
// differ from the next's.
func (g *gen) churn(i uint64) request {
	const cells = sweepGrid * sweepGrid
	order := newRNG(g.seed, streamChurn, i/cells)
	var perm [cells]int
	for k := range perm {
		j := order.intn(k + 1)
		perm[k], perm[j] = perm[j], k
	}
	r := newRNG(g.seed, streamChurnShape, i)
	rg := genRing(&r, g.shardCell(perm[i%cells]), g.side, r.float(), r.float())
	return request{kind: kindQuery, path: queryPath, ctype: ctypeJSON, body: queryBody(rg, loadAggs, 0), rings: []ring{rg}}
}

// ingestRows draws batch k of the write stream: positions uniform over
// the ingest box, values in the ranges the taxi generator produces,
// rounded to cents so the NDJSON text round-trips exactly.
func (g *gen) ingestRows(k uint64) (pts [][2]float64, cols [][]float64) {
	r := newRNG(g.seed, streamIngest, k)
	cents := func(v float64) float64 { return math.Round(v*100) / 100 }
	pts = make([][2]float64, ingestBatch)
	cols = make([][]float64, taxiNumCols)
	for c := range cols {
		cols[c] = make([]float64, ingestBatch)
	}
	for i := range pts {
		pts[i] = [2]float64{
			g.ingestBox[0] + r.float()*g.ingestBox.width(),
			g.ingestBox[1] + r.float()*g.ingestBox.height(),
		}
		fare := cents(2.5 + 60*r.float())
		tip := cents(fare * 0.3 * r.float())
		cols[0][i] = fare                      // fare_amount
		cols[1][i] = cents(0.1 + 20*r.float()) // trip_distance
		cols[2][i] = tip                       // tip_amount
		cols[3][i] = cents(tip / fare)         // tip_rate
		cols[4][i] = float64(1 + r.intn(6))    // passenger_count
		cols[5][i] = float64(r.intn(24))       // pickup_hour
		cols[6][i] = float64(1 + r.intn(2))    // payment_type
	}
	return pts, cols
}

// ingest is batch k of read_under_ingest's write stream as NDJSON.
func (g *gen) ingest(k uint64) request {
	pts, cols := g.ingestRows(k)
	b := make([]byte, 0, 64*ingestBatch)
	for i, p := range pts {
		b = append(b, '[')
		b = appendFloat(b, p[0])
		b = append(b, ',')
		b = appendFloat(b, p[1])
		for c := range cols {
			b = append(b, ',')
			b = appendFloat(b, cols[c][i])
		}
		b = append(b, ']', '\n')
	}
	return request{kind: kindIngest, path: ingestPath, ctype: ctypeNDJSON, body: b}
}

// probes returns the workload-independent part of an answer-check set:
// 64 polygons of a dedicated stream, never used by the load.
func (g *gen) probes() []ring {
	out := make([]ring, probeCount)
	for k := range out {
		r := newRNG(g.seed, streamProbe, uint64(k))
		out[k] = genRing(&r, g.focus, g.side, r.float(), r.float())
	}
	return out
}

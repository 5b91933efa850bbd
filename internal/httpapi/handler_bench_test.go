package httpapi

import (
	"bytes"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"

	"geoblocks/internal/store"
)

// The handler benchmarks serve the request shapes of the serving-tier
// benchmark (bench/gen.go) through ServeHTTP, over the dataset shape its
// workloads load: 300 000 taxi rows at block level 14, shard level 2, a
// four-level pyramid and the daemon's default caches.

const (
	wirePoolSize  = 256   // bench/gen.go poolSize
	wireZipfS     = 1.3   // bench/gen.go zipfS
	wireJoinPolys = 64    // bench/gen.go joinPolys
	wireMaxError  = 0.002 // bench/gen.go joinMaxError
	wireLoadAggs  = `[{"func":"count"},{"func":"sum","col":"fare_amount"}]`
)

// wireRingPool draws bench/gen.go's ring pool shape: star-shaped rings of
// 12 to 25 vertices inside the dense middle of the taxi bound.
func wireRingPool(seed uint64) [][][2]float64 {
	r := rand.New(rand.NewPCG(seed, 1))
	const x0, y0, x1, y1 = -74.3, 40.45, -73.65, 41.0
	fx0, fy0 := x0+0.35*(x1-x0), y0+0.30*(y1-y0)
	fw, fh := 0.40*(x1-x0), 0.45*(y1-y0)
	side := min(x1-x0, y1-y0)
	pool := make([][][2]float64, wirePoolSize)
	for k := range pool {
		n := 12 + r.IntN(14)
		rad := (0.005 + 0.015*r.Float64()) * side / 2
		cx := fx0 + rad + r.Float64()*(fw-2*rad)
		cy := fy0 + rad + r.Float64()*(fh-2*rad)
		rg := make([][2]float64, n)
		for v := range rg {
			ang := 2 * math.Pi * (float64(v) + 0.8*(r.Float64()-0.5)) / float64(n)
			d := rad * (0.6 + 0.4*r.Float64())
			rg[v] = [2]float64{cx + d*math.Cos(ang), cy + d*math.Sin(ang)}
		}
		pool[k] = rg
	}
	return pool
}

// wireZipfDraws returns n Zipf-1.3 draws from the pool, as bench/gen.go's
// join requests pick their polygons.
func wireZipfDraws(pool [][][2]float64, n int, seed uint64) [][][2]float64 {
	cdf := make([]float64, len(pool))
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -wireZipfS)
		cdf[k] = total
	}
	r := rand.New(rand.NewPCG(seed, 2))
	out := make([][][2]float64, n)
	for i := range out {
		out[i] = pool[min(sort.SearchFloat64s(cdf, r.Float64()*total), len(pool)-1)]
	}
	return out
}

// appendWireRing encodes a ring as bench/gen.go's appendRing does.
func appendWireRing(b []byte, rg [][2]float64) []byte {
	b = append(b, '[')
	for i, v := range rg {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, v[0], 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, v[1], 'g', -1, 64)
		b = append(b, ']')
	}
	return append(b, ']')
}

// wireQueryBody is bench/gen.go's queryBody.
func wireQueryBody(rg [][2]float64, maxError float64) []byte {
	b := append([]byte(`{"dataset":"taxi","polygon":`), appendWireRing(nil, rg)...)
	b = append(b, `,"max_error":`...)
	b = strconv.AppendFloat(b, maxError, 'g', -1, 64)
	b = append(b, `,"aggs":`...)
	b = append(b, wireLoadAggs...)
	return append(b, '}')
}

// wireJoinBody is bench/gen.go's joinBody.
func wireJoinBody(rings [][][2]float64, maxError float64) []byte {
	b := []byte(`{"dataset":"taxi","polygons":[`)
	for i, rg := range rings {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendWireRing(b, rg)
	}
	b = append(b, `],"no_cache":true,"max_error":`...)
	b = strconv.AppendFloat(b, maxError, 'g', -1, 64)
	b = append(b, `,"aggs":`...)
	b = append(b, wireLoadAggs...)
	return append(b, '}')
}

var benchHandler = sync.OnceValues(func() (http.Handler, error) {
	d, err := BuildSynthetic("taxi", "taxi", 300_000, 1, store.Options{
		Level:              14,
		ShardLevel:         2,
		PyramidLevels:      4,
		ResultCacheBytes:   64 << 20,
		ResultCacheMinHits: 2,
	})
	if err != nil {
		return nil, err
	}
	st := store.New()
	if err := st.Add(d); err != nil {
		return nil, err
	}
	_, h := newServer(st, Config{})
	return h, nil
})

// serveBody posts body to path and fails the benchmark on a non-200.
func serveBody(b *testing.B, h http.Handler, path string, body []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkHandleJoin64 serves join_tiles-shaped requests: 64 Zipf draws
// from the ring pool, no_cache, max_error 0.002.
func BenchmarkHandleJoin64(b *testing.B) {
	h, err := benchHandler()
	if err != nil {
		b.Fatal(err)
	}
	pool := wireRingPool(1)
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = wireJoinBody(wireZipfDraws(pool, wireJoinPolys, uint64(i)), wireMaxError)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBody(b, h, "/v1/join", bodies[i%len(bodies)])
	}
}

// BenchmarkHandleQueryCached serves one zipf_hot-shaped polygon answered
// from the result cache.
func BenchmarkHandleQueryCached(b *testing.B) {
	h, err := benchHandler()
	if err != nil {
		b.Fatal(err)
	}
	body := wireQueryBody(wireRingPool(1)[0], 0)
	for i := 0; i < 4; i++ { // past the admission floor
		serveBody(b, h, "/v1/query", body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBody(b, h, "/v1/query", body)
	}
}

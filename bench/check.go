package main

import (
	"fmt"
	"math"

	"geoblocks"
	"geoblocks/internal/baseline"
	"geoblocks/internal/cellid"
	"geoblocks/internal/dataset"
	"geoblocks/internal/geom"
	"geoblocks/internal/httpapi"
	"geoblocks/internal/store"
)

// answer is one query result as the daemon's JSON reports it; a null
// value is a NaN (the MIN of an empty region).
type answer struct {
	Count      uint64     `json:"count"`
	Values     []*float64 `json:"values"`
	Level      int        `json:"level"`
	ErrorBound float64    `json:"error_bound"`
}

// queryResponse covers the bodies of /v1/query (Result) and /v1/join
// (Results, Stats).
type queryResponse struct {
	Result  *answer  `json:"result"`
	Results []answer `json:"results"`
	Stats   struct {
		Polygons       int `json:"polygons"`
		UniquePolygons int `json:"unique_polygons"`
	} `json:"stats"`
}

// sumTolerance bounds the relative difference two correct SUMs may show:
// shards, caches and folds re-associate floating-point additions.
const sumTolerance = 1e-9

func probeRequests() []geoblocks.AggRequest {
	return []geoblocks.AggRequest{
		geoblocks.Count(), geoblocks.Sum("fare_amount"), geoblocks.Min("fare_amount"), geoblocks.Max("fare_amount"),
	}
}

func loadRequests() []geoblocks.AggRequest {
	return []geoblocks.AggRequest{geoblocks.Count(), geoblocks.Sum("fare_amount")}
}

// oracle holds the two references an HTTP answer is checked against:
// the same dataset built in this process from the same seed and options,
// and the raw rows for a brute-force count.
type oracle struct {
	ds  *store.Dataset
	dom cellid.Domain
	// centers and fares list every row the dataset holds: its location
	// as the blocks know it (the centre of its leaf cell) and its
	// fare_amount, the column the probes aggregate.
	centers []geom.Point
	fares   []float64
}

// newOracle generates the synthetic taxi rows exactly as the daemon's
// -load does (httpapi.BuildSynthetic) and keeps the cleaned rows beside
// the built dataset.
func newOracle(rows int, seed int64, opts store.Options) (*oracle, error) {
	spec, _ := httpapi.SpecByName("taxi")
	raw := dataset.Generate(spec, rows, seed)
	clean := raw.CleanRule()
	opts.Clean = &clean
	ds, err := store.Build("taxi", spec.Bound, spec.Schema, raw.Points, raw.Cols, opts)
	if err != nil {
		return nil, fmt.Errorf("building the in-process dataset: %w", err)
	}
	base, _, err := raw.Extract(-1)
	if err != nil {
		return nil, fmt.Errorf("extracting the brute-force rows: %w", err)
	}
	o := &oracle{ds: ds, dom: base.Domain, fares: base.Table.Cols[spec.Schema.ColIndex("fare_amount")]}
	o.centers = make([]geom.Point, base.Table.NumRows())
	for i, k := range base.Table.Keys {
		o.centers[i] = o.dom.CellCenter(cellid.ID(k))
	}
	return o, nil
}

// ingest applies one acknowledged batch to both references.
func (o *oracle) ingest(pts [][2]float64, cols [][]float64) error {
	gp := toPoints(pts)
	for _, p := range gp {
		o.centers = append(o.centers, o.dom.CellCenter(o.dom.FromPoint(p)))
	}
	o.fares = append(o.fares, cols[0]...)
	_, err := o.ds.Ingest(gp, cols)
	return err
}

func toPoints(pts [][2]float64) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, v := range pts {
		out[i] = geom.Pt(v[0], v[1])
	}
	return out
}

func toPolygon(rg ring) (*geom.Polygon, error) { return geom.TryPolygon(toPoints(rg)) }

// envelope counts, by brute force over every row, the rows inside poly
// and the rows within margin of it, with their fare sums.
func (o *oracle) envelope(poly *geom.Polygon, margin float64) (inCount, nearCount uint64, inSum, nearSum float64) {
	bb := poly.Bound().Expanded(margin)
	for i, p := range o.centers {
		if !bb.ContainsPoint(p) {
			continue
		}
		d := baseline.DistanceToPolygon(p, poly)
		if d > margin {
			continue
		}
		nearCount++
		nearSum += o.fares[i]
		if d == 0 {
			inCount++
			inSum += o.fares[i]
		}
	}
	return
}

// check verifies one HTTP answer to a probe (count, sum, min, max of
// fare_amount over rg at maxError): (a) COUNT, MIN, MAX, the level and
// the error bound equal the in-process dataset's bit for bit, SUM within
// re-association; (b) COUNT and SUM lie inside the brute-force envelope
// of the reported error bound — nothing inside the polygon missed,
// nothing farther than the bound included.
func (o *oracle) check(rg ring, maxError float64, got answer) error {
	poly, err := toPolygon(rg)
	if err != nil {
		return err
	}
	want, err := o.ds.QueryOpts(poly, geoblocks.QueryOptions{MaxError: maxError}, probeRequests()...)
	if err != nil {
		return err
	}
	if len(got.Values) != len(want.Values) {
		return fmt.Errorf("answer has %d values, want %d", len(got.Values), len(want.Values))
	}
	val := func(i int) float64 {
		if got.Values[i] == nil {
			return math.NaN()
		}
		return *got.Values[i]
	}
	same := func(a, b float64) bool { return a == b || (isNullJSON(a) && isNullJSON(b)) }
	if got.Count != want.Count || !same(val(2), want.Values[2]) || !same(val(3), want.Values[3]) {
		return fmt.Errorf("count/min/max %d/%v/%v differ from the in-process dataset's %d/%v/%v",
			got.Count, val(2), val(3), want.Count, want.Values[2], want.Values[3])
	}
	if got.Level != want.Level || got.ErrorBound != want.ErrorBound {
		return fmt.Errorf("level %d bound %v differ from the in-process dataset's %d / %v",
			got.Level, got.ErrorBound, want.Level, want.ErrorBound)
	}
	sum := val(1)
	// Conditions on sum are written so that a NaN fails them.
	if !(math.Abs(sum-want.Values[1]) <= sumTolerance*math.Abs(want.Values[1])) {
		return fmt.Errorf("sum %v differs from the in-process dataset's %v", sum, want.Values[1])
	}
	margin := got.ErrorBound*(1+1e-9) + 1e-12
	inCount, nearCount, inSum, nearSum := o.envelope(poly, margin)
	if got.Count < inCount || got.Count > nearCount {
		return fmt.Errorf("count %d outside the brute-force envelope [%d, %d] of bound %g", got.Count, inCount, nearCount, got.ErrorBound)
	}
	// Fares are positive, so the sum is monotone in the set of rows.
	if !(sum >= inSum*(1-sumTolerance) && sum <= nearSum*(1+sumTolerance)) {
		return fmt.Errorf("sum %v outside the brute-force envelope [%v, %v] of bound %g", sum, inSum, nearSum, got.ErrorBound)
	}
	return nil
}

// isNullJSON reports whether the daemon encodes v as null.
func isNullJSON(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

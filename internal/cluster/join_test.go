package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"

	"geoblocks"
	"geoblocks/internal/geom"
	"geoblocks/internal/store"
)

// TestClusterJoinEquivalence is the join's cluster equivalence battery:
// the coordinator computes one join plan and splits each
// polygon's planned covering across the peers; every per-polygon answer
// must be bit-identical to the single-node Join (and therefore to N
// sequential queries) — COUNT/MIN/MAX values, achieved level and error
// bound — across topologies and planner error budgets.
func TestClusterJoinEquivalence(t *testing.T) {
	const rows = 10_000
	combos := []struct {
		nodes, shardLevel int
	}{
		{1, 2},
		{2, 2},
		{3, 2},
	}
	for _, cb := range combos {
		t.Run(fmt.Sprintf("nodes=%d/shard=%d", cb.nodes, cb.shardLevel), func(t *testing.T) {
			opts := store.Options{Level: 12, ShardLevel: cb.shardLevel, PyramidLevels: 3}
			control := buildDataset(t, rows, 7, opts)
			tc := startCluster(t, cb.nodes, 2, rows, 7, opts, nil)
			co := tc.coord()
			ctx := context.Background()

			rng := rand.New(rand.NewSource(int64(9000 + cb.nodes)))
			var polys []*geom.Polygon
			for i := 0; i < 25; i++ {
				c := geom.Pt(rng.Float64()*100, rng.Float64()*100)
				if i%3 == 0 {
					c = geom.Pt(25+rng.NormFloat64()*8, 70+rng.NormFloat64()*8)
				}
				polys = append(polys, geoblocks.RegularPolygon(c, 0.5+rng.Float64()*18, 3+rng.Intn(8)))
			}
			// One polygon outside the domain: must answer the identity
			// result through the same path.
			polys = append(polys, geoblocks.RegularPolygon(geom.Pt(900, 900), 5, 6))

			for _, maxErr := range []float64{0, 0.2, 3.0} {
				qo := geoblocks.QueryOptions{MaxError: maxErr}
				wants, wantStats, err := control.Join(polys, qo, testReqs...)
				if err != nil {
					t.Fatalf("single-node join: %v", err)
				}
				gots, stats, err := co.Join(ctx, "taxi", polys, qo, testReqs)
				if err != nil {
					t.Fatalf("cluster join: %v", err)
				}
				if len(gots) != len(polys) {
					t.Fatalf("cluster join answered %d results for %d polygons", len(gots), len(polys))
				}
				for i := range gots {
					assertSame(t, gots[i], wants[i], fmt.Sprintf("join poly %d maxErr=%g", i, maxErr))
				}
				// The coordinator plans on an identical build, so the
				// covering pair counts must agree with single-node.
				if stats.Polygons != wantStats.Polygons ||
					stats.InteriorPairs != wantStats.InteriorPairs ||
					stats.BoundaryPairs != wantStats.BoundaryPairs {
					t.Fatalf("cluster join stats %+v, single-node %+v", stats, wantStats)
				}
			}

			if cb.nodes >= 3 && co.Stats().RemoteCalls == 0 {
				t.Errorf("join exercised no remote calls in a %d-node topology", cb.nodes)
			}
		})
	}
}

// TestClusterJoinHTTP drives /v1/join through a coordinator node's HTTP
// handler: the cluster tail must answer both the polygon and window
// forms and agree with the control dataset.
func TestClusterJoinHTTP(t *testing.T) {
	const rows = 8_000
	opts := store.Options{Level: 12, ShardLevel: 2}
	control := buildDataset(t, rows, 7, opts)
	tc := startCluster(t, 3, 2, rows, 7, opts, nil)

	body := `{"dataset":"taxi","polygons":[
		[[20,60],[40,60],[40,80],[20,80]],
		[[10,10],[30,10],[30,30],[10,30]]
	],"aggs":[{"func":"count"},{"func":"sum","col":"ival"}]}`
	resp, err := http.Post(tc.nodes[0].srv.URL+"/v1/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/join: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var jr struct {
		Results []struct {
			Count  uint64    `json:"count"`
			Values []float64 `json:"values"`
		} `json:"results"`
		Stats struct {
			Polygons int `json:"polygons"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(jr.Results) != 2 || jr.Stats.Polygons != 2 {
		t.Fatalf("join answered %d results, stats %+v: %s", len(jr.Results), jr.Stats, data)
	}
	rings := [][]geom.Point{
		{geom.Pt(20, 60), geom.Pt(40, 60), geom.Pt(40, 80), geom.Pt(20, 80)},
		{geom.Pt(10, 10), geom.Pt(30, 10), geom.Pt(30, 30), geom.Pt(10, 30)},
	}
	for i, ring := range rings {
		want, err := control.Query(geom.NewPolygon(ring), testReqs[:2]...)
		if err != nil {
			t.Fatalf("control query %d: %v", i, err)
		}
		if jr.Results[i].Count != want.Count {
			t.Errorf("result %d: count %d over HTTP, control %d", i, jr.Results[i].Count, want.Count)
		}
		if jr.Results[i].Values[1] != want.Values[1] {
			t.Errorf("result %d: sum %v over HTTP, control %v", i, jr.Results[i].Values[1], want.Values[1])
		}
	}

	wBody := `{"dataset":"taxi","window":{"rect":[0,0,100,100],"nx":3,"ny":2},"aggs":[{"func":"count"}]}`
	wResp, err := http.Post(tc.nodes[0].srv.URL+"/v1/join", "application/json", strings.NewReader(wBody))
	if err != nil {
		t.Fatalf("POST window join: %v", err)
	}
	defer wResp.Body.Close()
	wData, _ := io.ReadAll(wResp.Body)
	if wResp.StatusCode != http.StatusOK {
		t.Fatalf("window status %d: %s", wResp.StatusCode, wData)
	}
	var wr struct {
		Results []struct {
			Count uint64 `json:"count"`
		} `json:"results"`
	}
	if err := json.Unmarshal(wData, &wr); err != nil {
		t.Fatalf("unmarshal window: %v", err)
	}
	if len(wr.Results) != 6 {
		t.Fatalf("3x2 window answered %d results", len(wr.Results))
	}
	var total uint64
	for _, r := range wr.Results {
		total += r.Count
	}
	// Tiles answer at cell granularity and share edges, so boundary
	// cells may count toward both neighbours: the sum covers every row
	// at least once.
	if total < uint64(rows) {
		t.Errorf("full-bound window tiles sum to %d rows, dataset has %d", total, rows)
	}
}

// TestClusterJoinUnknownDataset: the join fails up front on an
// unregistered dataset, before any plan work.
func TestClusterJoinUnknownDataset(t *testing.T) {
	tc := startCluster(t, 1, 1, 1_000, 3, store.Options{Level: 10, ShardLevel: 1}, nil)
	poly := geoblocks.RegularPolygon(geom.Pt(50, 50), 10, 6)
	if _, _, err := tc.coord().Join(context.Background(), "nope", []*geom.Polygon{poly}, geoblocks.QueryOptions{}, testReqs); err == nil {
		t.Fatal("join against unknown dataset succeeded")
	}
}

// TestClusterWindowJoin: a window join through the coordinator is a rect
// join, answered tile by tile exactly like the single-node JoinRects —
// counts, values, level, error bound and the covering pair counts —
// in process and over /v1/join.
func TestClusterWindowJoin(t *testing.T) {
	const rows = 8_000
	opts := store.Options{Level: 12, ShardLevel: 2}
	control := buildDataset(t, rows, 7, opts)
	tc := startCluster(t, 3, 2, rows, 7, opts, nil)

	// The tiles of a 3x2 window over [0,100]², laid out as /v1/join lays
	// them out, then two more rects.
	var tiles []geom.Rect
	dx, dy := 100.0/3, 100.0/2
	for iy := 0; iy < 2; iy++ {
		for ix := 0; ix < 3; ix++ {
			tiles = append(tiles, geom.Rect{
				Min: geom.Pt(float64(ix)*dx, float64(iy)*dy),
				Max: geom.Pt(float64(ix+1)*dx, float64(iy+1)*dy),
			})
		}
	}
	rects := append(slices.Clone(tiles),
		geom.Rect{Min: geom.Pt(20, 60), Max: geom.Pt(40, 80)},
		geom.Rect{Min: geom.Pt(10, 10), Max: geom.Pt(30, 30)})

	wants, wantStats, err := control.JoinRects(rects, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("single-node join: %v", err)
	}
	gots, stats, err := tc.coord().JoinRects(context.Background(), "taxi", rects, geoblocks.QueryOptions{}, testReqs)
	if err != nil {
		t.Fatalf("cluster join: %v", err)
	}
	for i := range gots {
		assertSame(t, gots[i], wants[i], fmt.Sprintf("rect %d", i))
	}
	if stats.InteriorPairs != wantStats.InteriorPairs || stats.BoundaryPairs != wantStats.BoundaryPairs {
		t.Errorf("cluster pairs %d/%d, single-node %d/%d", stats.InteriorPairs, stats.BoundaryPairs, wantStats.InteriorPairs, wantStats.BoundaryPairs)
	}

	wants, wantStats, err = control.JoinRects(tiles, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("single-node window: %v", err)
	}
	body := `{"dataset":"taxi","window":{"rect":[0,0,100,100],"nx":3,"ny":2},"aggs":[` +
		`{"func":"count"},{"func":"sum","col":"ival"},{"func":"min","col":"fval"},{"func":"max","col":"fval"},{"func":"avg","col":"ival"}]}`
	resp, err := http.Post(tc.nodes[0].srv.URL+"/v1/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST window join: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window status %d: %s", resp.StatusCode, data)
	}
	var wr struct {
		Results []struct {
			Count      uint64    `json:"count"`
			Values     []float64 `json:"values"`
			Level      int       `json:"level"`
			ErrorBound float64   `json:"error_bound"`
		} `json:"results"`
		Stats struct {
			InteriorPairs int `json:"interior_pairs"`
			BoundaryPairs int `json:"boundary_pairs"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(data, &wr); err != nil {
		t.Fatalf("unmarshal window: %v", err)
	}
	if len(wr.Results) != len(tiles) {
		t.Fatalf("3x2 window answered %d results", len(wr.Results))
	}
	for i, r := range wr.Results {
		got := geoblocks.Result{Count: r.Count, Values: r.Values, Level: r.Level, ErrorBound: r.ErrorBound}
		assertSame(t, got, wants[i], fmt.Sprintf("window tile %d", i))
	}
	if wr.Stats.InteriorPairs != wantStats.InteriorPairs || wr.Stats.BoundaryPairs != wantStats.BoundaryPairs {
		t.Errorf("window pairs %d/%d over HTTP, single-node %d/%d", wr.Stats.InteriorPairs, wr.Stats.BoundaryPairs, wantStats.InteriorPairs, wantStats.BoundaryPairs)
	}
}

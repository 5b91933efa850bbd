// Package cluster_test proves the cluster scatter-gather against the
// single-node engine: same rows, same build options, the coordinator's
// answer must be bit-identical to the local router's for COUNT/MIN/MAX
// (SUM exact here because the summed column is integer-valued, per
// DESIGN.md Sec. 6), with identical achieved level and error bound.
package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http/httptest"
	"testing"

	"geoblocks"
	"geoblocks/internal/cluster"
	"geoblocks/internal/geom"
	"geoblocks/internal/httpapi"
	"geoblocks/internal/store"
)

var testBound = geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}

var testReqs = []geoblocks.AggRequest{
	geoblocks.Count(),
	geoblocks.Sum("ival"),
	geoblocks.Min("fval"),
	geoblocks.Max("fval"),
	geoblocks.Avg("ival"),
}

// testRows mirrors the store suite's generator: clustered points, one
// integer-valued column (exact float sums) and one continuous column.
func testRows(n int, seed int64) ([]geom.Point, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	ints := make([]float64, n)
	floats := make([]float64, n)
	for i := range pts {
		if i%3 == 0 {
			pts[i] = geom.Pt(25+rng.NormFloat64()*8, 70+rng.NormFloat64()*8)
		} else {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		ints[i] = math.Floor(rng.Float64() * 1000)
		floats[i] = rng.NormFloat64() * 42
	}
	return pts, [][]float64{ints, floats}
}

func buildDataset(t testing.TB, rows int, seed int64, opts store.Options) *store.Dataset {
	t.Helper()
	pts, cols := testRows(rows, seed)
	d, err := store.Build("taxi", testBound, geoblocks.NewSchema("ival", "fval"), pts, cols, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return d
}

// assertSame requires full result agreement: count, every aggregate
// value (NaN matches NaN), the achieved pyramid level and the bitwise
// error bound.
func assertSame(t *testing.T, got, want geoblocks.Result, label string) {
	t.Helper()
	if got.Count != want.Count {
		t.Errorf("%s: count = %d, want %d", label, got.Count, want.Count)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: %d values, want %d", label, len(got.Values), len(want.Values))
	}
	for i, v := range got.Values {
		w := want.Values[i]
		if math.IsNaN(v) && math.IsNaN(w) {
			continue
		}
		if v != w {
			t.Errorf("%s: value[%d] = %v, want %v", label, i, v, w)
		}
	}
	if got.Level != want.Level {
		t.Errorf("%s: level = %d, want %d", label, got.Level, want.Level)
	}
	if math.Float64bits(got.ErrorBound) != math.Float64bits(want.ErrorBound) {
		t.Errorf("%s: error bound = %v, want %v (not bit-identical)", label, got.ErrorBound, want.ErrorBound)
	}
}

// testNode is one cluster member: its own store holding an identical
// build of the dataset, a coordinator bound to its name, and a live
// HTTP server on the address the assignment advertises.
type testNode struct {
	name string
	addr string
	st   *store.Store
	ds   *store.Dataset
	co   *cluster.Coordinator
	srv  *httptest.Server
}

type testCluster struct {
	cfg   *cluster.Config
	nodes []*testNode
}

// coord is the querying node: node 0 runs with Coordinator routing on.
func (tc *testCluster) coord() *cluster.Coordinator { return tc.nodes[0].co }

// startCluster brings up n nodes, each a full replica built from the
// same rows. Listener addresses are reserved before the assignment is
// written so the config can name them.
func startCluster(t testing.TB, n int, replication, rows int, seed int64, opts store.Options, tune func(*cluster.Config)) *testCluster {
	t.Helper()
	lns := make([]net.Listener, n)
	cfg := &cluster.Config{Epoch: 1, Replication: replication}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		cfg.Nodes = append(cfg.Nodes, cluster.Node{
			Name: fmt.Sprintf("n%d", i),
			Addr: ln.Addr().String(),
		})
	}
	if tune != nil {
		tune(cfg)
	}
	tc := &testCluster{cfg: cfg}
	for i := 0; i < n; i++ {
		st := store.New()
		ds := buildDataset(t, rows, seed, opts)
		if err := st.Add(ds); err != nil {
			t.Fatalf("Add: %v", err)
		}
		co, err := cluster.New(st, cfg, cfg.Nodes[i].Name)
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", cfg.Nodes[i].Name, err)
		}
		h := httpapi.NewHandler(st, httpapi.Config{Cluster: co, Coordinator: i == 0})
		srv := httptest.NewUnstartedServer(h)
		srv.Listener.Close()
		srv.Listener = lns[i]
		srv.Start()
		tc.nodes = append(tc.nodes, &testNode{
			name: cfg.Nodes[i].Name,
			addr: cfg.Nodes[i].Addr,
			st:   st,
			ds:   ds,
			co:   co,
			srv:  srv,
		})
	}
	t.Cleanup(func() {
		for _, n := range tc.nodes {
			n.srv.Close()
		}
	})
	return tc
}

// TestClusterEquivalence is the randomized cluster-vs-single-node
// property suite: across topologies, shard levels and planner error
// budgets, the coordinator's scatter-gather must reproduce the local
// router's answers exactly — including the achieved level and the
// error_bound field.
func TestClusterEquivalence(t *testing.T) {
	const rows = 10_000
	combos := []struct {
		nodes, shardLevel int
	}{
		{1, 1},
		{2, 1},
		{2, 3},
		{3, 2},
	}
	maxErrors := []float64{0, 0.2, 3.0}
	for _, cb := range combos {
		t.Run(fmt.Sprintf("nodes=%d/shard=%d", cb.nodes, cb.shardLevel), func(t *testing.T) {
			opts := store.Options{Level: 12, ShardLevel: cb.shardLevel, PyramidLevels: 3}
			control := buildDataset(t, rows, 7, opts)
			tc := startCluster(t, cb.nodes, 2, rows, 7, opts, nil)
			co := tc.coord()
			ctx := context.Background()

			rng := rand.New(rand.NewSource(int64(1000 + cb.nodes*10 + cb.shardLevel)))
			var polys []*geom.Polygon
			for i := 0; i < 10; i++ {
				c := geom.Pt(rng.Float64()*100, rng.Float64()*100)
				polys = append(polys, geoblocks.RegularPolygon(c, 1+rng.Float64()*30, 3+rng.Intn(8)))
			}
			var rects []geom.Rect
			for i := 0; i < 6; i++ {
				rects = append(rects, geom.RectFromCenter(
					geom.Pt(rng.Float64()*100, rng.Float64()*100),
					1+rng.Float64()*40, 1+rng.Float64()*40))
			}

			for _, maxErr := range maxErrors {
				qo := geoblocks.QueryOptions{MaxError: maxErr}
				for i, poly := range polys {
					want, err := control.QueryOpts(poly, qo, testReqs...)
					if err != nil {
						t.Fatalf("control poly %d: %v", i, err)
					}
					got, err := co.Query(ctx, "taxi", poly, qo, testReqs)
					if err != nil {
						t.Fatalf("cluster poly %d: %v", i, err)
					}
					assertSame(t, got, want, fmt.Sprintf("poly %d maxErr=%g", i, maxErr))
					if maxErr == 3.0 && got.Level >= 12 {
						t.Errorf("poly %d: maxErr=3.0 answered at level %d; pyramid not exercised", i, got.Level)
					}
				}
				for i, r := range rects {
					want, err := control.QueryRectOpts(r, qo, testReqs...)
					if err != nil {
						t.Fatalf("control rect %d: %v", i, err)
					}
					got, err := co.QueryRect(ctx, "taxi", r, qo, testReqs)
					if err != nil {
						t.Fatalf("cluster rect %d: %v", i, err)
					}
					assertSame(t, got, want, fmt.Sprintf("rect %d maxErr=%g", i, maxErr))
				}
				wants, err := control.QueryBatchOpts(polys[:5], qo, testReqs...)
				if err != nil {
					t.Fatalf("control batch: %v", err)
				}
				gots, err := co.QueryBatch(ctx, "taxi", polys[:5], qo, testReqs)
				if err != nil {
					t.Fatalf("cluster batch: %v", err)
				}
				if len(gots) != len(wants) {
					t.Fatalf("batch answered %d results, want %d", len(gots), len(wants))
				}
				for i := range gots {
					assertSame(t, gots[i], wants[i], fmt.Sprintf("batch %d maxErr=%g", i, maxErr))
				}
			}

			stats := co.Stats()
			if cb.nodes >= 3 && stats.RemoteCalls == 0 {
				// With replication 2 over >= 3 nodes some chains must
				// exclude the coordinator, so the wire is exercised.
				t.Errorf("no remote calls in a %d-node topology: %+v", cb.nodes, stats)
			}
			if stats.Queries == 0 {
				t.Errorf("coordinator counted no queries")
			}
		})
	}
}

// TestClusterIdentity: a query whose covering misses every shard must
// answer the identity result through the coordinator exactly as the
// local router does.
func TestClusterIdentity(t *testing.T) {
	opts := store.Options{Level: 12, ShardLevel: 2}
	control := buildDataset(t, 2000, 11, opts)
	tc := startCluster(t, 2, 1, 2000, 11, opts, nil)

	poly := geoblocks.RegularPolygon(geom.Pt(-50, -50), 3, 6)
	want, err := control.QueryOpts(poly, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	got, err := tc.coord().Query(context.Background(), "taxi", poly, geoblocks.QueryOptions{}, testReqs)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	assertSame(t, got, want, "identity query")
	if got.Count != 0 {
		t.Fatalf("identity query counted %d rows", got.Count)
	}
}

// TestClusterPureRouter: a coordinator that is not itself a data node
// (self = "") answers every shard remotely and still matches the
// control bit for bit.
func TestClusterPureRouter(t *testing.T) {
	const rows = 6000
	opts := store.Options{Level: 12, ShardLevel: 2}
	tc := startCluster(t, 2, 2, rows, 13, opts, nil)

	// The router holds its own identical build for planning and frame
	// decoding, but is absent from the assignment's node list.
	st := store.New()
	if err := st.Add(buildDataset(t, rows, 13, opts)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	router, err := cluster.New(st, tc.cfg, "")
	if err != nil {
		t.Fatalf("cluster.New(router): %v", err)
	}

	control := buildDataset(t, rows, 13, opts)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 10; i++ {
		poly := geoblocks.RegularPolygon(
			geom.Pt(rng.Float64()*100, rng.Float64()*100), 2+rng.Float64()*25, 4)
		want, err := control.QueryOpts(poly, geoblocks.QueryOptions{}, testReqs...)
		if err != nil {
			t.Fatalf("control %d: %v", i, err)
		}
		got, err := router.Query(context.Background(), "taxi", poly, geoblocks.QueryOptions{}, testReqs)
		if err != nil {
			t.Fatalf("router %d: %v", i, err)
		}
		assertSame(t, got, want, fmt.Sprintf("router poly %d", i))
	}
	stats := router.Stats()
	if stats.LocalParts != 0 {
		t.Errorf("pure router answered %d partials locally", stats.LocalParts)
	}
	if stats.RemoteCalls == 0 {
		t.Errorf("pure router made no remote calls")
	}
}

// TestClusterReadYourWrites: rows ingested on the replicas are visible
// through the coordinator immediately — the peer partial path includes
// the shard ingest delta exactly like local queries.
func TestClusterReadYourWrites(t *testing.T) {
	const rows = 4000
	opts := store.Options{Level: 12, ShardLevel: 2}
	control := buildDataset(t, rows, 17, opts)
	tc := startCluster(t, 2, 1, rows, 17, opts, nil)

	pts, cols := testRows(500, 4242)
	for _, n := range tc.nodes {
		if _, err := n.ds.Ingest(pts, cols); err != nil {
			t.Fatalf("ingest on %s: %v", n.name, err)
		}
	}
	if _, err := control.Ingest(pts, cols); err != nil {
		t.Fatalf("ingest on control: %v", err)
	}

	r := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}
	want, err := control.QueryRectOpts(r, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	got, err := tc.coord().QueryRect(context.Background(), "taxi", r, geoblocks.QueryOptions{}, testReqs)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	assertSame(t, got, want, "read-your-writes")
	if got.Count != uint64(rows+500) {
		t.Fatalf("count = %d, want %d (ingested rows missing)", got.Count, rows+500)
	}
}

// TestClusterEpochMismatch: peers reject partials planned under a
// different assignment epoch, and the coordinator surfaces that as a
// typed unavailability instead of a silent partial answer.
func TestClusterEpochMismatch(t *testing.T) {
	opts := store.Options{Level: 12, ShardLevel: 2}
	tc := startCluster(t, 2, 1, 3000, 19, opts, func(c *cluster.Config) {
		c.Retries = -1 // epoch conflicts are fatal; no point retrying
	})

	// Bump only the coordinator's epoch: every remote chain now answers
	// 409 stale_assignment_epoch.
	bumped := *tc.cfg
	bumped.Epoch = 2
	if err := tc.nodes[0].co.Reload(&bumped); err != nil {
		t.Fatalf("reload coordinator: %v", err)
	}
	r := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}
	_, err := tc.coord().QueryRect(context.Background(), "taxi", r, geoblocks.QueryOptions{}, testReqs)
	var ue *cluster.UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("mismatched epoch query error = %v, want UnavailableError", err)
	}
	if len(ue.Shards) == 0 {
		t.Fatalf("UnavailableError names no shards")
	}

	// Rolling the peers forward to the same epoch heals the cluster.
	for _, n := range tc.nodes[1:] {
		if err := n.co.Reload(&bumped); err != nil {
			t.Fatalf("reload %s: %v", n.name, err)
		}
	}
	if _, err := tc.coord().QueryRect(context.Background(), "taxi", r, geoblocks.QueryOptions{}, testReqs); err != nil {
		t.Fatalf("query after rolling reload: %v", err)
	}
}

package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/cluster"
	"geoblocks/internal/geom"
	"geoblocks/internal/store"
)

// requestCells is the per-request cell cap the coordinator packs a
// replica chain's parts under.
const requestCells = 4096

// chainName spells a replica chain.
func chainName(chain []cluster.Node) string {
	names := make([]string, len(chain))
	for i, n := range chain {
		names[i] = n.Name
	}
	return strings.Join(names, ",")
}

// remoteCells returns, per replica chain that excludes self, the parts
// and covering cells the rects route to that chain's shards.
func remoteCells(a *cluster.Assignment, d *store.Dataset, self string, rects []geom.Rect) (parts, cells map[string]int) {
	parts, cells = make(map[string]int), make(map[string]int)
	for _, r := range rects {
		for _, sub := range d.ShardSubs(d.PlanCoverRect(r, 0).Cover) {
			chain := a.Owners(sub.Cell)
			if slices.ContainsFunc(chain, func(n cluster.Node) bool { return n.Name == self }) {
				continue
			}
			parts[chainName(chain)]++
			cells[chainName(chain)] += len(sub.Sub)
		}
	}
	return parts, cells
}

// TestClusterRequestsPerChain: when a call's remote parts fit under the
// cell cap, the coordinator sends exactly one partial request per
// replica chain that excludes it — for a single query and for a join
// whose regions put several parts on one chain.
func TestClusterRequestsPerChain(t *testing.T) {
	const rows = 10_000
	opts := store.Options{Level: 12, ShardLevel: 2}
	control := buildDataset(t, rows, 7, opts)
	tc := startCluster(t, 3, 2, rows, 7, opts, nil)
	co := tc.coord()
	ctx := context.Background()

	rng := rand.New(rand.NewSource(41))
	rects := make([]geom.Rect, 12)
	for i := range rects {
		rects[i] = geom.RectFromCenter(geom.Pt(5+rng.Float64()*90, 5+rng.Float64()*90), 2+rng.Float64()*6, 2+rng.Float64()*6)
	}
	for _, call := range []struct {
		name  string
		rects []geom.Rect
	}{
		{"query", []geom.Rect{fullRect}},
		{"join", rects},
	} {
		parts, cells := remoteCells(co.Assignment(), control, tc.nodes[0].name, call.rects)
		total := 0
		for chain, n := range cells {
			if n > requestCells {
				t.Fatalf("%s: chain %s carries %d cells, above the %d-cell cap", call.name, chain, n, requestCells)
			}
			total += parts[chain]
		}
		if len(parts) == 0 || (call.name == "join" && total <= len(parts)) {
			t.Fatalf("%s: %d parts on %d remote chains; the case needs a chain with several parts", call.name, total, len(parts))
		}

		before := co.Stats().RemoteCalls
		if call.name == "query" {
			want, err := control.QueryRectOpts(fullRect, geoblocks.QueryOptions{}, testReqs...)
			if err != nil {
				t.Fatalf("control: %v", err)
			}
			got, err := co.QueryRect(ctx, "taxi", fullRect, geoblocks.QueryOptions{}, testReqs)
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			assertSame(t, got, want, "full-domain query")
		} else {
			wants, _, err := control.JoinRects(call.rects, geoblocks.QueryOptions{}, testReqs...)
			if err != nil {
				t.Fatalf("control: %v", err)
			}
			gots, _, err := co.JoinRects(ctx, "taxi", call.rects, geoblocks.QueryOptions{}, testReqs)
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			for i := range gots {
				assertSame(t, gots[i], wants[i], fmt.Sprintf("join rect %d", i))
			}
		}
		if got := co.Stats().RemoteCalls - before; got != uint64(len(parts)) {
			t.Errorf("%s: %d partial requests for %d remote chains (%d parts)", call.name, got, len(parts), total)
		}
	}
}

// recorder forwards partial requests to one peer and records each
// request's entries and covering cells.
type recorder struct {
	backend string
	srv     *httptest.Server

	mu    sync.Mutex
	sizes [][2]int // entries, cells
}

func newRecorder(t *testing.T, backend string) *recorder {
	t.Helper()
	r := &recorder{backend: backend}
	r.srv = httptest.NewServer(http.HandlerFunc(r.serve))
	t.Cleanup(r.srv.Close)
	return r
}

func (r *recorder) serve(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	var pr cluster.PartialRequest
	if err := json.Unmarshal(body, &pr); err == nil {
		cells := 0
		for _, sh := range pr.Shards {
			cells += len(sh.Cover)
		}
		r.mu.Lock()
		r.sizes = append(r.sizes, [2]int{len(pr.Shards), cells})
		r.mu.Unlock()
	}
	resp, err := http.Post("http://"+r.backend+req.URL.Path, "application/json", bytes.NewReader(body))
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// TestClusterRequestCellCap: a join whose remote parts exceed the cell
// cap is split into several requests per chain, none above the cap
// unless it holds a single part, and packed greedily: any two
// consecutive requests of a chain together exceed the cap.
func TestClusterRequestCellCap(t *testing.T) {
	const rows = 6000
	opts := store.Options{Level: 12, ShardLevel: 2}
	tc := startCluster(t, 2, 1, rows, 3, opts, nil)

	// A pure router whose assignment reaches each data node through a
	// recorder; node names, and so placement, are unchanged.
	cfg := *tc.cfg
	cfg.Nodes = slices.Clone(tc.cfg.Nodes)
	recs := make([]*recorder, len(cfg.Nodes))
	for i, n := range tc.nodes {
		recs[i] = newRecorder(t, n.addr)
		cfg.Nodes[i].Addr = recs[i].srv.Listener.Addr().String()
	}
	st := store.New()
	if err := st.Add(buildDataset(t, rows, 3, opts)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	router, err := cluster.New(st, &cfg, "")
	if err != nil {
		t.Fatalf("cluster.New(router): %v", err)
	}

	rng := rand.New(rand.NewSource(43))
	polys := make([]*geom.Polygon, 64)
	for i := range polys {
		polys[i] = geoblocks.RegularPolygon(geom.Pt(10+rng.Float64()*80, 10+rng.Float64()*80), 4+rng.Float64()*8, 5+rng.Intn(6))
	}
	control := buildDataset(t, rows, 3, opts)
	wants, _, err := control.Join(polys, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	gots, _, err := router.Join(context.Background(), "taxi", polys, geoblocks.QueryOptions{}, testReqs)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	for i := range gots {
		assertSame(t, gots[i], wants[i], fmt.Sprintf("join poly %d", i))
	}

	for i, rec := range recs {
		rec.mu.Lock()
		sizes := rec.sizes
		rec.mu.Unlock()
		cells := 0
		for _, sz := range sizes {
			if sz[1] > requestCells && sz[0] > 1 {
				t.Errorf("node %d: a request of %d parts carries %d cells, above the %d-cell cap", i, sz[0], sz[1], requestCells)
			}
			cells += sz[1]
		}
		if cells <= 2*requestCells {
			t.Fatalf("node %d: %d remote cells; the case needs more than twice the cap", i, cells)
		}
		if n := len(sizes); n < 2 || n > 2*cells/requestCells+1 {
			t.Errorf("node %d: %d requests for %d cells, want 2..%d", i, n, cells, 2*cells/requestCells+1)
		}
	}
}

// TestFaultJoinUnavailableNamesChain: with one single-replica chain
// dropped, a join over many polygons is refused with one
// UnavailableError naming every shard that chain serves, gathered
// across all the polygons, each shard once.
func TestFaultJoinUnavailableNamesChain(t *testing.T) {
	fc := startFaultCluster(t, 3000, func(c *cluster.Config) {
		c.Retries = -1
		c.Replication = 1
	})
	fc.proxies[0].arm("drop", -1, 0)

	// 7x7 tiles over the domain: each touches a few shards, together
	// they touch all of them.
	var polys []*geom.Polygon
	for iy := 0; iy < 7; iy++ {
		for ix := 0; ix < 7; ix++ {
			r := geom.Rect{Min: geom.Pt(float64(ix)*100/7, float64(iy)*100/7), Max: geom.Pt(float64(ix+1)*100/7, float64(iy+1)*100/7)}
			polys = append(polys, r.Polygon())
		}
	}
	if n := len(fc.control.ShardSubs(fc.control.PlanCoverRect(fullRect, 0).Cover)); n != len(fc.control.ShardCells()) {
		t.Fatalf("the domain touches %d of %d shards", n, len(fc.control.ShardCells()))
	}
	var want []cellid.ID
	for _, cell := range fc.control.ShardCells() {
		if chain := fc.co.Assignment().Owners(cell); chain[0].Name == "a" {
			want = append(want, cell)
		}
	}
	if len(want) < 2 {
		t.Fatalf("chain a serves %d shards; the case needs several", len(want))
	}

	_, _, err := fc.co.Join(context.Background(), "taxi", polys, geoblocks.QueryOptions{}, testReqs)
	var ue *cluster.UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("join error = %v, want UnavailableError", err)
	}
	if !slices.Equal(ue.Shards, want) {
		t.Errorf("UnavailableError names shards %v, want %v (every shard of chain a)", ue.Shards, want)
	}
}

// BenchmarkClusterJoin64 times one 64-polygon join through the
// coordinator of an in-process 3-node cluster (replication 2, 16
// shards, 10 000 rows), caches off, and reports the partial requests
// and local tasks each join costs.
func BenchmarkClusterJoin64(b *testing.B) {
	opts := store.Options{Level: 12, ShardLevel: 2, PyramidLevels: 3}
	tc := startCluster(b, 3, 2, 10_000, 7, opts, nil)
	co := tc.coord()
	rng := rand.New(rand.NewSource(9003))
	polys := make([]*geom.Polygon, 64)
	for i := range polys {
		c := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		if i%3 == 0 {
			c = geom.Pt(25+rng.NormFloat64()*8, 70+rng.NormFloat64()*8)
		}
		polys[i] = geoblocks.RegularPolygon(c, 0.5+rng.Float64()*18, 3+rng.Intn(8))
	}
	qo := geoblocks.QueryOptions{DisableCache: true}
	ctx := context.Background()
	before := co.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := co.Join(ctx, "taxi", polys, qo, testReqs); err != nil {
			b.Fatalf("join: %v", err)
		}
	}
	b.StopTimer()
	after := co.Stats()
	b.ReportMetric(float64(after.RemoteCalls-before.RemoteCalls)/float64(b.N), "requests/op")
	b.ReportMetric(float64(after.LocalParts-before.LocalParts)/float64(b.N), "local/op")
}

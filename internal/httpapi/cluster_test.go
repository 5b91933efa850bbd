package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"geoblocks"
	"geoblocks/internal/cluster"
	"geoblocks/internal/geom"
	"geoblocks/internal/store"
)

// clusterTestServer wires the test store into a cluster-enabled handler
// (epoch 7) so /internal/v1/partial is routable.
func clusterTestServer(t *testing.T) (*httptest.Server, *store.Dataset) {
	t.Helper()
	st := testStore(t)
	cfg := &cluster.Config{Epoch: 7, Nodes: []cluster.Node{{Name: "self", Addr: "127.0.0.1:1"}}}
	co, err := cluster.New(st, cfg, "self")
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	ts := httptest.NewServer(NewHandler(st, Config{Cluster: co}))
	t.Cleanup(ts.Close)
	d, _ := st.Get("taxi")
	return ts, d
}

// partialErrBody is the typed error envelope peers answer with.
type partialErrBody struct {
	Error  string   `json:"error"`
	Code   string   `json:"code"`
	Shards []string `json:"shards"`
}

// TestPartialEndpointRoundTrip: a well-formed partial request answers
// one frame per shard, and merging the decoded frames in request order
// reproduces the local query exactly.
func TestPartialEndpointRoundTrip(t *testing.T) {
	ts, d := clusterTestServer(t)
	rect := geom.Rect{Min: geom.Pt(-74.05, 40.60), Max: geom.Pt(-73.85, 40.85)}
	reqs := []geoblocks.AggRequest{geoblocks.Count(), geoblocks.Sum("fare_amount"), geoblocks.Min("fare_amount")}

	plan := d.PlanCoverRect(rect, 0)
	subs := d.ShardSubs(plan.Cover)
	if len(subs) < 2 {
		t.Fatalf("rect split into %d shards, want >= 2", len(subs))
	}
	preq := cluster.PartialRequest{
		Dataset:      "taxi",
		CodecVersion: cluster.CodecVersion,
		Epoch:        7,
		Level:        plan.Level,
		Aggs:         cluster.AggsFromRequests(reqs),
	}
	for _, sub := range subs {
		preq.Shards = append(preq.Shards, cluster.ShardReq{
			Cell:  cluster.CellToken(sub.Cell),
			Cover: cluster.EncodeCells(sub.Sub),
		})
	}
	body, _ := json.Marshal(preq)
	resp, data := postJSON(t, ts, "/internal/v1/partial", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var pr cluster.PartialResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if pr.Dataset != "taxi" || pr.Epoch != 7 || pr.Level != plan.Level {
		t.Fatalf("envelope = %+v, want dataset taxi epoch 7 level %d", pr, plan.Level)
	}
	if len(pr.Shards) != len(subs) {
		t.Fatalf("answered %d shards, want %d", len(pr.Shards), len(subs))
	}

	var total *geoblocks.Accumulator
	for i, sp := range pr.Shards {
		if sp.Cell != preq.Shards[i].Cell {
			t.Fatalf("shard %d echoed %s, want %s", i, sp.Cell, preq.Shards[i].Cell)
		}
		acc, err := d.DecodePartial(sp.Partial, reqs)
		if err != nil {
			t.Fatalf("decoding shard %d frame: %v", i, err)
		}
		if total == nil {
			total = acc
		} else if err := total.MergeFrom(acc); err != nil {
			t.Fatalf("merging shard %d: %v", i, err)
		}
	}
	want, err := d.QueryRectOpts(rect, geoblocks.QueryOptions{}, reqs...)
	if err != nil {
		t.Fatalf("control query: %v", err)
	}
	got := total.Result()
	if got.Count != want.Count {
		t.Errorf("merged count = %d, want %d", got.Count, want.Count)
	}
	for i, v := range got.Values {
		if v != want.Values[i] {
			t.Errorf("merged value[%d] = %v, want %v", i, v, want.Values[i])
		}
	}
}

// TestPartialEndpointRepeatedShard: a request may name one shard once
// per region routed there. Each entry answers its own cover, in request
// order, bit for bit as ShardPartial of that cover alone — also when
// the entries are not in shard order.
func TestPartialEndpointRepeatedShard(t *testing.T) {
	ts, d := clusterTestServer(t)
	rect := geom.Rect{Min: geom.Pt(-74.05, 40.60), Max: geom.Pt(-73.85, 40.85)}
	reqs := []geoblocks.AggRequest{geoblocks.Count(), geoblocks.Sum("fare_amount"), geoblocks.Min("fare_amount")}
	plan := d.PlanCoverRect(rect, 0)
	subs := d.ShardSubs(plan.Cover)
	if len(subs) < 2 || len(subs[1].Sub) < 2 {
		t.Fatalf("rect split into %d shards; the case needs two, the second with several cells", len(subs))
	}
	// The second shard twice, with its full cover and with half of it,
	// around the first shard.
	entries := []store.ShardSub{subs[1], subs[0], {Cell: subs[1].Cell, Sub: subs[1].Sub[:len(subs[1].Sub)/2]}}
	preq := cluster.PartialRequest{
		Dataset:      "taxi",
		CodecVersion: cluster.CodecVersion,
		Epoch:        7,
		Level:        plan.Level,
		Aggs:         cluster.AggsFromRequests(reqs),
		NoCache:      true,
	}
	for _, e := range entries {
		preq.Shards = append(preq.Shards, cluster.ShardReq{Cell: cluster.CellToken(e.Cell), Cover: cluster.EncodeCells(e.Sub)})
	}
	resp, data := postJSON(t, ts, "/internal/v1/partial", marshal(t, preq))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var pr cluster.PartialResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if len(pr.Shards) != len(entries) {
		t.Fatalf("answered %d partials for %d entries", len(pr.Shards), len(entries))
	}
	for i, e := range entries {
		if pr.Shards[i].Cell != preq.Shards[i].Cell {
			t.Errorf("entry %d echoed %s, want %s", i, pr.Shards[i].Cell, preq.Shards[i].Cell)
		}
		acc, err := d.ShardPartial(e.Cell, e.Sub, plan.Level, geoblocks.QueryOptions{DisableCache: true}, reqs)
		if err != nil {
			t.Fatalf("ShardPartial %d: %v", i, err)
		}
		if want := acc.EncodePartial(); !bytes.Equal(pr.Shards[i].Partial, want) {
			t.Errorf("entry %d: partial differs from ShardPartial of its cover", i)
		}
	}
	if bytes.Equal(pr.Shards[0].Partial, pr.Shards[2].Partial) {
		t.Errorf("the repeated shard's two covers answered the same partial")
	}
}

// TestPartialEndpointMalformed is the typed-rejection table: every way
// a partial request can be wrong must map onto a distinct,
// machine-readable 4xx.
func TestPartialEndpointMalformed(t *testing.T) {
	ts, d := clusterTestServer(t)
	shard := d.ShardCells()[0]
	shardTok := cluster.CellToken(shard)
	coverTok := cluster.CellToken(shard.ChildBeginAt(12))
	valid := func() cluster.PartialRequest {
		return cluster.PartialRequest{
			Dataset:      "taxi",
			CodecVersion: cluster.CodecVersion,
			Epoch:        7,
			Level:        12,
			Aggs:         []cluster.AggJSON{{Func: "count"}},
			Shards:       []cluster.ShardReq{{Cell: shardTok, Cover: []string{coverTok}}},
		}
	}
	cases := []struct {
		name       string
		body       func() string
		wantStatus int
		wantCode   string
		wantShards []string
	}{
		{
			name:       "truncated json",
			body:       func() string { return `{"dataset":"taxi"` },
			wantStatus: http.StatusBadRequest,
			wantCode:   cluster.CodeBadRequest,
		},
		{
			name: "codec version mismatch",
			body: func() string {
				r := valid()
				r.CodecVersion = 99
				return marshal(t, r)
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   cluster.CodeCodecMismatch,
		},
		{
			name: "missing dataset",
			body: func() string {
				r := valid()
				r.Dataset = ""
				return marshal(t, r)
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   cluster.CodeBadRequest,
		},
		{
			name: "unknown dataset",
			body: func() string {
				r := valid()
				r.Dataset = "ghost"
				return marshal(t, r)
			},
			wantStatus: http.StatusNotFound,
			wantCode:   cluster.CodeUnknownDataset,
		},
		{
			name: "stale assignment epoch",
			body: func() string {
				r := valid()
				r.Epoch = 6
				return marshal(t, r)
			},
			wantStatus: http.StatusConflict,
			wantCode:   cluster.CodeStaleEpoch,
		},
		{
			name: "missing aggs",
			body: func() string {
				r := valid()
				r.Aggs = nil
				return marshal(t, r)
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   cluster.CodeBadRequest,
		},
		{
			name: "unknown aggregate",
			body: func() string {
				r := valid()
				r.Aggs = []cluster.AggJSON{{Func: "median", Col: "fare_amount"}}
				return marshal(t, r)
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   cluster.CodeBadRequest,
		},
		{
			name: "unservable level",
			body: func() string {
				r := valid()
				r.Level = 7 // below the materialised pyramid (8..12)
				return marshal(t, r)
			},
			wantStatus: http.StatusUnprocessableEntity,
			wantCode:   cluster.CodeBadLevel,
		},
		{
			name: "missing shards",
			body: func() string {
				r := valid()
				r.Shards = nil
				return marshal(t, r)
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   cluster.CodeBadRequest,
		},
		{
			name: "bad shard token",
			body: func() string {
				r := valid()
				r.Shards[0].Cell = "zz"
				return marshal(t, r)
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   cluster.CodeBadRequest,
		},
		{
			name: "unknown shard",
			body: func() string {
				r := valid()
				// A valid cell this dataset has no shard for (too fine to
				// be a shard prefix).
				r.Shards[0].Cell = cluster.CellToken(shard.ChildBeginAt(5))
				return marshal(t, r)
			},
			wantStatus: http.StatusUnprocessableEntity,
			wantCode:   cluster.CodeUnknownShard,
			wantShards: []string{cluster.CellToken(shard.ChildBeginAt(5))},
		},
		{
			name: "non-ascending cover",
			body: func() string {
				r := valid()
				a := shard.ChildBeginAt(12)
				b := a.Next()
				r.Shards[0].Cover = []string{cluster.CellToken(b), cluster.CellToken(a)}
				return marshal(t, r)
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   cluster.CodeBadRequest,
		},
		{
			name: "cover finer than level",
			body: func() string {
				r := valid()
				r.Shards[0].Cover = []string{cluster.CellToken(shard.ChildBeginAt(13))}
				return marshal(t, r)
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   cluster.CodeBadRequest,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts, "/internal/v1/partial", tc.body())
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, data)
			}
			var eb partialErrBody
			if err := json.Unmarshal(data, &eb); err != nil {
				t.Fatalf("error body not JSON: %v (%s)", err, data)
			}
			if eb.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", eb.Code, tc.wantCode)
			}
			if eb.Error == "" {
				t.Errorf("empty error message")
			}
			if tc.wantShards != nil {
				if fmt.Sprint(eb.Shards) != fmt.Sprint(tc.wantShards) {
					t.Errorf("shards = %v, want %v", eb.Shards, tc.wantShards)
				}
			}
		})
	}
}

// TestPartialEndpointAbsentWithoutCluster: a single-node daemon does
// not expose the internal endpoint at all.
func TestPartialEndpointAbsentWithoutCluster(t *testing.T) {
	ts := httptest.NewServer(NewHandler(testStore(t), Config{}))
	defer ts.Close()
	resp, _ := postJSON(t, ts, "/internal/v1/partial", `{}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

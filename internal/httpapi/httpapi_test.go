package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geoblocks/internal/store"
)

// testStore builds a small sharded store for the handler tests.
func testStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	d, err := BuildSynthetic("taxi", "taxi", 20_000, 1, store.Options{
		Level:          12,
		ShardLevel:     2,
		CacheThreshold: 0.1,
		PyramidLevels:  4,
	})
	if err != nil {
		t.Fatalf("BuildSynthetic: %v", err)
	}
	if err := st.Add(d); err != nil {
		t.Fatalf("Add: %v", err)
	}
	return st
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func getJSON(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// taxiRect is a rect query body over the middle of the NYC bound.
const taxiRect = `{"dataset":"taxi","rect":[-74.05,40.60,-73.85,40.85],"aggs":[{"func":"count"},{"func":"sum","col":"fare_amount"}]}`

func TestQueryEndpoint(t *testing.T) {
	_, h := newServer(testStore(t), Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	t.Run("rect", func(t *testing.T) {
		resp, body := postJSON(t, ts, "/v1/query", taxiRect)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if qr.Result == nil || qr.Result.Count == 0 {
			t.Fatalf("rect query found nothing: %s", body)
		}
		if len(qr.Result.Values) != 2 {
			t.Fatalf("want 2 values, got %s", body)
		}
	})

	t.Run("polygon", func(t *testing.T) {
		body := `{"dataset":"taxi","polygon":[[-74.05,40.60],[-73.85,40.60],[-73.85,40.85],[-74.05,40.85]],"aggs":[{"func":"count"}]}`
		resp, data := postJSON(t, ts, "/v1/query", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var qr queryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if qr.Result == nil || qr.Result.Count == 0 {
			t.Fatalf("polygon query found nothing: %s", data)
		}
	})

	t.Run("batch", func(t *testing.T) {
		body := `{"dataset":"taxi","polygons":[
			[[-74.05,40.60],[-73.85,40.60],[-73.85,40.85],[-74.05,40.85]],
			[[-80,40],[-79,40],[-79,41],[-80,41]]
		],"aggs":[{"func":"count"},{"func":"min","col":"fare_amount"}]}`
		resp, data := postJSON(t, ts, "/v1/query", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var qr queryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if len(qr.Results) != 2 {
			t.Fatalf("want 2 batch results, got %s", data)
		}
		if qr.Results[0].Count == 0 {
			t.Errorf("first polygon found nothing")
		}
		// The second polygon is outside the NYC bound: zero rows, and its
		// MIN must serialise as null (NaN is not valid JSON).
		if qr.Results[1].Count != 0 {
			t.Errorf("out-of-domain polygon count = %d", qr.Results[1].Count)
		}
		if !strings.Contains(string(data), "null") {
			t.Errorf("empty MIN not serialised as null: %s", data)
		}
	})

	// max_error routes through the planner: the answer reports a coarser
	// level with a positive guaranteed bound and combines fewer cells.
	t.Run("max_error", func(t *testing.T) {
		exactResp, exactBody := postJSON(t, ts, "/v1/query", taxiRect)
		if exactResp.StatusCode != http.StatusOK {
			t.Fatalf("exact status %d", exactResp.StatusCode)
		}
		approx := `{"dataset":"taxi","rect":[-74.05,40.60,-73.85,40.85],"max_error":0.1,"aggs":[{"func":"count"},{"func":"sum","col":"fare_amount"}]}`
		resp, body := postJSON(t, ts, "/v1/query", approx)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var eq, aq queryResponse
		if err := json.Unmarshal(exactBody, &eq); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &aq); err != nil {
			t.Fatal(err)
		}
		if eq.Result.Level != 12 {
			t.Errorf("exact level = %d, want 12", eq.Result.Level)
		}
		if aq.Result.Level >= 12 || aq.Result.ErrorBound <= 0 {
			t.Errorf("approximate answer not planned coarser: level %d bound %g", aq.Result.Level, aq.Result.ErrorBound)
		}
		if aq.Result.CellsVisited > eq.Result.CellsVisited {
			t.Errorf("approximate query combined more cells (%d) than exact (%d)", aq.Result.CellsVisited, eq.Result.CellsVisited)
		}
		if aq.Result.Count < eq.Result.Count {
			t.Errorf("coarser covering lost tuples: %d < %d", aq.Result.Count, eq.Result.Count)
		}
	})

	// batch result equals the one-at-a-time polygon answer.
	t.Run("batch matches single", func(t *testing.T) {
		single := `{"dataset":"taxi","polygon":[[-74.05,40.60],[-73.85,40.60],[-73.85,40.85],[-74.05,40.85]],"aggs":[{"func":"count"}]}`
		batch := `{"dataset":"taxi","polygons":[[[-74.05,40.60],[-73.85,40.60],[-73.85,40.85],[-74.05,40.85]]],"aggs":[{"func":"count"}]}`
		_, sData := postJSON(t, ts, "/v1/query", single)
		_, bData := postJSON(t, ts, "/v1/query", batch)
		var sr, br queryResponse
		if err := json.Unmarshal(sData, &sr); err != nil {
			t.Fatalf("unmarshal single: %v", err)
		}
		if err := json.Unmarshal(bData, &br); err != nil {
			t.Fatalf("unmarshal batch: %v", err)
		}
		if sr.Result.Count != br.Results[0].Count {
			t.Errorf("batch count %d != single count %d", br.Results[0].Count, sr.Result.Count)
		}
	})
}

// TestQueryErrors is the table-driven malformed-request suite.
func TestQueryErrors(t *testing.T) {
	_, h := newServer(testStore(t), Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed json", `{"dataset":`, http.StatusBadRequest},
		{"missing dataset", `{"rect":[0,0,1,1],"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"unknown dataset", `{"dataset":"nope","rect":[0,0,1,1],"aggs":[{"func":"count"}]}`, http.StatusNotFound},
		{"no region", `{"dataset":"taxi","aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"two regions", `{"dataset":"taxi","rect":[0,0,1,1],"polygon":[[0,0],[1,0],[0,1]],"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"missing aggs", `{"dataset":"taxi","rect":[0,0,1,1]}`, http.StatusBadRequest},
		{"unknown agg func", `{"dataset":"taxi","rect":[0,0,1,1],"aggs":[{"func":"median","col":"fare_amount"}]}`, http.StatusBadRequest},
		{"agg without col", `{"dataset":"taxi","rect":[0,0,1,1],"aggs":[{"func":"sum"}]}`, http.StatusBadRequest},
		{"unknown column", `{"dataset":"taxi","rect":[-74.05,40.60,-73.85,40.85],"aggs":[{"func":"sum","col":"nope"}]}`, http.StatusBadRequest},
		{"invalid rect", `{"dataset":"taxi","rect":[1,1,0,0],"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"degenerate polygon", `{"dataset":"taxi","polygon":[[0,0],[1,1]],"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"degenerate batch polygon", `{"dataset":"taxi","polygons":[[[0,0],[1,1]]],"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"empty batch", `{"dataset":"taxi","polygons":[],"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		// The batch form shares /v1/join's polygon cap.
		{"oversized batch", `{"dataset":"taxi","polygons":[` + strings.Repeat(`[[0,0],[1,0],[1,1]],`, maxJoinPolygons) +
			`[[0,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		// Planner options: max_error must be a finite non-negative JSON
		// number (JSON cannot carry NaN/Inf — a string stand-in is a type
		// error, caught by the decoder) and workers must stay within the
		// daemon's fan-out cap. Bad options are rejected on the batch form
		// exactly like on the single forms.
		{"negative max_error", `{"dataset":"taxi","rect":[0,0,1,1],"max_error":-0.5,"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"NaN max_error", `{"dataset":"taxi","rect":[0,0,1,1],"max_error":"NaN","aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"Inf max_error", `{"dataset":"taxi","rect":[0,0,1,1],"max_error":"+Inf","aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"negative workers", `{"dataset":"taxi","rect":[0,0,1,1],"workers":-1,"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"huge workers", `{"dataset":"taxi","rect":[0,0,1,1],"workers":100000,"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"negative max_error on batch", `{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1],[0,1]]],"max_error":-1,"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"bad workers on batch", `{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1],[0,1]]],"workers":-7,"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts, "/v1/query", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error body not JSON {error}: %s", body)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/query")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/query status = %d, want 405", resp.StatusCode)
		}
	})
}

// TestQueryWorkersField pins the workers knob of /v1/query: it is outside
// input, so it stays range-checked to [0, 256], and an accepted value
// changes nothing — neither the answer nor result-cache eligibility.
func TestQueryWorkersField(t *testing.T) {
	_, h := newServer(testStore(t), Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	create := `{"name":"rc","spec":"taxi","rows":5000,"level":11,"shard_level":1,"result_cache_bytes":1048576,"result_cache_min_hits":0}`
	if resp, body := postJSON(t, ts, "/v1/datasets", create); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}

	// query posts one rect query with the given extra fields and returns
	// the status and the raw result object.
	query := func(dataset, extra string) (int, string) {
		t.Helper()
		body := `{"dataset":"` + dataset + `","rect":[-74.05,40.60,-73.85,40.85]` + extra +
			`,"aggs":[{"func":"count"},{"func":"sum","col":"fare_amount"},{"func":"min","col":"fare_amount"}]}`
		resp, data := postJSON(t, ts, "/v1/query", body)
		var qr struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatalf("unmarshal: %v (%s)", err, data)
		}
		return resp.StatusCode, string(qr.Result)
	}

	status, want := query("taxi", "")
	if status != http.StatusOK || want == "" {
		t.Fatalf("baseline query status %d, result %q", status, want)
	}
	for _, tc := range []struct {
		name   string
		extra  string
		status int
	}{
		{"negative", `,"workers":-1`, http.StatusBadRequest},
		{"above cap", `,"workers":257`, http.StatusBadRequest},
		{"zero", `,"workers":0`, http.StatusOK},
		{"four", `,"workers":4`, http.StatusOK},
		{"cap", `,"workers":256`, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, got := query("taxi", tc.extra)
			if status != tc.status {
				t.Fatalf("status = %d, want %d", status, tc.status)
			}
			if status == http.StatusOK && got != want {
				t.Fatalf("result %s differs from the same query without workers: %s", got, want)
			}
		})
	}

	// With a result cache, a repeated workers request is a miss then a hit.
	for i := 0; i < 2; i++ {
		if status, _ := query("rc", `,"workers":4`); status != http.StatusOK {
			t.Fatalf("cached query %d status %d", i, status)
		}
	}
	_, body := getJSON(t, ts, "/v1/stats?dataset=rc")
	var st store.DatasetStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal stats: %v", err)
	}
	if rc := st.ResultCache; rc == nil || rc.Hits != 1 || rc.Misses != 1 {
		t.Fatalf("workers request bypassed the result cache: %s", body)
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	_, h := newServer(testStore(t), Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, body := getJSON(t, ts, "/v1/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	var dl datasetsResponse
	if err := json.Unmarshal(body, &dl); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(dl.Datasets) != 1 || dl.Datasets[0].Name != "taxi" {
		t.Fatalf("list = %s", body)
	}
	if dl.Datasets[0].NumShards < 2 {
		t.Errorf("taxi not sharded: %s", body)
	}

	// Create a second dataset with its own cache configuration, query it,
	// then drop it.
	create := `{"name":"tweets-small","spec":"tweets","rows":5000,"level":10,"shard_level":1,"cache_threshold":0.25}`
	resp, body = postJSON(t, ts, "/v1/datasets", create)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	var st store.DatasetStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal create: %v", err)
	}
	if !st.CacheEnabled || st.ShardLevel != 1 {
		t.Fatalf("create stats = %s", body)
	}

	// Error paths for creation.
	for name, tc := range map[string]struct {
		body   string
		status int
	}{
		"duplicate":    {create, http.StatusConflict},
		"unknown spec": {`{"name":"x","spec":"mars","rows":10}`, http.StatusBadRequest},
		"zero rows":    {`{"name":"x","spec":"taxi","rows":0}`, http.StatusBadRequest},
		"missing name": {`{"spec":"taxi","rows":10}`, http.StatusBadRequest},
		"bad options":  {`{"name":"x","spec":"taxi","rows":10,"level":5,"shard_level":6}`, http.StatusBadRequest},
		// Result-cache knobs: a negative byte budget or admission floor is
		// a build error; a NaN or fractional budget is not an integer byte
		// count at all, so the decoder rejects the body (JSON numbers
		// cannot carry NaN — a string stand-in is a type error).
		"negative result cache bytes":    {`{"name":"x","spec":"taxi","rows":10,"result_cache_bytes":-1}`, http.StatusBadRequest},
		"NaN result cache bytes":         {`{"name":"x","spec":"taxi","rows":10,"result_cache_bytes":"NaN"}`, http.StatusBadRequest},
		"fractional result cache bytes":  {`{"name":"x","spec":"taxi","rows":10,"result_cache_bytes":1048576.5}`, http.StatusBadRequest},
		"negative result cache min hits": {`{"name":"x","spec":"taxi","rows":10,"result_cache_bytes":1048576,"result_cache_min_hits":-2}`, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, ts, "/v1/datasets", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("create %s: status %d, want %d (%s)", name, resp.StatusCode, tc.status, body)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/tweets-small", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("drop status %d", dresp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/tweets-small", nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("second drop status %d, want 404", dresp.StatusCode)
	}
}

func TestStatsAndMetricsEndpoints(t *testing.T) {
	_, h := newServer(testStore(t), Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Drive a few queries so the counters move.
	for i := 0; i < 3; i++ {
		postJSON(t, ts, "/v1/query", taxiRect)
	}

	resp, body := getJSON(t, ts, "/v1/stats?dataset=taxi")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st store.DatasetStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal stats: %v", err)
	}
	if st.Queries != 3 {
		t.Errorf("stats queries = %d, want 3", st.Queries)
	}
	if len(st.Shards) != st.NumShards || st.NumShards == 0 {
		t.Errorf("per-shard stats missing: %s", body)
	}

	resp, _ = getJSON(t, ts, "/v1/stats?dataset=nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown stats dataset status %d, want 404", resp.StatusCode)
	}

	resp, body = getJSON(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`geoblocks_dataset_queries_total{dataset="taxi"} 3`,
		`geoblocks_dataset_tuples{dataset="taxi"}`,
		`geoblocks_dataset_shards{dataset="taxi"}`,
		`geoblocks_cache_probes_total{dataset="taxi"}`,
		`geoblocksd_requests_total{endpoint="query"} 3`,
		"geoblocksd_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestResultCacheEndpoints drives the result cache through the HTTP
// surface: create with a byte budget, hit it with a repeated query, then
// read the effectiveness back through /v1/stats and /metrics. Every
// geoblocks_resultcache_* series must be present for every dataset —
// zeros for datasets without a result cache.
func TestResultCacheEndpoints(t *testing.T) {
	_, h := newServer(testStore(t), Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	create := `{"name":"rc","spec":"taxi","rows":5000,"level":11,"shard_level":1,"result_cache_bytes":1048576,"result_cache_min_hits":0}`
	resp, body := postJSON(t, ts, "/v1/datasets", create)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	var created store.DatasetStats
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("unmarshal create: %v", err)
	}
	if created.ResultCache == nil || created.ResultCache.MaxBytes != 1048576 {
		t.Fatalf("created stats carry no result cache: %s", body)
	}

	// The same footprint twice: a miss that admits (min_hits 0), then a hit.
	rcRect := `{"dataset":"rc","rect":[-74.05,40.60,-73.85,40.85],"aggs":[{"func":"count"},{"func":"sum","col":"fare_amount"}]}`
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts, "/v1/query", rcRect); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d status %d: %s", i, resp.StatusCode, body)
		}
	}

	resp, body = getJSON(t, ts, "/v1/stats?dataset=rc")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st store.DatasetStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal stats: %v", err)
	}
	rc := st.ResultCache
	if rc == nil || rc.Hits != 1 || rc.Misses != 1 || rc.Entries != 1 {
		t.Fatalf("result cache counters off after miss+hit: %s", body)
	}
	if len(st.HotFootprints) != 1 || st.HotFootprints[0].Hits != 1 {
		t.Fatalf("full stats missing the hot footprint: %s", body)
	}
	if !strings.Contains(string(body), `"hot_footprints"`) {
		t.Fatalf("hot_footprints not serialised: %s", body)
	}

	resp, body = getJSON(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		// The cache-carrying dataset reports its real counters…
		`geoblocks_resultcache_hits_total{dataset="rc"} 1`,
		`geoblocks_resultcache_misses_total{dataset="rc"} 1`,
		`geoblocks_resultcache_evictions_total{dataset="rc"} 0`,
		// …and the cacheless dataset still emits every series, as zeros.
		`geoblocks_resultcache_hits_total{dataset="taxi"} 0`,
		`geoblocks_resultcache_misses_total{dataset="taxi"} 0`,
		`geoblocks_resultcache_evictions_total{dataset="taxi"} 0`,
		`geoblocks_resultcache_bytes{dataset="taxi"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
	// The occupied cache reports a positive byte size.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `geoblocks_resultcache_bytes{dataset="rc"}`) {
			if strings.HasSuffix(line, " 0") {
				t.Errorf("occupied result cache reports zero bytes: %s", line)
			}
		}
	}
}

// TestMmapServing drives the daemon-facing mmap surface end to end: with
// mmap serving enabled the snapshot endpoint writes format v3, a
// create-from-snapshot serves it in place (mapped dataset, bit-identical
// answers), and /v1/stats + /metrics expose the residency series.
func TestMmapServing(t *testing.T) {
	st := testStore(t)
	st.EnableMmap(0)
	dataDir := t.TempDir()
	_, h := newServer(st, Config{DataDir: dataDir, SnapshotV3: true})
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Snapshot the eager dataset: must be written in format v3.
	resp, body := postJSON(t, ts, "/v1/datasets/taxi/snapshot", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", resp.StatusCode, body)
	}
	var snap struct {
		FormatVersion int `json:"format_version"`
	}
	if err := json.Unmarshal(body, &snap); err != nil || snap.FormatVersion != 2 {
		t.Fatalf("snapshot format_version = %d (%s), want 2", snap.FormatVersion, body)
	}

	// Restore it under a new name: with mmap on the store, the dataset
	// must come up mapped.
	resp, body = postJSON(t, ts, "/v1/datasets", `{"name":"taxi-mapped","source":"snapshot","path":"`+dataDir+`/taxi"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create from snapshot status %d: %s", resp.StatusCode, body)
	}
	var created store.DatasetStats
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if !created.Mapped || created.MappedBytes <= 0 {
		t.Fatalf("restored dataset not mapped: %s", body)
	}

	// Mapped answers must agree with the eager dataset's.
	q := `{"dataset":"%s","rect":[-74.05,40.60,-73.85,40.85],"aggs":[{"func":"count"},{"func":"sum","col":"fare_amount"}]}`
	_, eagerBody := postJSON(t, ts, "/v1/query", fmt.Sprintf(q, "taxi"))
	_, mappedBody := postJSON(t, ts, "/v1/query", fmt.Sprintf(q, "taxi-mapped"))
	var eager, mapped queryResponse
	if err := json.Unmarshal(eagerBody, &eager); err != nil || eager.Result == nil {
		t.Fatalf("eager query: %s", eagerBody)
	}
	if err := json.Unmarshal(mappedBody, &mapped); err != nil || mapped.Result == nil {
		t.Fatalf("mapped query: %s", mappedBody)
	}
	if eager.Result.Count != mapped.Result.Count {
		t.Fatalf("mapped count %d, eager %d", mapped.Result.Count, eager.Result.Count)
	}
	if len(eager.Result.Values) != len(mapped.Result.Values) {
		t.Fatalf("value arity differs: %s vs %s", mappedBody, eagerBody)
	}
	for i := range eager.Result.Values {
		if eager.Result.Values[i] != mapped.Result.Values[i] {
			t.Fatalf("value[%d]: mapped %v, eager %v", i, mapped.Result.Values[i], eager.Result.Values[i])
		}
	}

	// Stats must carry the store-level residency block and per-dataset
	// mapped figures.
	resp, body = getJSON(t, ts, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats datasetsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Residency == nil || stats.Residency.MappedBytes <= 0 || stats.Residency.Faults == 0 {
		t.Fatalf("missing or empty residency stats: %s", body)
	}

	_, metrics := getJSON(t, ts, "/metrics")
	for _, series := range []string{
		"geoblocksd_residency_mapped_bytes",
		"geoblocksd_residency_resident_bytes",
		"geoblocksd_residency_shard_faults_total",
		"geoblocksd_residency_evictions_total",
		`geoblocks_dataset_mapped_bytes{dataset="taxi-mapped"}`,
		`geoblocks_dataset_resident_shards{dataset="taxi-mapped"}`,
	} {
		if !strings.Contains(string(metrics), series) {
			t.Fatalf("metrics missing %s:\n%s", series, metrics)
		}
	}
}

package httpapi

// HTTP-surface tests of the streaming write path: the success forms
// (JSON object with and without a column permutation, NDJSON, explicit
// compact), the malformed-ingest table — every rejection a typed 4xx
// with nothing partially applied — and the ingest/compaction metrics
// series.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// taxiCount returns a dataset's full-bound COUNT through the query
// endpoint — the observer for the nothing-partially-applied checks.
func taxiCount(t *testing.T, ts *httptest.Server, name string) uint64 {
	t.Helper()
	q := fmt.Sprintf(`{"dataset":%q,"rect":[-74.30,40.45,-73.65,41.00],"aggs":[{"func":"count"}]}`, name)
	resp, body := postJSON(t, ts, "/v1/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count query status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil || qr.Result == nil {
		t.Fatalf("count query: %v (%s)", err, body)
	}
	return qr.Result.Count
}

// postBody POSTs with an explicit content type.
func postBody(t *testing.T, ts *httptest.Server, path, contentType, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, contentType, strings.NewReader(body))
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

// Two in-bound taxi rows in schema order (fare_amount, trip_distance,
// tip_amount, tip_rate, passenger_count, pickup_hour, payment_type).
const taxiRow1 = `[-73.98, 40.75, 12.5, 3.1, 2.0, 0.16, 1, 14, 1]`
const taxiRow2 = `[-73.95, 40.70, 8.0, 1.2, 0.0, 0.0, 1, 9, 2]`

func TestIngestEndpoint(t *testing.T) {
	_, h := newServer(testStore(t), Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()
	base := taxiCount(t, ts, "taxi")

	t.Run("json schema order", func(t *testing.T) {
		resp, body := postJSON(t, ts, "/v1/datasets/taxi/rows",
			fmt.Sprintf(`{"rows":[%s,%s]}`, taxiRow1, taxiRow2))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var ir ingestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Rows != 2 || ir.Seq == 0 || ir.DeltaRows < 2 {
			t.Fatalf("unexpected ack: %s", body)
		}
		if got := taxiCount(t, ts, "taxi"); got != base+2 {
			t.Fatalf("count %d, want %d", got, base+2)
		}
	})

	t.Run("json column permutation", func(t *testing.T) {
		before := taxiCount(t, ts, "taxi")
		// Values reordered to match the named permutation.
		req := `{"columns":["pickup_hour","fare_amount","trip_distance","tip_amount","tip_rate","passenger_count","payment_type"],
			"rows":[[-73.97, 40.76, 14, 12.5, 3.1, 2.0, 0.16, 1, 1]]}`
		resp, body := postJSON(t, ts, "/v1/datasets/taxi/rows", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if got := taxiCount(t, ts, "taxi"); got != before+1 {
			t.Fatalf("count %d, want %d", got, before+1)
		}
		// The permuted row must land in the named columns: its pickup_hour
		// 14 contributes to SUM(pickup_hour) exactly.
		q := `{"dataset":"taxi","rect":[-73.971,40.759,-73.969,40.761],"aggs":[{"func":"sum","col":"pickup_hour"}]}`
		respQ, bodyQ := postJSON(t, ts, "/v1/query", q)
		if respQ.StatusCode != http.StatusOK {
			t.Fatalf("query status %d: %s", respQ.StatusCode, bodyQ)
		}
	})

	t.Run("ndjson", func(t *testing.T) {
		before := taxiCount(t, ts, "taxi")
		body := taxiRow1 + "\n\n" + taxiRow2 + "\n"
		resp, data := postBody(t, ts, "/v1/datasets/taxi/rows", "application/x-ndjson", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var ir ingestResponse
		if err := json.Unmarshal(data, &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Rows != 2 {
			t.Fatalf("ndjson ack rows = %d, want 2 (blank lines skipped): %s", ir.Rows, data)
		}
		if got := taxiCount(t, ts, "taxi"); got != before+2 {
			t.Fatalf("count %d, want %d", got, before+2)
		}
	})

	t.Run("compact", func(t *testing.T) {
		before := taxiCount(t, ts, "taxi")
		resp, body := postJSON(t, ts, "/v1/datasets/taxi/compact", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var cr struct {
			Dataset string `json:"dataset"`
			Rows    int    `json:"rows"`
		}
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Dataset != "taxi" || cr.Rows != 5 {
			t.Fatalf("compact folded %d rows, want the 5 ingested: %s", cr.Rows, body)
		}
		if got := taxiCount(t, ts, "taxi"); got != before {
			t.Fatalf("compaction changed the count: %d -> %d", before, got)
		}
		resp, _ = getJSON(t, ts, "/v1/stats?dataset=taxi")
		if resp.StatusCode != http.StatusOK {
			t.Fatal("stats after compact")
		}
	})

	t.Run("metrics", func(t *testing.T) {
		resp, body := getJSON(t, ts, "/metrics")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status %d", resp.StatusCode)
		}
		text := string(body)
		for _, want := range []string{
			`geoblocks_ingest_rows_total{dataset="taxi"} 5`,
			`geoblocks_ingest_batches_total{dataset="taxi"} 3`,
			`geoblocks_ingest_delta_rows{dataset="taxi"} 0`,
			`geoblocks_compactions_total{dataset="taxi"} 1`,
			`geoblocks_compacted_rows_total{dataset="taxi"} 5`,
			`geoblocksd_ingested_rows_total 5`,
			`geoblocksd_requests_total{endpoint="ingest"}`,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("metrics output missing %q", want)
			}
		}
	})
}

// ingestErrorCase is one row of the malformed-ingest table.
type ingestErrorCase struct {
	name        string
	path        string
	contentType string
	body        string
	want        int
}

// ingestErrorCases is the malformed-ingest table TestIngestErrors posts
// and FuzzIngestNDJSON is seeded from.
func ingestErrorCases() []ingestErrorCase {
	bigBatch := func() string {
		var b strings.Builder
		b.WriteString(`{"rows":[`)
		for i := 0; i <= maxIngestRows; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(taxiRow1)
		}
		b.WriteString(`]}`)
		return b.String()
	}
	return []ingestErrorCase{
		{"malformed json", "/v1/datasets/taxi/rows", "application/json", `{"rows": [[1,2`, http.StatusBadRequest},
		{"missing rows", "/v1/datasets/taxi/rows", "application/json", `{}`, http.StatusBadRequest},
		{"empty rows", "/v1/datasets/taxi/rows", "application/json", `{"rows":[]}`, http.StatusBadRequest},
		{"ragged row", "/v1/datasets/taxi/rows", "application/json",
			`{"rows":[[-73.98, 40.75, 12.5]]}`, http.StatusBadRequest},
		{"unknown column", "/v1/datasets/taxi/rows", "application/json",
			`{"columns":["fare_amount","trip_distance","tip_amount","tip_rate","passenger_count","pickup_hour","surge_fee"],"rows":[` + taxiRow1 + `]}`,
			http.StatusBadRequest},
		{"short column list", "/v1/datasets/taxi/rows", "application/json",
			`{"columns":["fare_amount"],"rows":[[-73.98, 40.75, 12.5]]}`, http.StatusBadRequest},
		{"duplicate column", "/v1/datasets/taxi/rows", "application/json",
			`{"columns":["fare_amount","fare_amount","tip_amount","tip_rate","passenger_count","pickup_hour","payment_type"],"rows":[` + taxiRow1 + `]}`,
			http.StatusBadRequest},
		{"nan literal", "/v1/datasets/taxi/rows", "application/json",
			`{"rows":[[-73.98, 40.75, NaN, 3.1, 2.0, 0.16, 1, 14, 1]]}`, http.StatusBadRequest},
		{"inf literal", "/v1/datasets/taxi/rows", "application/json",
			`{"rows":[[-73.98, 40.75, 1e999, 3.1, 2.0, 0.16, 1, 14, 1]]}`, http.StatusBadRequest},
		{"out of bounds", "/v1/datasets/taxi/rows", "application/json",
			fmt.Sprintf(`{"rows":[%s,[0.0, 0.0, 1, 1, 1, 1, 1, 1, 1]]}`, taxiRow1), http.StatusUnprocessableEntity},
		{"oversized batch", "/v1/datasets/taxi/rows", "application/json", bigBatch(), http.StatusRequestEntityTooLarge},
		{"unknown dataset", "/v1/datasets/nope/rows", "application/json",
			`{"rows":[` + taxiRow1 + `]}`, http.StatusNotFound},
		{"truncated ndjson", "/v1/datasets/taxi/rows", "application/x-ndjson",
			taxiRow1 + "\n[-73.98, 40.75, 12.5", http.StatusBadRequest},
		{"ragged ndjson", "/v1/datasets/taxi/rows", "application/x-ndjson",
			taxiRow1 + "\n[-73.98, 40.75]\n", http.StatusBadRequest},
		{"ndjson non-array line", "/v1/datasets/taxi/rows", "application/x-ndjson",
			`{"rows": "not an array"}`, http.StatusBadRequest},
		{"empty ndjson", "/v1/datasets/taxi/rows", "application/x-ndjson", "\n\n", http.StatusBadRequest},
		{"compact unknown dataset", "/v1/datasets/nope/compact", "application/json", "", http.StatusNotFound},
	}
}

// TestIngestErrors is the malformed-ingest table: every rejection must
// carry its typed status and leave the dataset untouched — the count
// observed through the query endpoint never moves.
func TestIngestErrors(t *testing.T) {
	st := testStore(t)
	_, h := newServer(st, Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()
	base := taxiCount(t, ts, "taxi")

	for _, tc := range ingestErrorCases() {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postBody(t, ts, tc.path, tc.contentType, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("rejection carries no error payload: %s", body)
			}
			if got := taxiCount(t, ts, "taxi"); got != base {
				t.Fatalf("rejected ingest applied rows: count %d, want %d", got, base)
			}
		})
	}

	t.Run("backpressure", func(t *testing.T) {
		d, ok := st.Get("taxi")
		if !ok {
			t.Fatal("taxi missing")
		}
		d.SetDeltaMaxRows(1)
		defer d.SetDeltaMaxRows(0)
		resp, body := postJSON(t, ts, "/v1/datasets/taxi/rows",
			fmt.Sprintf(`{"rows":[%s,%s]}`, taxiRow1, taxiRow2))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("503 without Retry-After")
		}
		if got := taxiCount(t, ts, "taxi"); got != base {
			t.Fatalf("backpressured ingest applied rows: count %d, want %d", got, base)
		}
	})
}

// FuzzIngestNDJSON holds the NDJSON rows reader to its contract on any
// body: a typed 400/413 with no rows, or a batch of 1 to maxIngestRows
// rows, at most one per line, every column as long as the points, that
// re-encodes to NDJSON parsing back to the same bits. It must never
// panic, and never allocate more than a small multiple of the body's
// size past the line scanner's fixed buffer. The seeds are the bodies of
// the malformed-ingest table and of TestIngestEndpoint's NDJSON case.
func FuzzIngestNDJSON(f *testing.F) {
	f.Add(taxiRow1 + "\n\n" + taxiRow2 + "\n")
	for _, tc := range ingestErrorCases() {
		if len(tc.body) <= 1<<12 {
			f.Add(tc.body)
		}
	}
	spec, _ := SpecByName("taxi")
	schema := spec.Schema
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/datasets/taxi/rows", strings.NewReader(body))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pts, cols, status, err := parseIngestNDJSON(req, schema)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(body))+1<<18 {
			t.Fatalf("parsing %d bytes allocated %d", len(body), alloc)
		}
		if err != nil {
			if status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge {
				t.Fatalf("rejection with status %d: %v", status, err)
			}
			if pts != nil || cols != nil {
				t.Fatalf("rejected body still gave %d rows", len(pts))
			}
			return
		}
		if status != 0 {
			t.Fatalf("accepted body with status %d", status)
		}
		if len(pts) == 0 || len(pts) > maxIngestRows || len(pts) > strings.Count(body, "\n")+1 {
			t.Fatalf("%d rows from %d lines", len(pts), strings.Count(body, "\n")+1)
		}
		if len(cols) != schema.NumCols() {
			t.Fatalf("%d columns, schema has %d", len(cols), schema.NumCols())
		}
		for c := range cols {
			if len(cols[c]) != len(pts) {
				t.Fatalf("column %d has %d values for %d rows", c, len(cols[c]), len(pts))
			}
		}
		var again []byte
		for i, p := range pts {
			row := []float64{p.X, p.Y}
			for c := range cols {
				row = append(row, cols[c][i])
			}
			line, err := json.Marshal(row)
			if err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
			again = append(append(again, line...), '\n')
		}
		req = httptest.NewRequest(http.MethodPost, "/v1/datasets/taxi/rows", bytes.NewReader(again))
		pts2, cols2, _, err := parseIngestNDJSON(req, schema)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		if !reflect.DeepEqual(pts2, pts) || !reflect.DeepEqual(cols2, cols) {
			t.Fatalf("re-encoded batch parses to different rows")
		}
	})
}

// TestIngestMappedDataset pins the serving-tier read-only contract: rows
// and compact against a mapped (mmap-served) dataset answer 409, and the
// mapped data stays untouched.
func TestIngestMappedDataset(t *testing.T) {
	st := testStore(t)
	st.EnableMmap(0)
	dataDir := t.TempDir()
	_, h := newServer(st, Config{DataDir: dataDir})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/datasets/taxi/snapshot", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts, "/v1/datasets",
		`{"name":"taxi-mapped","source":"snapshot","path":"`+dataDir+`/taxi"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create from snapshot status %d: %s", resp.StatusCode, body)
	}
	base := taxiCount(t, ts, "taxi-mapped")

	resp, body = postJSON(t, ts, "/v1/datasets/taxi-mapped/rows", `{"rows":[`+taxiRow1+`]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("ingest into mapped: status %d, want 409: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts, "/v1/datasets/taxi-mapped/compact", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("compact of mapped: status %d, want 409: %s", resp.StatusCode, body)
	}
	if got := taxiCount(t, ts, "taxi-mapped"); got != base {
		t.Fatalf("mapped dataset mutated: count %d -> %d", base, got)
	}
}

package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"geoblocks/internal/snapshot"
)

// snapshotServer is a handler over testStore with a data dir configured.
func snapshotServer(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	dataDir := t.TempDir()
	_, h := newServer(testStore(t), Config{DataDir: dataDir})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, dataDir
}

func TestSnapshotEndpointRoundTrip(t *testing.T) {
	ts, dataDir := snapshotServer(t)

	// Baseline answer before any snapshotting.
	_, wantBody := postJSON(t, ts, "/v1/query", taxiRect)

	// Snapshot to the default <data-dir>/taxi (empty body).
	resp, body := postJSON(t, ts, "/v1/datasets/taxi/snapshot", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", resp.StatusCode, body)
	}
	var sr snapshotResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Dataset != "taxi" || sr.Shards < 2 || sr.Bytes <= 0 || sr.FormatVersion != snapshot.FormatVersionV3 {
		t.Fatalf("snapshot response %+v", sr)
	}
	if sr.Path != filepath.Join(dataDir, "taxi") {
		t.Fatalf("snapshot path %q", sr.Path)
	}
	if _, err := os.Stat(filepath.Join(sr.Path, snapshot.ManifestFile)); err != nil {
		t.Fatalf("manifest not on disk: %v", err)
	}

	// Create-from-snapshot under a new name, then query both: answers
	// must be byte-identical (the response JSON embeds every aggregate).
	resp, body = postJSON(t, ts, "/v1/datasets",
		fmt.Sprintf(`{"name":"taxi2","source":"snapshot","path":%q}`, sr.Path))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create-from-snapshot status %d: %s", resp.StatusCode, body)
	}
	_, gotBody := postJSON(t, ts, "/v1/query",
		`{"dataset":"taxi2","rect":[-74.05,40.60,-73.85,40.85],"aggs":[{"func":"count"},{"func":"sum","col":"fare_amount"}]}`)
	var want, got struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(wantBody, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gotBody, &got); err != nil {
		t.Fatal(err)
	}
	if string(want.Result) != string(got.Result) {
		t.Fatalf("restored dataset answers differently:\n%s\nvs\n%s", want.Result, got.Result)
	}

	// A second restore of the same artifact under another name also
	// works: snapshots are immutable, shareable artifacts.
	resp, body = postJSON(t, ts, "/v1/datasets", `{"name":"taxi3","source":"snapshot","path":"`+sr.Path+`"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second restore status %d: %s", resp.StatusCode, body)
	}
}

func TestSnapshotEndpointErrors(t *testing.T) {
	ts, dataDir := snapshotServer(t)

	resp, _ := postJSON(t, ts, "/v1/datasets/nope/snapshot", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset snapshot status %d", resp.StatusCode)
	}

	// No data dir and no path: 400.
	_, hNoDir := newServer(testStore(t), Config{})
	tsNoDir := httptest.NewServer(hNoDir)
	defer tsNoDir.Close()
	resp, body := postJSON(t, tsNoDir, "/v1/datasets/taxi/snapshot", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no-data-dir snapshot status %d: %s", resp.StatusCode, body)
	}

	// Create from a missing snapshot path: 400; from a corrupt one: 422.
	resp, _ = postJSON(t, ts, "/v1/datasets", `{"name":"m","source":"snapshot","path":"`+filepath.Join(dataDir, "absent")+`"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing snapshot create status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts, "/v1/datasets/taxi/snapshot", ""); resp.StatusCode != http.StatusOK {
		t.Fatal("snapshot failed")
	}
	path := filepath.Join(dataDir, "taxi", "shard-00000.gb3")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts, "/v1/datasets", `{"name":"c","source":"snapshot","path":"`+filepath.Join(dataDir, "taxi")+`"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt snapshot create status %d: %s", resp.StatusCode, body)
	}
	// Nothing partially registered.
	resp, body = getJSON(t, ts, "/v1/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatal("list failed")
	}
	var dl datasetsResponse
	if err := json.Unmarshal(body, &dl); err != nil {
		t.Fatal(err)
	}
	if len(dl.Datasets) != 1 || dl.Datasets[0].Name != "taxi" {
		t.Fatalf("registry polluted: %s", body)
	}

	// Bad source value.
	resp, _ = postJSON(t, ts, "/v1/datasets", `{"name":"x","source":"carrier-pigeon"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad source status %d", resp.StatusCode)
	}
}

func TestDeletePurge(t *testing.T) {
	ts, dataDir := snapshotServer(t)
	if resp, _ := postJSON(t, ts, "/v1/datasets/taxi/snapshot", ""); resp.StatusCode != http.StatusOK {
		t.Fatal("snapshot failed")
	}
	snapDir := filepath.Join(dataDir, "taxi")

	// Plain DELETE leaves the snapshot on disk.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/taxi", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if _, err := os.Stat(snapDir); err != nil {
		t.Fatalf("plain DELETE touched disk: %v", err)
	}

	// Restore it, then DELETE ?purge=1 removes the snapshot too.
	if resp, body := postJSON(t, ts, "/v1/datasets", `{"name":"taxi","source":"snapshot"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("restore status %d: %s", resp.StatusCode, body)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/taxi?purge=1", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("purge delete status %d", resp.StatusCode)
	}
	if _, err := os.Stat(snapDir); !os.IsNotExist(err) {
		t.Fatalf("purge left snapshot behind (err=%v)", err)
	}
}

func TestDeletePurgeWithoutDataDir(t *testing.T) {
	_, h := newServer(testStore(t), Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/taxi?purge=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("purge without data dir status %d", resp.StatusCode)
	}
	// The rejected purge must not have dropped the dataset either.
	if resp, _ := getJSON(t, ts, "/v1/stats?dataset=taxi"); resp.StatusCode != http.StatusOK {
		t.Fatal("dataset was dropped by a rejected purge")
	}
}

func TestCreateRejectsUnsafeNames(t *testing.T) {
	ts, _ := snapshotServer(t)
	for _, name := range []string{"../evil", "a/b", ".hidden", "..", "sp ace"} {
		body := fmt.Sprintf(`{"name":%q,"spec":"taxi","rows":100}`, name)
		resp, _ := postJSON(t, ts, "/v1/datasets", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("name %q accepted with status %d", name, resp.StatusCode)
		}
	}
}

func TestValidDatasetName(t *testing.T) {
	for _, ok := range []string{"taxi", "tweets-hot", "a.b_c-9", "X"} {
		if !ValidDatasetName(ok) {
			t.Errorf("ValidDatasetName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".", "..", ".x", "a/b", "a\\b", "a b", "ü"} {
		if ValidDatasetName(bad) {
			t.Errorf("ValidDatasetName(%q) = true", bad)
		}
	}
}

// TestPurgeConflictsWithInFlightSnapshot pins the purge/snapshot
// reservation: while a snapshot of the dataset is in flight, a purge
// must be refused (409) without dropping the dataset.
func TestPurgeConflictsWithInFlightSnapshot(t *testing.T) {
	dataDir := t.TempDir()
	s, h := newServer(testStore(t), Config{DataDir: dataDir})
	ts := httptest.NewServer(h)
	defer ts.Close()

	s.snapshotting.Store("taxi", struct{}{}) // simulate an in-flight snapshot
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/taxi?purge=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("purge during snapshot status %d, want 409", resp.StatusCode)
	}
	if _, ok := s.store.Get("taxi"); !ok {
		t.Fatal("refused purge dropped the dataset")
	}

	s.snapshotting.Delete("taxi")
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/taxi?purge=1", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("purge after snapshot finished status %d", resp.StatusCode)
	}
}

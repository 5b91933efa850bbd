// Package httpapi implements the HTTP/JSON API of the geoblocksd
// serving daemon over a store.Store: dataset registry (including
// create-from-snapshot and the per-dataset snapshot endpoint), polygon /
// rectangle / batch aggregate queries, statistics and Prometheus-style
// metrics. cmd/geoblocksd wires this handler to a listener with flags
// and graceful shutdown; docs/OPERATIONS.md is the endpoint reference
// and docs/FORMAT.md specifies the snapshot artifacts.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geoblocks"
	"geoblocks/internal/cluster"
	"geoblocks/internal/dataset"
	"geoblocks/internal/geom"
	"geoblocks/internal/snapshot"
	"geoblocks/internal/store"
)

// maxCreateRows caps POST /v1/datasets so a single request cannot OOM the
// daemon; bigger datasets are loaded at startup with -load.
const maxCreateRows = 10_000_000

// maxBodyBytes caps POST request bodies for the same reason: a query
// body is polygon rings and aggregate specs, a create body is a small
// configuration object — 8 MiB comfortably fits any legitimate batch
// while bounding what a decoder will materialise.
const maxBodyBytes = 8 << 20

// DefaultLevel is the block grid level used when a dataset is created
// without one; over city-scale bounds it is a street-level grid, the
// paper's mid-range operating point.
const DefaultLevel = 14

// Config carries the daemon-level handler configuration.
type Config struct {
	// DataDir is the snapshot directory: the default target of the
	// per-dataset snapshot endpoint (DataDir/<name>), the tree the
	// daemon restores at startup, and the scope of DELETE's ?purge=1.
	// Empty disables the defaults — snapshot requests then must carry an
	// explicit path, and purge is rejected.
	DataDir string
	// Cluster, when non-nil, puts the node in cluster mode: it serves
	// the internal partial-query endpoint (peers answer shard
	// sub-coverings as serialized accumulators) and exports cluster
	// stats and metrics. Built by the daemon from -cluster-config.
	Cluster *cluster.Coordinator
	// Coordinator additionally routes /v1/query through the cluster
	// scatter-gather: local shards in process, remote shards via peer
	// partial requests, merged in global shard order. Requires Cluster.
	// The dataset-level result cache is bypassed on this path (cluster
	// answers are merged fresh each query; see docs/ARCHITECTURE.md).
	Coordinator bool
}

// server holds the daemon state behind the HTTP handlers: the dataset
// store, the snapshot configuration, plus request counters for /metrics.
type server struct {
	store *store.Store
	cfg   Config
	start time.Time

	// creating reserves dataset names while a POST /v1/datasets build or
	// snapshot restore is in flight, so concurrent creates of one name
	// run the expensive work only once.
	creating sync.Map
	// snapshotting reserves dataset names while a snapshot write is in
	// flight, so concurrent snapshot requests cannot interleave writes
	// to one target directory.
	snapshotting sync.Map

	// per-endpoint-group request counters, exported by /metrics.
	reqDatasets atomic.Uint64
	reqQuery    atomic.Uint64
	reqJoin     atomic.Uint64
	reqStats    atomic.Uint64
	reqMetrics  atomic.Uint64
	reqIngest   atomic.Uint64
	reqPartial  atomic.Uint64
	// ingestedRows counts rows acknowledged through the rows endpoint.
	ingestedRows atomic.Uint64
}

// NewHandler wraps a store in the daemon's HTTP handler. The endpoint
// groups (docs/OPERATIONS.md has the full reference):
//
//	GET/POST /v1/datasets, DELETE /v1/datasets/{name} — registry
//	POST /v1/datasets/{name}/rows — streaming ingest (JSON or NDJSON)
//	POST /v1/datasets/{name}/compact — fold pending rows into the base
//	POST /v1/datasets/{name}/snapshot — durable snapshot to disk
//	POST /v1/query — polygon, rect and batch-of-polygons aggregation
//	GET /v1/stats — dataset statistics with per-shard breakdown
//	GET /metrics — Prometheus-style counters
func NewHandler(st *store.Store, cfg Config) http.Handler {
	_, h := newServer(st, cfg)
	return h
}

// newServer builds the server state and its routing mux; tests use the
// server to reach the counters directly.
func newServer(st *store.Store, cfg Config) (*server, http.Handler) {
	s := &server{store: st, cfg: cfg, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	mux.HandleFunc("POST /v1/datasets", s.handleCreateDataset)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDropDataset)
	mux.HandleFunc("POST /v1/datasets/{name}/rows", s.handleIngest)
	mux.HandleFunc("POST /v1/datasets/{name}/compact", s.handleCompact)
	mux.HandleFunc("POST /v1/datasets/{name}/snapshot", s.handleSnapshotDataset)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/join", s.handleJoin)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Cluster != nil {
		mux.HandleFunc("POST /internal/v1/partial", s.handlePartial)
	}
	return s, mux
}

// ValidDatasetName bounds the names the daemon will create or touch on
// disk: snapshot directories are named after datasets, so names must be
// safe single path elements. Letters, digits, '.', '_' and '-' up to 128
// characters, not starting with '.' (no hidden directories, no "..").
func ValidDatasetName(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorResponse is the uniform error body. Code is a stable
// machine-readable tag, set by cluster-mode endpoints so coordinators
// and operators can branch without parsing messages; Shards names the
// shard cells behind a per-shard failure (the typed 503 of an
// unavailable replica chain).
type errorResponse struct {
	Error  string   `json:"error"`
	Code   string   `json:"code,omitempty"`
	Shards []string `json:"shards,omitempty"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeTypedError is writeError with a machine-readable code and
// optional per-shard attribution.
func writeTypedError(w http.ResponseWriter, status int, code string, shards []string, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Code: code, Shards: shards})
}

// jsonFloat marshals NaN and ±Inf (legal aggregate results: the MIN of an
// empty region is NaN) as null, which encoding/json otherwise rejects.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// resultJSON is one query answer on the wire. level and error_bound
// report the query planner's decision: the grid level the answer was
// computed at and the guaranteed spatial error bound of that answer in
// domain units (0 = exact).
type resultJSON struct {
	Count        uint64      `json:"count"`
	Values       []jsonFloat `json:"values"`
	CellsVisited int         `json:"cells_visited"`
	Level        int         `json:"level"`
	ErrorBound   jsonFloat   `json:"error_bound"`
}

func toResultJSON(r geoblocks.Result) resultJSON {
	out := resultJSON{
		Count:        r.Count,
		Values:       make([]jsonFloat, len(r.Values)),
		CellsVisited: r.CellsVisited,
		Level:        r.Level,
		ErrorBound:   jsonFloat(r.ErrorBound),
	}
	for i, v := range r.Values {
		out.Values[i] = jsonFloat(v)
	}
	return out
}

// aggJSON is one requested aggregate: {"func": "sum", "col": "fare"}.
// col is ignored for count.
type aggJSON struct {
	Func string `json:"func"`
	Col  string `json:"col"`
}

func (a aggJSON) toRequest() (geoblocks.AggRequest, error) {
	fn := strings.ToLower(a.Func)
	if fn != "count" && a.Col == "" {
		return geoblocks.AggRequest{}, fmt.Errorf("aggregate %q needs a col", a.Func)
	}
	switch fn {
	case "count":
		return geoblocks.Count(), nil
	case "sum":
		return geoblocks.Sum(a.Col), nil
	case "min":
		return geoblocks.Min(a.Col), nil
	case "max":
		return geoblocks.Max(a.Col), nil
	case "avg":
		return geoblocks.Avg(a.Col), nil
	default:
		return geoblocks.AggRequest{}, fmt.Errorf("unknown aggregate func %q (count, sum, min, max, avg)", a.Func)
	}
}

// queryRequest is the /v1/query body. Exactly one of Polygon, Rect or
// Polygons must be set.
type queryRequest struct {
	Dataset string `json:"dataset"`
	// Polygon is an outer ring of [x, y] vertices.
	Polygon [][2]float64 `json:"polygon,omitempty"`
	// Rect is [minX, minY, maxX, maxY].
	Rect *[4]float64 `json:"rect,omitempty"`
	// Polygons is the batch form: one ring per query, answered as a
	// join without its stats.
	Polygons [][][2]float64 `json:"polygons,omitempty"`
	Aggs     []aggJSON      `json:"aggs"`
	// MaxError is the acceptable spatial error bound in domain units; the
	// planner answers at the coarsest pyramid level satisfying it (0 =
	// exact). Applies to every form, batch included.
	MaxError float64 `json:"max_error,omitempty"`
	// Workers is accepted and range-checked for compatibility with older
	// clients, and otherwise ignored: every query runs one kernel.
	Workers int `json:"workers,omitempty"`
	// NoCache bypasses the dataset's result cache: the answer is
	// computed from the aggregate arrays.
	NoCache bool `json:"no_cache,omitempty"`
}

// maxQueryWorkers bounds the accepted workers value; anything outside
// [0, maxQueryWorkers] stays a request error.
const maxQueryWorkers = 256

// options validates the planner knobs of a query request and converts
// them to geoblocks.QueryOptions.
func (q queryRequest) options() (geoblocks.QueryOptions, error) {
	if q.Workers < 0 || q.Workers > maxQueryWorkers {
		return geoblocks.QueryOptions{}, fmt.Errorf("workers must be in [0, %d], got %d", maxQueryWorkers, q.Workers)
	}
	opts := geoblocks.QueryOptions{MaxError: q.MaxError, DisableCache: q.NoCache}
	if err := opts.Validate(); err != nil {
		return geoblocks.QueryOptions{}, fmt.Errorf("max_error must be finite and >= 0, got %v", q.MaxError)
	}
	return opts, nil
}

// queryResponse is the /v1/query answer. Result is set for the polygon
// and rect forms, Results for the batch form.
type queryResponse struct {
	Dataset   string       `json:"dataset"`
	Result    *resultJSON  `json:"result,omitempty"`
	Results   []resultJSON `json:"results,omitempty"`
	ElapsedUS int64        `json:"elapsed_us"`
}

func parseRing(ring [][2]float64) (*geom.Polygon, error) {
	pts := make([]geom.Point, len(ring))
	for i, v := range ring {
		pts[i] = geom.Pt(v[0], v[1])
	}
	return geom.TryPolygon(pts)
}

// parsePolygons parses the ring list of a batch query or a join; an error
// names the offending ring as polygons[i].
func parsePolygons(rings [][][2]float64) ([]*geom.Polygon, error) {
	polys := make([]*geom.Polygon, len(rings))
	for i, ring := range rings {
		poly, err := parseRing(ring)
		if err != nil {
			return nil, fmt.Errorf("polygons[%d]: %w", i, err)
		}
		polys[i] = poly
	}
	return polys, nil
}

// writeQueryError maps the error of a query, batch or join, answered
// here or through the cluster coordinator, onto a typed HTTP answer: a
// starved shard is a 503 naming the shards, schema errors are the
// caller's fault. op names the request in the message.
func writeQueryError(w http.ResponseWriter, op string, err error) {
	var ue *cluster.UnavailableError
	switch {
	case errors.As(err, &ue):
		toks := make([]string, len(ue.Shards))
		for i, c := range ue.Shards {
			toks[i] = cluster.CellToken(c)
		}
		writeTypedError(w, http.StatusServiceUnavailable, cluster.CodeUnavailable, toks, "%s: %v", op, err)
	case errors.Is(err, cluster.ErrUnknownDataset):
		writeTypedError(w, http.StatusNotFound, cluster.CodeUnknownDataset, nil, "%s: %v", op, err)
	case errors.Is(err, geoblocks.ErrUnknownColumn):
		writeError(w, http.StatusBadRequest, "%s: %v", op, err)
	default:
		writeError(w, http.StatusInternalServerError, "%s: %v", op, err)
	}
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.reqQuery.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	req, err := decodeWire(r.Body, r.ContentLength, (*queryRequest).readWire)
	if err != nil {
		writeError(w, bodyErrStatus(err), "malformed request body: %v", err)
		return
	}
	if req.Dataset == "" {
		writeError(w, http.StatusBadRequest, "missing dataset")
		return
	}
	d, ok := s.store.Get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	forms := 0
	for _, set := range []bool{req.Polygon != nil, req.Rect != nil, req.Polygons != nil} {
		if set {
			forms++
		}
	}
	if forms != 1 {
		writeError(w, http.StatusBadRequest, "exactly one of polygon, rect or polygons must be set")
		return
	}
	if req.Polygons != nil && len(req.Polygons) == 0 {
		writeError(w, http.StatusBadRequest, "polygons must not be empty")
		return
	}
	if len(req.Polygons) > maxJoinPolygons {
		writeError(w, http.StatusBadRequest, "batch is capped at %d polygons, got %d", maxJoinPolygons, len(req.Polygons))
		return
	}
	if len(req.Aggs) == 0 {
		writeError(w, http.StatusBadRequest, "missing aggs")
		return
	}
	reqs := make([]geoblocks.AggRequest, len(req.Aggs))
	for i, a := range req.Aggs {
		ar, err := a.toRequest()
		if err != nil {
			writeError(w, http.StatusBadRequest, "aggs[%d]: %v", i, err)
			return
		}
		reqs[i] = ar
	}
	opts, err := req.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A coordinator answers through the cluster: the store's executor on
	// its own copy, the parts on remote shards sent to peers.
	co := s.cfg.Cluster
	if !s.cfg.Coordinator {
		co = nil
	}

	start := time.Now()
	resp := queryResponse{Dataset: req.Dataset}
	switch {
	case req.Polygon != nil:
		poly, err := parseRing(req.Polygon)
		if err != nil {
			writeError(w, http.StatusBadRequest, "polygon: %v", err)
			return
		}
		var res geoblocks.Result
		if co != nil {
			res, err = co.Query(r.Context(), req.Dataset, poly, opts, reqs)
		} else {
			res, err = d.QueryOpts(poly, opts, reqs...)
		}
		if err != nil {
			writeQueryError(w, "query", err)
			return
		}
		rj := toResultJSON(res)
		resp.Result = &rj
	case req.Rect != nil:
		rc := geom.Rect{Min: geom.Pt(req.Rect[0], req.Rect[1]), Max: geom.Pt(req.Rect[2], req.Rect[3])}
		if !rc.IsValid() {
			writeError(w, http.StatusBadRequest, "rect: min exceeds max")
			return
		}
		var res geoblocks.Result
		if co != nil {
			res, err = co.QueryRect(r.Context(), req.Dataset, rc, opts, reqs)
		} else {
			res, err = d.QueryRectOpts(rc, opts, reqs...)
		}
		if err != nil {
			writeQueryError(w, "query", err)
			return
		}
		rj := toResultJSON(res)
		resp.Result = &rj
	default:
		polys, err := parsePolygons(req.Polygons)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		var results []geoblocks.Result
		if co != nil {
			results, err = co.QueryBatch(r.Context(), req.Dataset, polys, opts, reqs)
		} else {
			results, err = d.QueryBatchOpts(polys, opts, reqs...)
		}
		if err != nil {
			writeQueryError(w, "query", err)
			return
		}
		resp.Results = make([]resultJSON, len(results))
		for i, res := range results {
			resp.Results[i] = toResultJSON(res)
		}
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	writeAppended(w, appendQueryResponse(nil, &resp))
}

// datasetsResponse is the GET /v1/datasets body.
type datasetsResponse struct {
	Datasets []store.DatasetStats `json:"datasets"`
	// Residency reports the store's resident-memory manager when mmap
	// serving is enabled: how much of the mapped snapshot footprint is
	// materialised, against what budget, and the fault/eviction churn.
	// Absent when the daemon serves decoded heap blocks.
	Residency *store.ResidencyStats `json:"residency,omitempty"`
	// Cluster reports the node's cluster coordinator state (assignment
	// epoch, per-peer request/hedge/failover counters). Absent outside
	// cluster mode.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
}

func (s *server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	s.reqDatasets.Add(1)
	// The list view stays compact; /v1/stats has the per-shard breakdown.
	writeJSON(w, http.StatusOK, datasetsResponse{Datasets: s.store.Summaries()})
}

// createRequest is the POST /v1/datasets body. source selects where the
// dataset comes from: "synthetic" (default) builds from an
// internal/dataset spec; "snapshot" restores a durable snapshot
// directory written by the snapshot endpoint (docs/FORMAT.md).
type createRequest struct {
	Name string `json:"name"`
	// Source is "synthetic" (default when empty) or "snapshot".
	Source string `json:"source"`
	// Path locates the snapshot directory for source "snapshot"; empty
	// defaults to <data-dir>/<name>.
	Path string `json:"path"`
	// Spec is the synthetic dataset generator: taxi, tweets or osm.
	Spec string `json:"spec"`
	Rows int    `json:"rows"`
	Seed int64  `json:"seed"`
	// Level is the block grid level; 0 picks the default (14).
	Level      int `json:"level"`
	ShardLevel int `json:"shard_level"`
	// PyramidLevels derives that many coarser levels per shard for the
	// query planner's max_error knob (0 = full resolution only).
	PyramidLevels int `json:"pyramid_levels"`
	// ResultCacheBytes > 0 attaches the dataset-level result cache with
	// that byte budget (docs/OPERATIONS.md, "Result cache tuning"). The
	// field is an integer byte count: fractional or non-numeric budgets
	// are malformed requests, negative ones are build errors.
	ResultCacheBytes int64 `json:"result_cache_bytes"`
	// ResultCacheMinHits is the result cache's admission floor; 0 admits
	// on first miss. Ignored unless ResultCacheBytes is positive.
	ResultCacheMinHits int `json:"result_cache_min_hits"`
}

// SpecByName resolves the synthetic generator specs the daemon can load.
func SpecByName(name string) (dataset.Spec, bool) {
	switch strings.ToLower(name) {
	case "taxi":
		return dataset.NYCTaxi(), true
	case "tweets":
		return dataset.USTweets(), true
	case "osm":
		return dataset.OSMAmericas(), true
	}
	return dataset.Spec{}, false
}

// BuildSynthetic generates spec rows and builds a store dataset from them.
func BuildSynthetic(name, specName string, rows int, seed int64, opts store.Options) (*store.Dataset, error) {
	spec, ok := SpecByName(specName)
	if !ok {
		return nil, fmt.Errorf("unknown spec %q (taxi, tweets, osm)", specName)
	}
	raw := dataset.Generate(spec, rows, seed)
	clean := raw.CleanRule()
	opts.Clean = &clean
	return store.Build(name, raw.Spec.Bound, raw.Spec.Schema, raw.Points, raw.Cols, opts)
}

func (s *server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	s.reqDatasets.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var body struct {
		createRequest
		// The per-shard AggregateTrie's knobs. Served datasets carry no
		// trie, so a non-zero value is refused by name rather than
		// dropped: a client that asks for the trie learns it is gone.
		CacheThreshold   float64 `json:"cache_threshold"`
		CacheAutoRefresh float64 `json:"cache_auto_refresh"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return
	}
	if body.CacheThreshold != 0 || body.CacheAutoRefresh != 0 {
		key := "cache_threshold"
		if body.CacheThreshold == 0 {
			key = "cache_auto_refresh"
		}
		writeError(w, http.StatusBadRequest, "%s is not supported: served datasets carry no per-shard AggregateTrie", key)
		return
	}
	req := body.createRequest
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "missing name")
		return
	}
	if !ValidDatasetName(req.Name) {
		writeError(w, http.StatusBadRequest, "invalid dataset name %q (letters, digits, '.', '_', '-'; must not start with '.')", req.Name)
		return
	}
	fromSnapshot := false
	switch strings.ToLower(req.Source) {
	case "", "synthetic":
	case "snapshot":
		fromSnapshot = true
	default:
		writeError(w, http.StatusBadRequest, "unknown source %q (synthetic, snapshot)", req.Source)
		return
	}
	if !fromSnapshot && (req.Rows <= 0 || req.Rows > maxCreateRows) {
		writeError(w, http.StatusBadRequest, "rows must be in [1, %d], got %d", maxCreateRows, req.Rows)
		return
	}
	if req.Level == 0 {
		req.Level = DefaultLevel
	}
	if _, exists := s.store.Get(req.Name); exists {
		writeError(w, http.StatusConflict, "dataset %q already exists", req.Name)
		return
	}
	// Reserve the name for the duration of the build or restore so
	// concurrent creates of the same dataset do not each run the
	// (potentially multi-second) work; the final Add still decides
	// conflicts with already-registered datasets atomically.
	if _, busy := s.creating.LoadOrStore(req.Name, struct{}{}); busy {
		writeError(w, http.StatusConflict, "dataset %q is being created", req.Name)
		return
	}
	defer s.creating.Delete(req.Name)

	var d *store.Dataset
	var err error
	if fromSnapshot {
		dir := req.Path
		if dir == "" {
			if s.cfg.DataDir == "" {
				writeError(w, http.StatusBadRequest, "source snapshot needs a path (no -data-dir configured)")
				return
			}
			dir = filepath.Join(s.cfg.DataDir, req.Name)
		}
		// Serve the snapshot in place when the store has mmap serving
		// enabled (v1 snapshots fall back to the eager decode inside).
		if res := s.store.Residency(); res != nil {
			d, err = store.OpenMapped(dir, req.Name, res)
		} else {
			d, err = store.Open(dir, req.Name)
		}
		if err != nil {
			writeError(w, snapshotStatus(err), "restore: %v", err)
			return
		}
	} else {
		d, err = BuildSynthetic(req.Name, req.Spec, req.Rows, req.Seed, store.Options{
			Level:              req.Level,
			ShardLevel:         req.ShardLevel,
			PyramidLevels:      req.PyramidLevels,
			ResultCacheBytes:   req.ResultCacheBytes,
			ResultCacheMinHits: req.ResultCacheMinHits,
		})
		if err != nil {
			writeError(w, http.StatusBadRequest, "build: %v", err)
			return
		}
	}
	if err := s.store.Add(d); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, d.Stats())
}

// snapshotStatus maps a snapshot load failure to an HTTP status: a
// corrupt or version-mismatched artifact is 422 (the request was fine,
// the artifact is not), everything else (typically a missing path) is
// the caller's 400.
func snapshotStatus(err error) int {
	if errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrVersion) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

func (s *server) handleDropDataset(w http.ResponseWriter, r *http.Request) {
	s.reqDatasets.Add(1)
	name := r.PathValue("name")
	purge := false
	if v := r.URL.Query().Get("purge"); v != "" {
		p, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad purge value %q", v)
			return
		}
		purge = p
	}
	// Validate the purge preconditions before dropping anything, so a
	// rejected purge does not half-apply.
	if purge {
		if s.cfg.DataDir == "" {
			writeError(w, http.StatusBadRequest, "purge requires the daemon to run with -data-dir")
			return
		}
		if !ValidDatasetName(name) {
			writeError(w, http.StatusBadRequest, "invalid dataset name %q", name)
			return
		}
		// Claim the same per-dataset reservation the snapshot endpoint
		// holds: otherwise an in-flight snapshot could re-create the
		// directory right after the purge removed it.
		if _, busy := s.snapshotting.LoadOrStore(name, struct{}{}); busy {
			writeError(w, http.StatusConflict, "dataset %q is being snapshotted; retry the purge", name)
			return
		}
		defer s.snapshotting.Delete(name)
	}
	if !s.store.Drop(name) {
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	// DELETE without ?purge=1 never touches disk: a dropped dataset's
	// snapshot+WAL pair stays restorable (docs/OPERATIONS.md).
	if purge {
		if err := os.RemoveAll(filepath.Join(s.cfg.DataDir, name)); err != nil {
			writeError(w, http.StatusInternalServerError, "dataset dropped but purge failed: %v", err)
			return
		}
		if err := snapshot.RemoveWAL(s.cfg.DataDir, name); err != nil {
			writeError(w, http.StatusInternalServerError, "dataset dropped but wal purge failed: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": name, "purged": purge})
}

// snapshotRequest is the POST /v1/datasets/{name}/snapshot body. The
// body is optional; an absent or empty path targets
// <data-dir>/<name>.
type snapshotRequest struct {
	Path string `json:"path"`
}

// snapshotResponse reports a completed snapshot write.
type snapshotResponse struct {
	Dataset string `json:"dataset"`
	Path    string `json:"path"`
	// FormatVersion and Shards echo the written manifest; Bytes is the
	// total payload size on disk.
	FormatVersion int   `json:"format_version"`
	Shards        int   `json:"shards"`
	Bytes         int64 `json:"bytes"`
	ElapsedUS     int64 `json:"elapsed_us"`
}

func (s *server) handleSnapshotDataset(w http.ResponseWriter, r *http.Request) {
	s.reqDatasets.Add(1)
	name := r.PathValue("name")
	d, ok := s.store.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	var req snapshotRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return
	}
	dir := req.Path
	if dir == "" {
		if s.cfg.DataDir == "" {
			writeError(w, http.StatusBadRequest, "snapshot needs a path (no -data-dir configured)")
			return
		}
		if !ValidDatasetName(name) {
			writeError(w, http.StatusBadRequest, "invalid dataset name %q", name)
			return
		}
		dir = filepath.Join(s.cfg.DataDir, name)
	}
	// One snapshot per dataset at a time: concurrent writes to one
	// target directory would race on the rename swap.
	if _, busy := s.snapshotting.LoadOrStore(name, struct{}{}); busy {
		writeError(w, http.StatusConflict, "dataset %q is being snapshotted", name)
		return
	}
	defer s.snapshotting.Delete(name)

	start := time.Now()
	m, err := d.Snapshot(dir)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	var total int64
	for _, sh := range m.Shards {
		total += sh.Bytes
	}
	writeJSON(w, http.StatusOK, snapshotResponse{
		Dataset:       name,
		Path:          dir,
		FormatVersion: m.FormatVersion,
		Shards:        len(m.Shards),
		Bytes:         total,
		ElapsedUS:     time.Since(start).Microseconds(),
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.reqStats.Add(1)
	if name := r.URL.Query().Get("dataset"); name != "" {
		d, ok := s.store.Get(name)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown dataset %q", name)
			return
		}
		writeJSON(w, http.StatusOK, d.Stats())
		return
	}
	resp := datasetsResponse{Datasets: s.store.Stats()}
	if res := s.store.Residency(); res != nil {
		rs := res.Stats()
		resp.Residency = &rs
	}
	if s.cfg.Cluster != nil {
		cs := s.cfg.Cluster.Stats()
		resp.Cluster = &cs
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics renders Prometheus-style text metrics: per-dataset sizes,
// query counts and result-cache effectiveness counters, plus daemon
// totals.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reqMetrics.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	writeMetric := func(name, labels string, v float64) {
		if labels != "" {
			fmt.Fprintf(&b, "%s{%s} %g\n", name, labels, v)
		} else {
			fmt.Fprintf(&b, "%s %g\n", name, v)
		}
	}
	fmt.Fprintf(&b, "# geoblocksd metrics\n")
	writeMetric("geoblocksd_uptime_seconds", "", time.Since(s.start).Seconds())
	writeMetric("geoblocksd_requests_total", `endpoint="datasets"`, float64(s.reqDatasets.Load()))
	writeMetric("geoblocksd_requests_total", `endpoint="query"`, float64(s.reqQuery.Load()))
	writeMetric("geoblocksd_requests_total", `endpoint="join"`, float64(s.reqJoin.Load()))
	writeMetric("geoblocksd_requests_total", `endpoint="stats"`, float64(s.reqStats.Load()))
	writeMetric("geoblocksd_requests_total", `endpoint="metrics"`, float64(s.reqMetrics.Load()))
	writeMetric("geoblocksd_requests_total", `endpoint="ingest"`, float64(s.reqIngest.Load()))
	writeMetric("geoblocksd_ingested_rows_total", "", float64(s.ingestedRows.Load()))

	// Cluster series exist exactly when the daemon runs with a cluster
	// assignment (-cluster-config), a per-process configuration.
	if s.cfg.Cluster != nil {
		writeMetric("geoblocksd_requests_total", `endpoint="partial"`, float64(s.reqPartial.Load()))
		cs := s.cfg.Cluster.Stats()
		writeMetric("geoblocksd_cluster_assignment_epoch", "", float64(cs.Epoch))
		writeMetric("geoblocksd_cluster_nodes", "", float64(cs.Nodes))
		writeMetric("geoblocksd_cluster_replication", "", float64(cs.Replication))
		writeMetric("geoblocksd_cluster_queries_total", "", float64(cs.Queries))
		writeMetric("geoblocksd_cluster_local_partials_total", "", float64(cs.LocalParts))
		writeMetric("geoblocksd_cluster_remote_calls_total", "", float64(cs.RemoteCalls))
		writeMetric("geoblocksd_cluster_unavailable_total", "", float64(cs.Unavailable))
		writeMetric("geoblocksd_cluster_assignment_reloads_total", "", float64(cs.Reloads))
		for _, p := range cs.Peers {
			l := fmt.Sprintf("peer=%q", p.Name)
			writeMetric("geoblocksd_cluster_peer_requests_total", l, float64(p.Requests))
			writeMetric("geoblocksd_cluster_peer_errors_total", l, float64(p.Errors))
			writeMetric("geoblocksd_cluster_peer_retries_total", l, float64(p.Retries))
			writeMetric("geoblocksd_cluster_peer_hedges_total", l, float64(p.Hedges))
			writeMetric("geoblocksd_cluster_peer_failovers_total", l, float64(p.Failovers))
			writeMetric("geoblocksd_cluster_peer_successes_total", l, float64(p.Successes))
			writeMetric("geoblocksd_cluster_peer_latency_micros_total", l, float64(p.LatencyTotalMicros))
		}
	}

	// Residency series exist exactly when the daemon runs with mmap
	// serving — a per-process configuration, so they are stable for the
	// lifetime of any scrape target.
	if res := s.store.Residency(); res != nil {
		rs := res.Stats()
		writeMetric("geoblocksd_residency_budget_bytes", "", float64(rs.BudgetBytes))
		writeMetric("geoblocksd_residency_mapped_bytes", "", float64(rs.MappedBytes))
		writeMetric("geoblocksd_residency_mapped_shards", "", float64(rs.MappedShards))
		writeMetric("geoblocksd_residency_resident_bytes", "", float64(rs.ResidentBytes))
		writeMetric("geoblocksd_residency_resident_shards", "", float64(rs.ResidentShards))
		writeMetric("geoblocksd_residency_shard_faults_total", "", float64(rs.Faults))
		writeMetric("geoblocksd_residency_evictions_total", "", float64(rs.Evictions))
	}

	for _, st := range s.store.Summaries() {
		l := fmt.Sprintf("dataset=%q", st.Name)
		writeMetric("geoblocks_dataset_shards", l, float64(st.NumShards))
		writeMetric("geoblocks_dataset_cells", l, float64(st.Cells))
		writeMetric("geoblocks_dataset_tuples", l, float64(st.Tuples))
		writeMetric("geoblocks_dataset_size_bytes", l, float64(st.SizeBytes))
		writeMetric("geoblocks_pyramid_levels", l, float64(st.PyramidLevels))
		writeMetric("geoblocks_pyramid_bytes", l, float64(st.PyramidBytes))
		writeMetric("geoblocks_dataset_queries_total", l, float64(st.Queries))
		if st.Mapped {
			writeMetric("geoblocks_dataset_mapped_bytes", l, float64(st.MappedBytes))
			writeMetric("geoblocks_dataset_resident_bytes", l, float64(st.ResidentBytes))
			writeMetric("geoblocks_dataset_resident_shards", l, float64(st.ResidentShards))
		}
		// Result-cache counters are emitted for every dataset — zeros when
		// no result cache is attached — so scrapers and alert rules never
		// see a series appear or vanish with the cache configuration.
		var rcHits, rcMisses, rcEvictions, rcBytes float64
		if rc := st.ResultCache; rc != nil {
			rcHits = float64(rc.Hits)
			rcMisses = float64(rc.Misses)
			rcEvictions = float64(rc.Evictions)
			rcBytes = float64(rc.Bytes)
		}
		writeMetric("geoblocks_resultcache_hits_total", l, rcHits)
		writeMetric("geoblocks_resultcache_misses_total", l, rcMisses)
		writeMetric("geoblocks_resultcache_evictions_total", l, rcEvictions)
		writeMetric("geoblocks_resultcache_bytes", l, rcBytes)
		// Join counters follow the same always-emit convention: zeros
		// before the first join, so the interior-fraction ratio
		// (interior / (interior + boundary)) is computable from stable
		// series.
		var jJoins, jPolys, jInterior, jBoundary, jHits, jMisses float64
		if jc := st.Join; jc != nil {
			jJoins = float64(jc.Joins)
			jPolys = float64(jc.Polygons)
			jInterior = float64(jc.InteriorPairs)
			jBoundary = float64(jc.BoundaryPairs)
			jHits = float64(jc.CacheHits)
			jMisses = float64(jc.CacheMisses)
		}
		writeMetric("geoblocks_join_queries_total", l, jJoins)
		writeMetric("geoblocks_join_polygons_total", l, jPolys)
		writeMetric("geoblocks_join_interior_pairs_total", l, jInterior)
		writeMetric("geoblocks_join_boundary_pairs_total", l, jBoundary)
		writeMetric("geoblocks_join_cache_hits_total", l, jHits)
		writeMetric("geoblocks_join_cache_misses_total", l, jMisses)
		// Ingest/compaction series exist for every writable (non-mapped)
		// dataset, zeros included, so dashboards see stable series from
		// the moment a dataset is created.
		if ing := st.Ingest; ing != nil {
			writeMetric("geoblocks_ingest_batches_total", l, float64(ing.Batches))
			writeMetric("geoblocks_ingest_rows_total", l, float64(ing.Rows))
			writeMetric("geoblocks_ingest_delta_rows", l, float64(ing.DeltaRows))
			writeMetric("geoblocks_ingest_backpressure_total", l, float64(ing.Backpressured))
			writeMetric("geoblocks_ingest_seq", l, float64(ing.IngestSeq))
			writeMetric("geoblocks_ingest_folded_seq", l, float64(ing.FoldedSeq))
			writeMetric("geoblocks_compactions_total", l, float64(ing.Compactions))
			writeMetric("geoblocks_compacted_rows_total", l, float64(ing.CompactedRows))
			writeMetric("geoblocks_ingest_wal_bytes", l, float64(ing.WALBytes))
		}
	}
	_, _ = w.Write([]byte(b.String()))
}

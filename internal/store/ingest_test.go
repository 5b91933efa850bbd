package store

// The streaming-ingest test battery (ROADMAP item 2): a randomized
// equivalence property suite interleaving ingest batches, queries at
// every pyramid level (cached and uncached, sharded and unsharded,
// single and batch) and compactions against a reference dataset rebuilt
// from scratch; WAL crash-recovery tests (mid-stream snapshot, torn
// tails, replay idempotence); and read-only pins for mapped datasets.
// The integer-valued aggregate column makes every SUM exactly
// representable, so the equivalence assertions are bit-identity — the
// strongest form of the base+delta merge contract.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"geoblocks"
	"geoblocks/internal/core"
	"geoblocks/internal/geom"
	"geoblocks/internal/snapshot"
)

// genIngestRows draws n in-bounds points with an integer-valued first
// column (exact sums) and a continuous second column, from the caller's
// rng so interleavings stay reproducible per seed.
func genIngestRows(rng *rand.Rand, n int) ([]geom.Point, [][]float64) {
	pts := make([]geom.Point, n)
	ints := make([]float64, n)
	floats := make([]float64, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		ints[i] = math.Floor(rng.Float64() * 1000)
		floats[i] = rng.NormFloat64() * 17
	}
	return pts, [][]float64{ints, floats}
}

func appendRows(dstP []geom.Point, dstC [][]float64, pts []geom.Point, cols [][]float64) ([]geom.Point, [][]float64) {
	dstP = append(dstP, pts...)
	for c := range dstC {
		dstC[c] = append(dstC[c], cols[c]...)
	}
	return dstP, dstC
}

// TestIngestEquivalenceRandomized interleaves random ingest batches,
// compactions and queries, checking every answer bit-identically against
// a dataset rebuilt from scratch over the same rows. Query shapes rotate
// through polygon/rect/batch, exact and planned (max_error > 0, hitting
// the pyramid levels), repeated footprints (result-cache hits) and
// cache-bypassing options; configurations cover unsharded, sharded,
// per-shard-cached and result-cached datasets.
func TestIngestEquivalenceRandomized(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"unsharded", Options{Level: 11, PyramidLevels: 3}},
		{"sharded-cached", Options{Level: 12, ShardLevel: 2, PyramidLevels: 2, CacheThreshold: 0.10, CacheAutoRefresh: 50}},
		{"sharded-resultcache", Options{Level: 11, ShardLevel: 1, PyramidLevels: 3, ResultCacheBytes: 1 << 20}},
	}
	for ci, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(900 + ci)))
			refPts, refCols := testRows(8000, int64(40+ci))
			live, err := Build("live", testBound, geoblocks.NewSchema("ival", "fval"), refPts, refCols, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			// The reference rebuilds from scratch with the caches off: the
			// live dataset's cached answers must match uncached recomputation
			// bit for bit.
			refOpts := cfg.opts
			refOpts.CacheThreshold = 0
			refOpts.CacheAutoRefresh = 0
			refOpts.ResultCacheBytes = 0
			var ref *Dataset
			refDirty := true
			refresh := func() {
				if !refDirty {
					return
				}
				ref, err = Build("ref", testBound, geoblocks.NewSchema("ival", "fval"), refPts, refCols, refOpts)
				if err != nil {
					t.Fatal(err)
				}
				refDirty = false
			}
			maxErrs := []float64{0, 0.05, 0.4, 3}
			var hotRect *geom.Rect
			for op := 0; op < 90; op++ {
				switch rng.Intn(7) {
				case 0, 1: // ingest a batch
					pts, cols := genIngestRows(rng, 1+rng.Intn(400))
					if _, err := live.Ingest(pts, cols); err != nil {
						t.Fatalf("op %d: ingest: %v", op, err)
					}
					refPts, refCols = appendRows(refPts, refCols, pts, cols)
					refDirty = true
				case 2: // fold
					if _, err := live.Compact(); err != nil {
						t.Fatalf("op %d: compact: %v", op, err)
					}
				case 3: // polygon query, planned level
					refresh()
					c := geom.Pt(rng.Float64()*100, rng.Float64()*100)
					poly := geoblocks.RegularPolygon(c, 1+rng.Float64()*25, 3+rng.Intn(7))
					opts := geoblocks.QueryOptions{MaxError: maxErrs[rng.Intn(len(maxErrs))]}
					got, err := live.QueryOpts(poly, opts, testReqs...)
					if err != nil {
						t.Fatalf("op %d: query: %v", op, err)
					}
					want, err := ref.QueryOpts(poly, opts, testReqs...)
					if err != nil {
						t.Fatalf("op %d: ref query: %v", op, err)
					}
					assertEquivalent(t, got, want, "poly")
					if got.Level != want.Level || got.ErrorBound != want.ErrorBound {
						t.Fatalf("op %d: plan (level %d, bound %v), ref (level %d, bound %v)",
							op, got.Level, got.ErrorBound, want.Level, want.ErrorBound)
					}
				case 4: // rect query; 50% repeat the previous footprint (cache hit path)
					refresh()
					if hotRect == nil || rng.Intn(2) == 0 {
						r := geom.RectFromCenter(geom.Pt(rng.Float64()*100, rng.Float64()*100),
							1+rng.Float64()*30, 1+rng.Float64()*30)
						hotRect = &r
					}
					opts := geoblocks.QueryOptions{MaxError: maxErrs[rng.Intn(len(maxErrs))]}
					if rng.Intn(4) == 0 {
						opts.DisableCache = true
					}
					got, err := live.QueryRectOpts(*hotRect, opts, testReqs...)
					if err != nil {
						t.Fatalf("op %d: rect: %v", op, err)
					}
					want, err := ref.QueryRectOpts(*hotRect, opts, testReqs...)
					if err != nil {
						t.Fatalf("op %d: ref rect: %v", op, err)
					}
					assertEquivalent(t, got, want, "rect")
				case 5: // batch query
					refresh()
					polys := make([]*geom.Polygon, 4)
					for i := range polys {
						polys[i] = geoblocks.RegularPolygon(
							geom.Pt(rng.Float64()*100, rng.Float64()*100), 1+rng.Float64()*20, 4)
					}
					opts := geoblocks.QueryOptions{MaxError: maxErrs[rng.Intn(len(maxErrs))]}
					got, err := live.QueryBatchOpts(polys, opts, testReqs...)
					if err != nil {
						t.Fatalf("op %d: batch: %v", op, err)
					}
					want, err := ref.QueryBatchOpts(polys, opts, testReqs...)
					if err != nil {
						t.Fatalf("op %d: ref batch: %v", op, err)
					}
					for i := range got {
						assertEquivalent(t, got[i], want[i], "batch")
					}
				case 6: // full-domain rect: exact row accounting at any level
					refresh()
					got, err := live.QueryRect(testBound, geoblocks.Count())
					if err != nil {
						t.Fatalf("op %d: full rect: %v", op, err)
					}
					want, err := ref.QueryRect(testBound, geoblocks.Count())
					if err != nil {
						t.Fatalf("op %d: ref full rect: %v", op, err)
					}
					if got.Count != want.Count {
						t.Fatalf("op %d: full-domain count %d, want %d", op, got.Count, want.Count)
					}
				}
			}
			// Final fold must change no answer: base+delta and all-base are
			// the same dataset.
			refresh()
			if _, err := live.Compact(); err != nil {
				t.Fatal(err)
			}
			if live.DeltaRows() != 0 {
				t.Fatalf("delta rows after final compact: %d", live.DeltaRows())
			}
			got, err := live.QueryRect(testBound, testReqs...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.QueryRect(testBound, testReqs...)
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, got, want, "post-compact")
		})
	}
}

// TestIngestValidation pins the typed rejections: wrong shape, ragged
// columns, non-finite values, out-of-bounds points, backpressure — each
// all-or-nothing (the failing batch applies no row).
func TestIngestValidation(t *testing.T) {
	d := buildDataset(t, "val", 2000, 5, Options{Level: 10, ShardLevel: 1})
	before, err := d.QueryRect(testBound, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pts  []geom.Point
		cols [][]float64
		want error
	}{
		{"wrong column count", []geom.Point{geom.Pt(1, 1)}, [][]float64{{1}}, ErrBadValue},
		{"ragged columns", []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2)}, [][]float64{{1, 2}, {3}}, ErrBadValue},
		{"nan value", []geom.Point{geom.Pt(1, 1)}, [][]float64{{math.NaN()}, {1}}, ErrBadValue},
		{"inf value", []geom.Point{geom.Pt(1, 1)}, [][]float64{{1}, {math.Inf(1)}}, ErrBadValue},
		{"out of bounds", []geom.Point{geom.Pt(1, 1), geom.Pt(500, 500)}, [][]float64{{1, 2}, {3, 4}}, ErrOutOfBounds},
	}
	for _, tc := range cases {
		if _, err := d.Ingest(tc.pts, tc.cols); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Backpressure: a cap below the batch size rejects, applies nothing,
	// and counts the rejection.
	d.SetDeltaMaxRows(10)
	pts, cols := genIngestRows(rand.New(rand.NewSource(1)), 50)
	if _, err := d.Ingest(pts, cols); !errors.Is(err, ErrBackpressure) {
		t.Errorf("backpressure: err = %v, want ErrBackpressure", err)
	}
	after, err := d.QueryRect(testBound, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != before.Count {
		t.Fatalf("rejected batches applied rows: count %d -> %d", before.Count, after.Count)
	}
	if st := d.IngestStatsNow(); st.Backpressured != 1 || st.Batches != 0 {
		t.Fatalf("ingest stats after rejections: %+v", st)
	}
	// Under the cap the same batch applies.
	d.SetDeltaMaxRows(1000)
	if _, err := d.Ingest(pts, cols); err != nil {
		t.Fatalf("ingest under cap: %v", err)
	}
}

// TestIngestWALRecovery is the crash-recovery property: acknowledged
// batches survive a crash (re-open from snapshot + WAL replay) with no
// row lost and none double-counted, including across a mid-stream
// snapshot (which folds and truncates) and with a torn garbage tail.
func TestIngestWALRecovery(t *testing.T) {
	dataDir := t.TempDir()
	schema := geoblocks.NewSchema("ival", "fval")
	refPts, refCols := testRows(5000, 3)
	opts := Options{Level: 11, ShardLevel: 1, PyramidLevels: 2}
	d, err := Build("walrec", testBound, schema, refPts, refCols, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EnableWAL(dataDir); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	ingest := func(n int) {
		t.Helper()
		pts, cols := genIngestRows(rng, n)
		if _, err := d.Ingest(pts, cols); err != nil {
			t.Fatal(err)
		}
		refPts, refCols = appendRows(refPts, refCols, pts, cols)
	}
	for i := 0; i < 5; i++ {
		ingest(200)
	}
	// Snapshot mid-stream: folds the 5 batches into the base, records
	// IngestSeq=5 and truncates the log.
	snapDir := filepath.Join(dataDir, "walrec")
	m, err := d.Snapshot(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	if m.IngestSeq != 5 {
		t.Fatalf("manifest IngestSeq = %d, want 5", m.IngestSeq)
	}
	for i := 0; i < 3; i++ {
		ingest(150)
	}

	// Crash: no shutdown, no truncate — just re-open from disk.
	reopen := func() *Dataset {
		t.Helper()
		d2, err := Open(snapDir, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := d2.EnableWAL(dataDir); err != nil {
			t.Fatal(err)
		}
		return d2
	}
	ref, err := Build("ref", testBound, schema, refPts, refCols, opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(d2 *Dataset, label string) {
		t.Helper()
		if got := d2.IngestSeq(); got != 8 {
			t.Fatalf("%s: ingest seq = %d, want 8", label, got)
		}
		got, err := d2.QueryRect(testBound, testReqs...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.QueryRect(testBound, testReqs...)
		if err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, got, want, label)
		crng := rand.New(rand.NewSource(5))
		for q := 0; q < 10; q++ {
			r := geom.RectFromCenter(geom.Pt(crng.Float64()*100, crng.Float64()*100),
				1+crng.Float64()*30, 1+crng.Float64()*30)
			g, err := d2.QueryRect(r, testReqs...)
			if err != nil {
				t.Fatal(err)
			}
			w, err := ref.QueryRect(r, testReqs...)
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, g, w, label)
		}
	}
	d2 := reopen()
	check(d2, "recovered")
	if st := d2.IngestStatsNow(); st.ReplayedRows != 3*150 {
		t.Fatalf("replayed %d rows, want %d (batches above the snapshot's IngestSeq)", st.ReplayedRows, 3*150)
	}
	if err := d2.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Torn tail: garbage appended to the log (a crash mid-append) must be
	// truncated away without touching the acknowledged batches.
	walPath := snapshot.WALPath(dataDir, "walrec")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-frame-garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	d3 := reopen()
	check(d3, "torn tail")
	if err := d3.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Replay idempotence: recover, snapshot (folding the replayed rows,
	// IngestSeq -> 8, log truncated), recover again — the rows must not
	// apply a second time.
	d4 := reopen()
	if _, err := d4.Snapshot(snapDir); err != nil {
		t.Fatal(err)
	}
	if err := d4.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	d5 := reopen()
	check(d5, "post-snapshot recovery")
	if st := d5.IngestStatsNow(); st.ReplayedRows != 0 {
		t.Fatalf("replayed %d rows after snapshot, want 0 (double count)", st.ReplayedRows)
	}
}

// TestIngestSnapshotRecoveryPoint pins that a snapshot taken while rows
// are pending folds them first: the snapshot alone (no WAL) already
// serves every acknowledged row.
func TestIngestSnapshotRecoveryPoint(t *testing.T) {
	d := buildDataset(t, "snaprec", 3000, 9, Options{Level: 10, ShardLevel: 1})
	pts, cols := genIngestRows(rand.New(rand.NewSource(2)), 500)
	if _, err := d.Ingest(pts, cols); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if _, err := d.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if d.DeltaRows() != 0 {
		t.Fatalf("snapshot left %d delta rows unfolded", d.DeltaRows())
	}
	d2, err := Open(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.QueryRect(testBound, testReqs...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.QueryRect(testBound, testReqs...)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, got, want, "restored snapshot")
}

// TestMappedWritePathReadOnly pins the read-only contract of mapped
// datasets across the whole write path: Update, Ingest, Compact and
// EnableWAL all refuse with core.ErrReadOnly (HTTP maps it to 409).
func TestMappedWritePathReadOnly(t *testing.T) {
	d := buildDataset(t, "ro", 2000, 4, Options{Level: 10})
	dir := filepath.Join(t.TempDir(), "ro")
	if _, err := d.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	md, err := OpenMapped(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !md.Mapped() {
		t.Fatal("expected a mapped dataset")
	}
	if err := md.Update(&geoblocks.UpdateBatch{
		Points: []geom.Point{geom.Pt(1, 1)}, Cols: [][]float64{{1}, {2}},
	}); !errors.Is(err, core.ErrReadOnly) {
		t.Errorf("Update on mapped: err = %v, want ErrReadOnly", err)
	}
	if _, err := md.Ingest([]geom.Point{geom.Pt(1, 1)}, [][]float64{{1}, {2}}); !errors.Is(err, core.ErrReadOnly) {
		t.Errorf("Ingest on mapped: err = %v, want ErrReadOnly", err)
	}
	if _, err := md.Compact(); !errors.Is(err, core.ErrReadOnly) {
		t.Errorf("Compact on mapped: err = %v, want ErrReadOnly", err)
	}
	if err := md.EnableWAL(t.TempDir()); !errors.Is(err, core.ErrReadOnly) {
		t.Errorf("EnableWAL on mapped: err = %v, want ErrReadOnly", err)
	}
}

// snapshotAndOpen snapshots d and restores the snapshot eagerly, the way
// a daemon without -mmap restarts.
func snapshotAndOpen(t *testing.T, d *Dataset) *Dataset {
	t.Helper()
	dir := filepath.Join(t.TempDir(), d.Name())
	m, err := d.Snapshot(dir)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if m.FormatVersion != snapshot.FormatVersionV3 {
		t.Fatalf("snapshot written at format version %d, want %d", m.FormatVersion, snapshot.FormatVersionV3)
	}
	rd, err := Open(dir, "")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rd.Mapped() {
		t.Fatal("Open returned a mapped dataset")
	}
	return rd
}

// TestEagerRestoreWritePath runs the write path on a dataset as built
// and on its v3 snapshot restored eagerly: Ingest, Compact, Update, then
// Snapshot and Open again must all succeed, and after each step both
// answer like a dataset that took the same writes and never left
// memory. An eager v3 restore owns its heap blocks; were they read-only
// mapped views, the Compact would refuse them with ErrReadOnly.
func TestEagerRestoreWritePath(t *testing.T) {
	const rows, seed = 3000, 12
	opts := Options{Level: 10, ShardLevel: 1, PyramidLevels: 2}
	polys := randomPolys(20, 41)
	check := func(t *testing.T, got, want *Dataset, step string) {
		t.Helper()
		for i, p := range polys {
			w, err := want.Query(p, testReqs...)
			if err != nil {
				t.Fatal(err)
			}
			g, err := got.Query(p, testReqs...)
			if err != nil {
				t.Fatalf("%s: query %d: %v", step, i, err)
			}
			assertEquivalent(t, g, w, fmt.Sprintf("%s, polygon %d", step, i))
		}
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T, d *Dataset) *Dataset
	}{
		{"built", func(_ *testing.T, d *Dataset) *Dataset { return d }},
		{"restored-v3", snapshotAndOpen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := buildDataset(t, "w", rows, seed, opts)
			d := tc.open(t, buildDataset(t, "w", rows, seed, opts))
			check(t, d, want, "open")

			pts, cols := genIngestRows(rand.New(rand.NewSource(13)), 400)
			for _, ds := range []*Dataset{want, d} {
				if _, err := ds.Ingest(pts, cols); err != nil {
					t.Fatalf("Ingest: %v", err)
				}
			}
			check(t, d, want, "ingest")

			for _, ds := range []*Dataset{want, d} {
				if st, err := ds.Compact(); err != nil || st.Rows != len(pts) {
					t.Fatalf("Compact: folded %d rows, err %v; want %d rows", st.Rows, err, len(pts))
				}
			}
			check(t, d, want, "compact")

			// Update lands on the build's own points, so every row finds
			// an aggregated cell.
			upts, _ := testRows(100, seed)
			ucols := [][]float64{make([]float64, len(upts)), make([]float64, len(upts))}
			for i := range upts {
				ucols[0][i], ucols[1][i] = float64(i), float64(-i)
			}
			for _, ds := range []*Dataset{want, d} {
				if err := ds.Update(&geoblocks.UpdateBatch{Points: upts, Cols: ucols}); err != nil {
					t.Fatalf("Update: %v", err)
				}
			}
			check(t, d, want, "update")

			check(t, snapshotAndOpen(t, d), want, "snapshot and reopen")
		})
	}
}

// TestStoreIngestLifecycle covers the registry wiring: EnableIngest
// attaches cap+WAL+compactor at Add, a fresh build of a dropped name
// does not replay the stale WAL, and a restored snapshot does.
func TestStoreIngestLifecycle(t *testing.T) {
	dataDir := t.TempDir()
	st := New()
	st.EnableIngest(IngestConfig{WALDir: dataDir, DeltaMaxRows: 100_000})
	d := buildDataset(t, "life", 2000, 6, Options{Level: 10, ShardLevel: 1})
	if err := st.Add(d); err != nil {
		t.Fatal(err)
	}
	pts, cols := genIngestRows(rand.New(rand.NewSource(8)), 300)
	if _, err := d.Ingest(pts, cols); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapshot.WALPath(dataDir, "life")); err != nil {
		t.Fatalf("no wal written: %v", err)
	}
	base, err := d.QueryRect(testBound, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}

	// Drop keeps the WAL on disk; a FRESH build under the same name must
	// not inherit it.
	if !st.Drop("life") {
		t.Fatal("drop failed")
	}
	d2 := buildDataset(t, "life", 2000, 6, Options{Level: 10, ShardLevel: 1})
	if err := st.Add(d2); err != nil {
		t.Fatal(err)
	}
	if got := d2.IngestStatsNow(); got.ReplayedRows != 0 || got.IngestSeq != 0 {
		t.Fatalf("fresh build replayed a stale wal: %+v", got)
	}
	built, err := d2.QueryRect(testBound, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}

	// A restored snapshot, by contrast, replays its log.
	pts2, cols2 := genIngestRows(rand.New(rand.NewSource(9)), 100)
	if _, err := d2.Ingest(pts2, cols2); err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(dataDir, "life")
	// Snapshot BEFORE more ingest so the log keeps a tail to replay.
	if _, err := d2.Snapshot(snapDir); err != nil {
		t.Fatal(err)
	}
	pts3, cols3 := genIngestRows(rand.New(rand.NewSource(10)), 120)
	if _, err := d2.Ingest(pts3, cols3); err != nil {
		t.Fatal(err)
	}
	st.Drop("life")
	d3, err := Open(snapDir, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(d3); err != nil {
		t.Fatal(err)
	}
	if got := d3.IngestStatsNow(); got.ReplayedRows != 120 {
		t.Fatalf("restore replayed %d rows, want 120", got.ReplayedRows)
	}
	got, err := d3.QueryRect(testBound, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	if want := built.Count + 100 + 120; got.Count != want {
		t.Fatalf("recovered count %d, want %d (base %d)", got.Count, want, base.Count)
	}
	st.Close()

	// The attached compactor really folds: with an interval set the delta
	// drains in the background, nobody calling Compact, and every
	// acknowledged row is counted exactly once afterwards.
	bg := New()
	bg.EnableIngest(IngestConfig{CompactInterval: time.Millisecond})
	d4 := buildDataset(t, "bg", 2000, 6, Options{Level: 10, ShardLevel: 1})
	if err := bg.Add(d4); err != nil {
		t.Fatal(err)
	}
	pts4, cols4 := genIngestRows(rand.New(rand.NewSource(11)), 200)
	if _, err := d4.Ingest(pts4, cols4); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); d4.DeltaRows() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("background compactor never folded the delta")
		}
	}
	if got := d4.IngestStatsNow(); got.Compactions == 0 || got.CompactedRows != 200 {
		t.Fatalf("background fold not counted: %+v", got)
	}
	folded, err := d4.QueryRect(testBound, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	if want := built.Count + 200; folded.Count != want {
		t.Fatalf("count after background fold %d, want %d", folded.Count, want)
	}
	bg.Close()
}

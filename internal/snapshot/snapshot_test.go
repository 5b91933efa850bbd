package snapshot_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/core"
	"geoblocks/internal/geom"
	"geoblocks/internal/snapshot"
)

var testBound = geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}

// buildShards builds a two-shard test dataset by hand: rows partitioned
// by level-1 cell, one GeoBlock per non-empty cell, all over one domain
// (the same construction the store uses).
func buildShards(t *testing.T, rows int, seed int64) []snapshot.Shard {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dom := cellid.MustDomain(testBound)
	schema := geoblocks.NewSchema("fare", "distance")

	byCell := make(map[cellid.ID][][3]float64)
	for i := 0; i < rows; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		cell := dom.CellAt(geoblocks.Pt(x, y), 1)
		byCell[cell] = append(byCell[cell], [3]float64{x, y, rng.Float64() * 50})
	}
	cells := make([]cellid.ID, 0, len(byCell))
	for cell := range byCell {
		cells = append(cells, cell)
	}
	// Ascending cell order, as the store produces.
	for i := range cells {
		for j := i + 1; j < len(cells); j++ {
			if cells[j] < cells[i] {
				cells[i], cells[j] = cells[j], cells[i]
			}
		}
	}

	shards := make([]snapshot.Shard, 0, len(cells))
	for _, cell := range cells {
		rowsHere := byCell[cell]
		pts := make([]geoblocks.Point, len(rowsHere))
		cols := [][]float64{make([]float64, len(rowsHere)), make([]float64, len(rowsHere))}
		for i, r := range rowsHere {
			pts[i] = geoblocks.Pt(r[0], r[1])
			cols[0][i] = r[2]
			cols[1][i] = float64(i % 7)
		}
		b, err := geoblocks.NewBuilder(testBound, schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddRows(pts, cols); err != nil {
			t.Fatal(err)
		}
		blk, err := b.Build(8, nil)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, snapshot.Shard{Cell: cell, Block: blk})
	}
	if len(shards) < 2 {
		t.Fatalf("want a multi-shard fixture, got %d shards", len(shards))
	}
	return shards
}

func testManifest(shards []snapshot.Shard) snapshot.Manifest {
	return snapshot.Manifest{
		Dataset:          "test",
		Level:            8,
		ShardLevel:       1,
		CacheThreshold:   0.1,
		CacheAutoRefresh: 500,
		Bound:            [4]float64{0, 0, 100, 100},
		Columns:          []string{"fare", "distance"},
	}
}

// saveFixture writes a pristine snapshot and returns its directory and
// the shards it holds.
func saveFixture(t *testing.T) (string, []snapshot.Shard, snapshot.Manifest) {
	t.Helper()
	shards := buildShards(t, 4000, 42)
	dir := filepath.Join(t.TempDir(), "test")
	m, err := snapshot.Save(dir, testManifest(shards), shards)
	if err != nil {
		t.Fatal(err)
	}
	return dir, shards, m
}

// copyV2Fixture copies the committed legacy snapshot in testdata/v2demo
// into a fresh directory and returns it. It holds docs/FORMAT.md §7's
// dataset as an earlier build wrote it: format version 1, two framed v2
// shards over (0,0)–(4,4), fares 10/20/40, block level 2, shard level 1.
func copyV2Fixture(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "demo")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "v2demo"))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLoadV2Fixture restores bytes this build did not write: the legacy
// reader must still give the fixture's exact answers.
func TestLoadV2Fixture(t *testing.T) {
	m, shards, err := snapshot.Load(copyV2Fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.FormatVersion != snapshot.FormatVersion || len(shards) != 2 {
		t.Fatalf("fixture loaded at format version %d with %d shards", m.FormatVersion, len(shards))
	}
	var count uint64
	var sum float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, sh := range shards {
		res, err := sh.Block.QueryRect(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(4, 4)},
			geoblocks.Count(), geoblocks.Sum("fare"), geoblocks.Min("fare"), geoblocks.Max("fare"))
		if err != nil {
			t.Fatal(err)
		}
		count += res.Count
		sum += res.Values[1]
		lo, hi = math.Min(lo, res.Values[2]), math.Max(hi, res.Values[3])
	}
	if count != 3 || sum != 70 || lo != 10 || hi != 40 {
		t.Fatalf("fixture answers count %d sum %v min %v max %v, want 3 70 10 40", count, sum, lo, hi)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir, shards, m := saveFixture(t)
	if m.FormatVersion != snapshot.FormatVersionV3 {
		t.Fatalf("saved format version %d", m.FormatVersion)
	}
	if len(m.Shards) != len(shards) {
		t.Fatalf("manifest has %d shards, want %d", len(m.Shards), len(shards))
	}

	lm, loaded, err := snapshot.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Dataset != "test" || lm.Level != 8 || lm.ShardLevel != 1 ||
		lm.CacheThreshold != 0.1 || lm.CacheAutoRefresh != 500 {
		t.Fatalf("manifest metadata lost: %+v", lm)
	}
	if len(loaded) != len(shards) {
		t.Fatalf("loaded %d shards, want %d", len(loaded), len(shards))
	}
	poly, err := geoblocks.NewPolygon([]geoblocks.Point{
		geoblocks.Pt(10, 10), geoblocks.Pt(90, 15), geoblocks.Pt(80, 85), geoblocks.Pt(15, 70),
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []geoblocks.AggRequest{geoblocks.Count(), geoblocks.Min("fare"), geoblocks.Max("fare"), geoblocks.Sum("fare")}
	for i := range shards {
		if loaded[i].Cell != shards[i].Cell {
			t.Fatalf("shard %d cell %v, want %v", i, loaded[i].Cell, shards[i].Cell)
		}
		want, err := shards[i].Block.Query(poly, reqs...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded[i].Block.Query(poly, reqs...)
		if err != nil {
			t.Fatal(err)
		}
		if want.Count != got.Count {
			t.Fatalf("shard %d count %d, want %d", i, got.Count, want.Count)
		}
		for v := range want.Values {
			// MIN/MAX and this fixture's SUM must survive bit-identically.
			if fmt.Sprint(want.Values[v]) != fmt.Sprint(got.Values[v]) {
				t.Fatalf("shard %d value[%d] %v, want %v", i, v, got.Values[v], want.Values[v])
			}
		}
	}
}

func TestSaveReplacesPreviousSnapshot(t *testing.T) {
	dir, shards, _ := saveFixture(t)
	// Second save with fewer shards must atomically replace the first.
	m2 := testManifest(shards)
	m2.Dataset = "test"
	if _, err := snapshot.Save(dir, m2, shards[:1]); err == nil {
		// shards[:1] has one level-1 cell: still a valid snapshot.
		lm, loaded, err := snapshot.Load(dir)
		if err != nil {
			t.Fatalf("replaced snapshot does not load: %v", err)
		}
		if len(lm.Shards) != 1 || len(loaded) != 1 {
			t.Fatalf("replacement not visible: %d manifest shards", len(lm.Shards))
		}
	} else {
		t.Fatal(err)
	}
	// No stray temp or backup directories left behind.
	entries, err := os.ReadDir(filepath.Dir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(dir) {
			t.Fatalf("leftover entry %q next to snapshot", e.Name())
		}
	}
}

func TestLoadMissingSnapshotIsNotCorrupt(t *testing.T) {
	_, _, err := snapshot.Load(filepath.Join(t.TempDir(), "absent"))
	if err == nil {
		t.Fatal("loaded a nonexistent snapshot")
	}
	if errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("missing snapshot reported as corrupt/version: %v", err)
	}
}

// rewriteManifest mutates the parsed manifest, rewrites manifest.json
// and recomputes the checksum sidecar — for corruption cases that must
// get past the sidecar check.
func rewriteManifest(t *testing.T, dir string, mutate func(m *map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, snapshot.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	mutate(&m)
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(filepath.Join(dir, snapshot.ManifestFile), out, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := fmt.Sprintf("%08x\n", core.CRC32C(out))
	if err := os.WriteFile(filepath.Join(dir, snapshot.ManifestChecksumFile), []byte(sum), 0o644); err != nil {
		t.Fatal(err)
	}
}

// patchFile applies mutate to the file's bytes in place.
func patchFile(t *testing.T, path string, mutate func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func firstShard(m map[string]any) map[string]any {
	return m["shards"].([]any)[0].(map[string]any)
}

// TestLoadCorruption is the artifact corruption table: truncations,
// bit flips and version bumps of the manifest and the per-shard
// payloads, each asserting the typed error and that nothing loads. Every
// case runs on a copy of the committed legacy fixture; the manifest
// cases also run on a fresh v3 save (TestV3LoadCorruption has the v3
// shard cases).
func TestLoadCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		wantErr error
		// legacyOnly marks cases that patch a framed .gbk shard file.
		legacyOnly bool
	}{
		{"manifest truncated", func(t *testing.T, dir string) {
			patchFile(t, filepath.Join(dir, snapshot.ManifestFile), func(b []byte) []byte { return b[:len(b)/2] })
		}, snapshot.ErrCorrupt, false},
		{"manifest bit flip", func(t *testing.T, dir string) {
			patchFile(t, filepath.Join(dir, snapshot.ManifestFile), func(b []byte) []byte {
				b[len(b)/3] ^= 0x20
				return b
			})
		}, snapshot.ErrCorrupt, false},
		{"manifest version bumped", func(t *testing.T, dir string) {
			rewriteManifest(t, dir, func(m *map[string]any) { (*m)["format_version"] = 99 })
		}, snapshot.ErrVersion, false},
		{"manifest checksum sidecar missing", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, snapshot.ManifestChecksumFile)); err != nil {
				t.Fatal(err)
			}
		}, snapshot.ErrCorrupt, false},
		{"manifest checksum sidecar garbage", func(t *testing.T, dir string) {
			patchFile(t, filepath.Join(dir, snapshot.ManifestChecksumFile), func([]byte) []byte { return []byte("zzzz\n") })
		}, snapshot.ErrCorrupt, false},
		{"manifest rows falsified", func(t *testing.T, dir string) {
			rewriteManifest(t, dir, func(m *map[string]any) {
				sh := firstShard(*m)
				sh["rows"] = sh["rows"].(float64) + 1
			})
		}, snapshot.ErrCorrupt, false},
		{"manifest crc falsified", func(t *testing.T, dir string) {
			rewriteManifest(t, dir, func(m *map[string]any) {
				sh := firstShard(*m)
				sh["crc32c"] = float64(uint32(sh["crc32c"].(float64)) ^ 1)
			})
		}, snapshot.ErrCorrupt, false},
		{"manifest shard order swapped", func(t *testing.T, dir string) {
			rewriteManifest(t, dir, func(m *map[string]any) {
				shards := (*m)["shards"].([]any)
				shards[0], shards[1] = shards[1], shards[0]
			})
		}, snapshot.ErrCorrupt, false},
		{"manifest unsafe shard file name", func(t *testing.T, dir string) {
			rewriteManifest(t, dir, func(m *map[string]any) {
				firstShard(*m)["file"] = "../escape.gbk"
			})
		}, snapshot.ErrCorrupt, false},
		{"shard file missing", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "shard-00000.gbk")); err != nil {
				t.Fatal(err)
			}
		}, snapshot.ErrCorrupt, true},
		{"shard file truncated", func(t *testing.T, dir string) {
			patchFile(t, filepath.Join(dir, "shard-00000.gbk"), func(b []byte) []byte { return b[:len(b)-8] })
		}, snapshot.ErrCorrupt, true},
		{"shard frame magic flipped", func(t *testing.T, dir string) {
			patchFile(t, filepath.Join(dir, "shard-00000.gbk"), func(b []byte) []byte {
				b[0] ^= 0xff
				return b
			})
		}, snapshot.ErrCorrupt, true},
		{"shard payload bit flip", func(t *testing.T, dir string) {
			patchFile(t, filepath.Join(dir, "shard-00000.gbk"), func(b []byte) []byte {
				b[len(b)/2] ^= 0x01
				return b
			})
		}, snapshot.ErrCorrupt, true},
		{"shard payload version bumped", func(t *testing.T, dir string) {
			patchFile(t, filepath.Join(dir, "shard-00000.gbk"), func(b []byte) []byte {
				// Payload version u32 sits at frame offset 16 (after frame
				// magic, length prefix and payload magic).
				binary.LittleEndian.PutUint32(b[16:20], 99)
				return b
			})
		}, snapshot.ErrVersion, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dirs := []string{copyV2Fixture(t)}
			if !tc.legacyOnly {
				dir, _, _ := saveFixture(t)
				dirs = append(dirs, dir)
			}
			for _, dir := range dirs {
				tc.corrupt(t, dir)
				_, shards, err := snapshot.Load(dir)
				if err == nil {
					t.Fatalf("corrupt snapshot %s loaded", dir)
				}
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("%s: error %v, want %v", dir, err, tc.wantErr)
				}
				if shards != nil {
					t.Fatal("corrupt load returned shards")
				}
			}
		})
	}
}

func TestSaveValidation(t *testing.T) {
	shards := buildShards(t, 500, 7)
	dir := filepath.Join(t.TempDir(), "v")
	m := testManifest(shards)
	m.Dataset = ""
	if _, err := snapshot.Save(dir, m, shards); err == nil {
		t.Fatal("empty dataset name accepted")
	}
	m.Dataset = "v"
	if _, err := snapshot.Save(dir, m, nil); err == nil {
		t.Fatal("zero shards accepted")
	}
}

// TestSaveRefusesForeignDirectory pins the destructive-replace guard:
// Save must never move aside and delete a directory that is not a
// snapshot (it can be handed arbitrary paths via the HTTP endpoint).
func TestSaveRefusesForeignDirectory(t *testing.T) {
	shards := buildShards(t, 500, 3)
	dir := filepath.Join(t.TempDir(), "precious")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(dir, "keep.txt")
	if err := os.WriteFile(keep, []byte("irreplaceable"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Save(dir, testManifest(shards), shards); err == nil {
		t.Fatal("Save replaced a non-snapshot directory")
	}
	if data, err := os.ReadFile(keep); err != nil || string(data) != "irreplaceable" {
		t.Fatalf("foreign directory damaged: %q, %v", data, err)
	}

	// A plain file at the target is refused too.
	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Save(file, testManifest(shards), shards); err == nil {
		t.Fatal("Save replaced a regular file")
	}

	// An empty directory (operator-created target) is fine.
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Save(empty, testManifest(shards), shards); err != nil {
		t.Fatalf("Save into empty directory: %v", err)
	}
}

// TestRecover pins the crash-remnant sweep: orphaned previous snapshots
// come back, superseded and staging leftovers go away.
func TestRecover(t *testing.T) {
	shards := buildShards(t, 500, 5)
	dataDir := t.TempDir()

	// Case 1: interrupted save — the previous snapshot was moved to
	// .snap-*.old and the new one never landed; the dataset dir is gone.
	if _, err := snapshot.Save(filepath.Join(dataDir, "orphan"), testManifest(shards), shards); err != nil {
		t.Fatal(err)
	}
	// testManifest names the dataset "test"; rewrite it to match the dir
	// name Recover will restore to.
	rewriteManifest(t, filepath.Join(dataDir, "orphan"), func(m *map[string]any) { (*m)["dataset"] = "orphan" })
	if err := os.Rename(filepath.Join(dataDir, "orphan"), filepath.Join(dataDir, ".snap-aaa.old")); err != nil {
		t.Fatal(err)
	}

	// Case 2: superseded — .old remnant whose current snapshot exists.
	m2 := testManifest(shards)
	m2.Dataset = "current"
	if _, err := snapshot.Save(filepath.Join(dataDir, "current"), m2, shards); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Save(filepath.Join(dataDir, ".snap-bbb.old"), m2, shards); err != nil {
		t.Fatal(err)
	}

	// Case 3: dead staging directory.
	if err := os.MkdirAll(filepath.Join(dataDir, ".snap-ccc"), 0o755); err != nil {
		t.Fatal(err)
	}

	actions, err := snapshot.Recover(dataDir)
	if err != nil {
		t.Fatalf("Recover: %v (%v)", err, actions)
	}
	if len(actions) != 3 {
		t.Fatalf("actions = %v, want 3", actions)
	}
	if _, _, err := snapshot.Load(filepath.Join(dataDir, "orphan")); err != nil {
		t.Fatalf("orphaned snapshot not recovered: %v", err)
	}
	for _, gone := range []string{".snap-aaa.old", ".snap-bbb.old", ".snap-ccc"} {
		if _, err := os.Stat(filepath.Join(dataDir, gone)); !os.IsNotExist(err) {
			t.Errorf("%s still present after Recover", gone)
		}
	}
	// Recover on a clean directory is a no-op.
	if actions, err := snapshot.Recover(dataDir); err != nil || len(actions) != 0 {
		t.Fatalf("second Recover = %v, %v", actions, err)
	}
}

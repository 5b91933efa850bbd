package snapshot_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"geoblocks"
	"geoblocks/internal/core"
	"geoblocks/internal/snapshot"
)

// refreshV3TableCRC recomputes a v3 shard file's table checksum after a
// test rewrites eagerly-checked bytes, so the targeted structural check
// (not the checksum) has to catch the mutation. The checksum covers
// [0,120) ++ [124,dataOff) — see docs/FORMAT.md Sec. 8.
func refreshV3TableCRC(b []byte) []byte {
	dataOff := binary.LittleEndian.Uint64(b[96:])
	covered := append(append([]byte(nil), b[:120]...), b[124:dataOff]...)
	binary.LittleEndian.PutUint32(b[120:], core.CRC32C(covered))
	return b
}

func queryAll(t *testing.T, shards []snapshot.Shard) []string {
	t.Helper()
	poly, err := geoblocks.NewPolygon([]geoblocks.Point{
		geoblocks.Pt(10, 10), geoblocks.Pt(90, 15), geoblocks.Pt(80, 85), geoblocks.Pt(15, 70),
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []geoblocks.AggRequest{geoblocks.Count(), geoblocks.Min("fare"), geoblocks.Max("fare"), geoblocks.Sum("fare")}
	out := make([]string, len(shards))
	for i := range shards {
		res, err := shards[i].Block.Query(poly, reqs...)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fmt.Sprint(res.Count, res.Values)
	}
	return out
}

func TestSaveLoadRoundTripV3(t *testing.T) {
	dir, shards, m := saveFixture(t)
	if m.FormatVersion != snapshot.FormatVersionV3 {
		t.Fatalf("saved format version %d", m.FormatVersion)
	}
	for _, e := range m.Shards {
		if filepath.Ext(e.File) != ".gb3" {
			t.Fatalf("v3 shard file %q", e.File)
		}
	}
	lm, loaded, err := snapshot.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lm.FormatVersion != snapshot.FormatVersionV3 || len(loaded) != len(shards) {
		t.Fatalf("loaded %d shards at version %d", len(loaded), lm.FormatVersion)
	}
	// An eager load owns the bytes its views alias: not mapped, so the
	// block takes writes.
	for i := range loaded {
		if loaded[i].Block.Mapped() {
			t.Fatalf("v3 eager load shard %d is a read-only mapped view", i)
		}
	}
	want := queryAll(t, shards)
	got := queryAll(t, loaded)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("shard %d answers differ through v3 round trip: %s vs %s", i, got[i], want[i])
		}
	}
}

func TestOpenLazy(t *testing.T) {
	dir, shards, m := saveFixture(t)
	lm, lazy, err := snapshot.OpenLazy(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lm.FormatVersion != snapshot.FormatVersionV3 || len(lazy) != len(shards) {
		t.Fatalf("lazy open: %d shards at version %d", len(lazy), lm.FormatVersion)
	}
	for i, ls := range lazy {
		if ls.Cell != shards[i].Cell {
			t.Fatalf("lazy shard %d cell %v, want %v", i, ls.Cell, shards[i].Cell)
		}
		if ls.Info.NumCells != shards[i].Block.NumCells() || ls.Info.Rows != shards[i].Block.NumTuples() {
			t.Fatalf("lazy shard %d metadata: %d cells / %d rows, want %d / %d",
				i, ls.Info.NumCells, ls.Info.Rows, shards[i].Block.NumCells(), shards[i].Block.NumTuples())
		}
		if ls.Bytes != m.Shards[i].Bytes {
			t.Fatalf("lazy shard %d is %d bytes, manifest says %d", i, ls.Bytes, m.Shards[i].Bytes)
		}
	}
}

func TestOpenLazyRejectsV2(t *testing.T) {
	_, _, err := snapshot.OpenLazy(copyV2Fixture(t))
	if !errors.Is(err, snapshot.ErrEagerOnly) {
		t.Fatalf("lazy open of a v2 snapshot: got %v, want ErrEagerOnly", err)
	}
}

func TestClone(t *testing.T) {
	dir, shards, m := saveFixture(t)
	dst := filepath.Join(t.TempDir(), "copy")
	cm, err := snapshot.Clone(dir, dst)
	if err != nil {
		t.Fatal(err)
	}
	if cm.FormatVersion != m.FormatVersion || len(cm.Shards) != len(m.Shards) {
		t.Fatalf("clone manifest mismatch: %+v", cm)
	}
	_, loaded, err := snapshot.Load(dst)
	if err != nil {
		t.Fatalf("clone does not load: %v", err)
	}
	want := queryAll(t, shards)
	got := queryAll(t, loaded)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("shard %d answers differ through clone: %s vs %s", i, got[i], want[i])
		}
	}

	// Cloning onto itself is a durable no-op.
	if _, err := snapshot.Clone(dir, dir); err != nil {
		t.Fatalf("self-clone: %v", err)
	}
	if _, _, err := snapshot.Load(dir); err != nil {
		t.Fatalf("source damaged by self-clone: %v", err)
	}

	// Clone respects the foreign-directory guard.
	foreign := filepath.Join(t.TempDir(), "precious")
	if err := os.MkdirAll(foreign, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(foreign, "keep.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Clone(dir, foreign); err == nil {
		t.Fatal("Clone replaced a non-snapshot directory")
	}
}

// TestV3LoadCorruption extends the corruption table to v3 artifacts. The
// eager checks (manifest, header, section table, meta) must fail both
// Load and OpenLazy; data-region corruption must pass OpenLazy (the lazy
// path does not read data pages) and fail at materialization — here via
// eager Load, and at query time in the store's fault-time test.
func TestV3LoadCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		wantErr error
		// lazyOpens marks corruption OpenLazy must NOT detect (it lives
		// in the lazily-checksummed data region).
		lazyOpens bool
	}{
		{"shard truncated inside section table", func(t *testing.T, dir string) {
			patchFile(t, filepath.Join(dir, "shard-00000.gb3"), func(b []byte) []byte { return b[:130] })
		}, snapshot.ErrCorrupt, false},
		{"shard header magic flipped", func(t *testing.T, dir string) {
			patchFile(t, filepath.Join(dir, "shard-00000.gb3"), func(b []byte) []byte {
				b[0] ^= 0xff
				return b
			})
		}, snapshot.ErrCorrupt, false},
		{"shard version bumped", func(t *testing.T, dir string) {
			patchFile(t, filepath.Join(dir, "shard-00000.gb3"), func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[4:], 9)
				return b
			})
		}, snapshot.ErrVersion, false},
		{"section offset misaligned", func(t *testing.T, dir string) {
			patchFile(t, filepath.Join(dir, "shard-00000.gb3"), func(b []byte) []byte {
				// Knock the first section table entry off its 8-byte
				// alignment, then recompute the table CRC so the
				// structural alignment check has to catch it.
				off := binary.LittleEndian.Uint64(b[128:])
				binary.LittleEndian.PutUint64(b[128:], off+4)
				return refreshV3TableCRC(b)
			})
		}, snapshot.ErrCorrupt, false},
		{"table CRC bit flip", func(t *testing.T, dir string) {
			patchFile(t, filepath.Join(dir, "shard-00000.gb3"), func(b []byte) []byte {
				b[120] ^= 0x01
				return b
			})
		}, snapshot.ErrCorrupt, false},
		{"manifest crc falsified", func(t *testing.T, dir string) {
			rewriteManifest(t, dir, func(m *map[string]any) {
				sh := firstShard(*m)
				sh["crc32c"] = float64(uint32(sh["crc32c"].(float64)) ^ 1)
			})
		}, snapshot.ErrCorrupt, false},
		{"data region bit flip", func(t *testing.T, dir string) {
			patchFile(t, filepath.Join(dir, "shard-00000.gb3"), func(b []byte) []byte {
				dataOff := binary.LittleEndian.Uint64(b[96:])
				b[dataOff+9] ^= 0x10
				return b
			})
		}, snapshot.ErrCorrupt, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, _, _ := saveFixture(t)
			tc.corrupt(t, dir)

			_, shards, err := snapshot.Load(dir)
			if err == nil || !errors.Is(err, tc.wantErr) {
				t.Fatalf("eager load: error %v, want %v", err, tc.wantErr)
			}
			if shards != nil {
				t.Fatal("corrupt load returned shards")
			}

			_, lazy, lerr := snapshot.OpenLazy(dir)
			if tc.lazyOpens {
				if lerr != nil {
					t.Fatalf("lazy open must defer data-region checks, got %v", lerr)
				}
				if len(lazy) == 0 {
					t.Fatal("lazy open returned no shards")
				}
			} else if lerr == nil || !errors.Is(lerr, tc.wantErr) {
				t.Fatalf("lazy open: error %v, want %v", lerr, tc.wantErr)
			}
		})
	}
}

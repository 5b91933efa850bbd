package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"geoblocks"
	"geoblocks/internal/geom"
	"geoblocks/internal/snapshot"
)

// randomPolys generates the randomized query mix used by the
// save→restore equivalence suite.
func randomPolys(n int, seed int64) []*geom.Polygon {
	rng := rand.New(rand.NewSource(seed))
	polys := make([]*geom.Polygon, 0, n)
	for i := 0; i < n; i++ {
		c := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		r := 1 + rng.Float64()*30
		polys = append(polys, geoblocks.RegularPolygon(c, r, 3+rng.Intn(8)))
	}
	return polys
}

// TestSnapshotRestoreEquivalence is the randomized durability suite: a
// dataset snapshotted and restored must answer every query bit-identically
// for COUNT/MIN/MAX (and exactly here for SUM/AVG, integer column) to the
// pre-snapshot dataset, across shard levels. A dataset built with an
// AggregateTrie restores without one and still answers identically to
// its warm original.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	const rows = 20_000
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"unsharded", Options{Level: 12}},
		{"sharded-l1", Options{Level: 12, ShardLevel: 1}},
		{"sharded-l2", Options{Level: 12, ShardLevel: 2}},
		{"sharded-l2-cached", Options{Level: 12, ShardLevel: 2, CacheThreshold: 0.2, CacheAutoRefresh: 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := buildDataset(t, "orig", rows, 11, tc.opts)
			dir := filepath.Join(t.TempDir(), "orig")
			m, err := d.Snapshot(dir)
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			if len(m.Shards) != d.NumShards() {
				t.Fatalf("manifest has %d shards, dataset %d", len(m.Shards), d.NumShards())
			}

			st := New()
			rd, err := st.Restore(dir)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if got, ok := st.Get("orig"); !ok || got != rd {
				t.Fatal("restored dataset not registered under manifest name")
			}
			if rd.NumShards() != d.NumShards() || rd.Level() != d.Level() || rd.ShardLevel() != d.ShardLevel() {
				t.Fatalf("restored shape %d/%d/%d, want %d/%d/%d",
					rd.NumShards(), rd.Level(), rd.ShardLevel(), d.NumShards(), d.Level(), d.ShardLevel())
			}
			if rd.Stats().CacheEnabled {
				t.Fatal("restore attached an AggregateTrie")
			}

			polys := randomPolys(60, 23)
			for i, poly := range polys {
				want, err := d.Query(poly, testReqs...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rd.Query(poly, testReqs...)
				if err != nil {
					t.Fatal(err)
				}
				assertEquivalent(t, got, want, tc.name)
				if t.Failed() {
					t.Fatalf("first divergence at poly %d", i)
				}
			}
			// Batch path, and for the cached variant a second pass so the
			// original's warmed cache also answers identically.
			wantBatch, err := d.QueryBatch(polys, testReqs...)
			if err != nil {
				t.Fatal(err)
			}
			gotBatch, err := rd.QueryBatch(polys, testReqs...)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantBatch {
				assertEquivalent(t, gotBatch[i], wantBatch[i], tc.name+" batch")
			}
			if tc.opts.CacheThreshold > 0 {
				d.RefreshCaches()
				for _, poly := range polys {
					want, err := d.Query(poly, testReqs...)
					if err != nil {
						t.Fatal(err)
					}
					got, err := rd.Query(poly, testReqs...)
					if err != nil {
						t.Fatal(err)
					}
					assertEquivalent(t, got, want, tc.name+" cached")
				}
			}
		})
	}
}

// TestRestoreIgnoresCacheConfig restores a snapshot whose manifest
// records an AggregateTrie configuration, eagerly and mapped: the keys
// are read and ignored, so the dataset carries no trie, probes nothing
// and answers exactly as a twin that never had one.
func TestRestoreIgnoresCacheConfig(t *testing.T) {
	const rows = 20_000
	opts := Options{Level: 12, ShardLevel: 2, PyramidLevels: 2}
	twin := buildDataset(t, "twin", rows, 31, opts)
	opts.CacheThreshold, opts.CacheAutoRefresh = 0.25, 50
	d := buildDataset(t, "trie", rows, 31, opts)
	dir := filepath.Join(t.TempDir(), "trie")
	if _, err := d.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	m, _, err := snapshot.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheThreshold != 0.25 || m.CacheAutoRefresh != 50 {
		t.Fatalf("manifest records cache %v/%d, want 0.25/50", m.CacheThreshold, m.CacheAutoRefresh)
	}

	eager, err := Open(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Mapped() {
		t.Fatal("OpenMapped fell back to an eager restore")
	}
	polys := randomPolys(40, 37)
	for _, rd := range []*Dataset{eager, mapped} {
		label := "eager"
		if rd.Mapped() {
			label = "mapped"
		}
		for pass := 0; pass < 2; pass++ {
			for _, poly := range polys {
				want, err := twin.Query(poly, testReqs...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rd.Query(poly, testReqs...)
				if err != nil {
					t.Fatal(err)
				}
				assertEquivalent(t, got, want, label)
			}
			rd.RefreshCaches()
		}
		st := rd.Stats()
		if st.CacheEnabled || st.CacheBytes != 0 || st.Cache.Probes != 0 {
			t.Fatalf("%s restore has a trie: enabled %v, %d bytes, %d probes",
				label, st.CacheEnabled, st.CacheBytes, st.Cache.Probes)
		}
	}
}

func TestRestoreNameConflictLeavesStoreUnchanged(t *testing.T) {
	d := buildDataset(t, "taken", 2_000, 3, Options{Level: 10, ShardLevel: 1})
	dir := filepath.Join(t.TempDir(), "taken")
	if _, err := d.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	st := New()
	if err := st.Add(d); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restore(dir); err == nil {
		t.Fatal("restore over a taken name succeeded")
	}
	if got, _ := st.Get("taken"); got != d {
		t.Fatal("original dataset displaced")
	}
	if len(st.Names()) != 1 {
		t.Fatalf("registry grew: %v", st.Names())
	}
}

func TestRestoreCorruptNeverRegisters(t *testing.T) {
	d := buildDataset(t, "c", 2_000, 5, Options{Level: 10, ShardLevel: 1})
	dir := filepath.Join(t.TempDir(), "c")
	if _, err := d.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in one shard: the whole restore must fail and
	// register nothing.
	path := filepath.Join(dir, "shard-00000.gb3")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := New()
	if _, err := st.Restore(dir); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("restore error %v, want snapshot.ErrCorrupt", err)
	}
	if names := st.Names(); len(names) != 0 {
		t.Fatalf("corrupt restore registered %v", names)
	}
}

// TestOpenRename restores under an overriding name, the hook the HTTP
// create-from-snapshot path uses.
func TestOpenRename(t *testing.T) {
	d := buildDataset(t, "orig", 2_000, 9, Options{Level: 10, ShardLevel: 1})
	dir := filepath.Join(t.TempDir(), "orig")
	if _, err := d.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	rd, err := Open(dir, "renamed")
	if err != nil {
		t.Fatal(err)
	}
	if rd.Name() != "renamed" {
		t.Fatalf("name = %q, want renamed", rd.Name())
	}
}

// TestSnapshotEmptyDataset covers the one-empty-shard corner: a dataset
// built from zero rows still snapshots and restores.
func TestSnapshotEmptyDataset(t *testing.T) {
	d, err := Build("empty", testBound, geoblocks.NewSchema("v"), nil, [][]float64{nil}, Options{Level: 8, ShardLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "empty")
	if _, err := d.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	rd, err := Open(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := rd.QueryRect(testBound, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("empty restore count = %d", res.Count)
	}
}

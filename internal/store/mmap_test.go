package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"geoblocks"
	"geoblocks/internal/core"
	"geoblocks/internal/geom"
	"geoblocks/internal/snapshot"
)

// saveV3Dataset builds a sharded dataset and snapshots it (format v3).
func saveV3Dataset(t *testing.T, rows int, opts Options) (*Dataset, string) {
	t.Helper()
	d := buildDataset(t, "mapped", rows, 11, opts)
	dir := filepath.Join(t.TempDir(), "mapped")
	if _, err := d.Snapshot(dir); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return d, dir
}

var mappedOpts = Options{Level: 12, ShardLevel: 2, PyramidLevels: 3, CacheThreshold: 0.2}

// TestMappedEquivalence: a dataset served in place from a mapped v3
// snapshot must answer every query — exact and error-bounded, single and
// batch — identically to the in-memory dataset it was snapshotted from.
func TestMappedEquivalence(t *testing.T) {
	d, dir := saveV3Dataset(t, 20_000, mappedOpts)
	md, err := OpenMapped(dir, "", nil)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	if !md.Mapped() {
		t.Fatal("OpenMapped of a v3 snapshot must yield a mapped dataset")
	}
	if md.NumShards() != d.NumShards() {
		t.Fatalf("mapped dataset has %d shards, want %d", md.NumShards(), d.NumShards())
	}

	polys := randomPolys(60, 29)
	for _, maxErr := range []float64{0, 0.5, 2, 10} {
		opts := geoblocks.QueryOptions{MaxError: maxErr}
		for i, poly := range polys {
			want, err := d.QueryOpts(poly, opts, testReqs...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := md.QueryOpts(poly, opts, testReqs...)
			if err != nil {
				t.Fatalf("mapped query %d (maxErr=%v): %v", i, maxErr, err)
			}
			assertEquivalent(t, got, want, "mapped query")
			if got.Level != want.Level || got.ErrorBound != want.ErrorBound {
				t.Fatalf("mapped plan diverges: level %d bound %v, want %d / %v",
					got.Level, got.ErrorBound, want.Level, want.ErrorBound)
			}
		}
	}

	wantBatch, err := d.QueryBatch(polys, testReqs...)
	if err != nil {
		t.Fatal(err)
	}
	gotBatch, err := md.QueryBatch(polys, testReqs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantBatch {
		assertEquivalent(t, gotBatch[i], wantBatch[i], "mapped batch")
	}

	for _, maxErr := range []float64{0, 2} {
		opts := geoblocks.QueryOptions{MaxError: maxErr}
		wantJoin, _, err := d.Join(polys, opts, testReqs...)
		if err != nil {
			t.Fatal(err)
		}
		gotJoin, _, err := md.Join(polys, opts, testReqs...)
		if err != nil {
			t.Fatalf("mapped join (maxErr=%v): %v", maxErr, err)
		}
		for i := range wantJoin {
			assertEquivalent(t, gotJoin[i], wantJoin[i], "mapped join")
		}
	}

	st := md.Stats()
	if !st.Mapped || st.MappedBytes <= 0 {
		t.Fatalf("mapped stats: mapped=%v mapped_bytes=%d", st.Mapped, st.MappedBytes)
	}
	if st.ResidentShards == 0 || st.ResidentBytes <= 0 {
		t.Fatalf("after queries some shards must be resident: %d shards / %d bytes",
			st.ResidentShards, st.ResidentBytes)
	}
	if st.Tuples != d.Stats().Tuples || st.Cells != d.Stats().Cells {
		t.Fatalf("mapped structural stats diverge: %d tuples / %d cells, want %d / %d",
			st.Tuples, st.Cells, d.Stats().Tuples, d.Stats().Cells)
	}
}

// TestMappedPlanLevelPinned pins the mapped dataset's block-free
// PlanLevel arithmetic to the eager implementation (GeoBlock.LevelFor)
// across the maxError range.
func TestMappedPlanLevelPinned(t *testing.T) {
	_, dir := saveV3Dataset(t, 8000, mappedOpts)
	eager, err := Open(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxErr := range []float64{0, 1e-9, 0.01, 0.05, 0.1, 0.3, 0.5, 1, 2, 5, 10, 50, 1000} {
		if got, want := mapped.PlanLevel(maxErr), eager.PlanLevel(maxErr); got != want {
			t.Fatalf("PlanLevel(%v) = %d mapped, %d eager", maxErr, got, want)
		}
	}
}

// TestMappedUpdateRejected: mapped datasets are read-only.
func TestMappedUpdateRejected(t *testing.T) {
	_, dir := saveV3Dataset(t, 4000, mappedOpts)
	md, err := OpenMapped(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := &geoblocks.UpdateBatch{
		Points: []geom.Point{geom.Pt(50, 50)},
		Cols:   [][]float64{{1}, {2}},
	}
	if err := md.Update(batch); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("Update on mapped dataset: %v, want ErrReadOnly", err)
	}
}

// TestMappedEviction drives a mapped dataset through a residency budget
// far below its footprint with concurrent queries: every answer must
// stay correct through fault→evict→re-fault cycles, the manager must
// record evictions, and the resident total must stay within the budget
// whenever no query holds a pin. Run under -race in CI, this is the
// eviction path's race suite.
func TestMappedEviction(t *testing.T) {
	d, dir := saveV3Dataset(t, 20_000, Options{Level: 12, ShardLevel: 2, PyramidLevels: 2})
	st := New()
	// Budget roughly one shard: every multi-shard round trip must evict.
	var total int64
	m, _, err := snapshot.OpenLazy(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Shards {
		total += e.Bytes
	}
	budget := total / int64(len(m.Shards))
	st.EnableMmap(budget)
	md, err := st.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !md.Mapped() {
		t.Fatal("Restore with EnableMmap must map v3 snapshots")
	}

	polys := randomPolys(40, 31)
	want := make([]geoblocks.Result, len(polys))
	for i, p := range polys {
		if want[i], err = d.Query(p, testReqs...); err != nil {
			t.Fatal(err)
		}
	}

	// multiCall records one batch or join a worker ran: the polygon
	// indices it asked for and the answers it got.
	type multiCall struct {
		idx   []int
		res   []geoblocks.Result
		label string
	}
	calls := make([][]multiCall, 8)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 50; n++ {
				i := rng.Intn(len(polys))
				got, err := md.Query(polys[i], testReqs...)
				if err != nil {
					errc <- err
					return
				}
				if got.Count != want[i].Count {
					t.Errorf("query %d under eviction: count %d, want %d", i, got.Count, want[i].Count)
					return
				}
			}
			// Batches and joins over random subsets pin several shards at
			// once under the one-shard budget; their answers are checked
			// against the eager twin once every worker is done.
			for n := 0; n < 10; n++ {
				idx := rng.Perm(len(polys))[:1+rng.Intn(12)]
				sub := make([]*geom.Polygon, len(idx))
				for k, i := range idx {
					sub[k] = polys[i]
				}
				c := multiCall{idx: idx, label: "batch under eviction"}
				var err error
				if n%2 == 0 {
					c.res, err = md.QueryBatch(sub, testReqs...)
				} else {
					c.label = "join under eviction"
					c.res, _, err = md.Join(sub, geoblocks.QueryOptions{}, testReqs...)
				}
				if err != nil {
					errc <- err
					return
				}
				calls[seed] = append(calls[seed], c)
			}
		}(int64(w))
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("query under eviction: %v", err)
	default:
	}
	for _, cs := range calls {
		for _, c := range cs {
			if len(c.res) != len(c.idx) {
				t.Fatalf("%s: %d results for %d polygons", c.label, len(c.res), len(c.idx))
			}
			for k, i := range c.idx {
				assertEquivalent(t, c.res[k], want[i], c.label)
			}
		}
	}

	rs := st.Residency().Stats()
	if rs.Faults == 0 || rs.Evictions == 0 {
		t.Fatalf("eviction never exercised: %+v", rs)
	}
	if rs.Faults <= uint64(md.NumShards()) {
		t.Fatalf("no re-faults after eviction: %d faults over %d shards", rs.Faults, md.NumShards())
	}
	// With all pins released, the manager must have enforced the budget
	// (a single shard may exceed it — the floor is one pinned shard).
	if rs.ResidentShards > 1 && rs.ResidentBytes > rs.BudgetBytes {
		t.Fatalf("resident %d bytes over budget %d with %d shards and no pins",
			rs.ResidentBytes, rs.BudgetBytes, rs.ResidentShards)
	}
	if rs.MappedBytes != total {
		t.Fatalf("mapped bytes %d, want on-disk total %d", rs.MappedBytes, total)
	}
}

// TestMappedFaultCorruption is the query-time leg of the corruption
// suite: data-region corruption passes the lazy open (its checksum is
// deferred) and must surface as a typed ErrCorrupt on the first query
// that faults the shard — never a crash or a wrong answer. Other shards
// keep serving.
func TestMappedFaultCorruption(t *testing.T) {
	d, dir := saveV3Dataset(t, 20_000, Options{Level: 12, ShardLevel: 1})
	if d.NumShards() < 2 {
		t.Fatalf("need >= 2 shards, got %d", d.NumShards())
	}
	// Flip one bit deep inside shard 0's data region.
	path := filepath.Join(dir, "shard-00000.gb3")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-9] ^= 0x04
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	md, err := OpenMapped(dir, "", nil)
	if err != nil {
		t.Fatalf("lazy open must defer data-region checks: %v", err)
	}

	// A full-extent query touches every shard, so it must hit the
	// corrupt one and fail typed.
	all := geoblocks.RegularPolygon(geom.Pt(50, 50), 70, 8)
	if _, err := md.Query(all, testReqs...); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("query faulting a corrupt shard: %v, want ErrCorrupt", err)
	}
	// Retried queries keep failing typed (the shard resets to cold), not
	// crashing or succeeding.
	if _, err := md.Query(all, testReqs...); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("retried query on corrupt shard: %v, want ErrCorrupt", err)
	}

	// A query routed only to healthy shards still answers — per-shard
	// fault isolation. Shard 0 owns the first quadrant-ish range, so
	// probe each remaining shard's region via its cell bound.
	healthy := 0
	for i := 1; i < md.NumShards(); i++ {
		r := md.dom.CellRect(md.shards[i].cell)
		c := geom.Pt((r.Min.X+r.Max.X)/2, (r.Min.Y+r.Max.Y)/2)
		got, err := md.QueryRect(geom.RectFromCenter(c, (r.Max.X-r.Min.X)/4, (r.Max.Y-r.Min.Y)/4), testReqs...)
		if err != nil {
			t.Fatalf("healthy shard %d: %v", i, err)
		}
		if got.Count > 0 {
			healthy++
		}
	}
	if healthy == 0 {
		t.Fatal("no healthy shard answered with rows")
	}

	// A join or batch whose polygons route to the corrupt shard and to
	// healthy ones fails typed as a whole — no partial results — and a
	// retry fails the same way. One routed only to healthy shards answers.
	var inHealthy []*geom.Polygon
	for i := 1; i < md.NumShards(); i++ {
		r := md.dom.CellRect(md.shards[i].cell)
		c := geom.Pt((r.Min.X+r.Max.X)/2, (r.Min.Y+r.Max.Y)/2)
		inHealthy = append(inHealthy, geoblocks.RegularPolygon(c, (r.Max.X-r.Min.X)/4, 6))
	}
	mixed := append(append([]*geom.Polygon(nil), inHealthy...), all)
	for try := 0; try < 2; try++ {
		res, _, err := md.Join(mixed, geoblocks.QueryOptions{}, testReqs...)
		if !errors.Is(err, snapshot.ErrCorrupt) || res != nil {
			t.Fatalf("join over the corrupt shard (try %d): %d results, err %v; want none and ErrCorrupt", try, len(res), err)
		}
		res, err = md.QueryBatch(mixed, testReqs...)
		if !errors.Is(err, snapshot.ErrCorrupt) || res != nil {
			t.Fatalf("batch over the corrupt shard (try %d): %d results, err %v; want none and ErrCorrupt", try, len(res), err)
		}
	}
	got, _, err := md.Join(inHealthy, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("join over healthy shards: %v", err)
	}
	for i, p := range inHealthy {
		want, err := d.Query(p, testReqs...)
		if err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, got[i], want, "join over healthy shards")
	}
}

// TestMappedSnapshotClone: snapshotting a mapped dataset clones its
// backing directory without faulting shards in; the clone restores
// eagerly to an equivalent dataset. Snapshotting onto the backing
// directory itself is a durable no-op.
func TestMappedSnapshotClone(t *testing.T) {
	d, dir := saveV3Dataset(t, 8000, mappedOpts)
	md, err := OpenMapped(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "clone")
	if _, err := md.Snapshot(dst); err != nil {
		t.Fatalf("Snapshot of mapped dataset: %v", err)
	}
	if rs := md.residency.Stats(); rs.Faults != 0 {
		t.Fatalf("snapshotting a mapped dataset faulted %d shards in", rs.Faults)
	}
	rd, err := Open(dst, "")
	if err != nil {
		t.Fatalf("restoring clone: %v", err)
	}
	for i, p := range randomPolys(20, 37) {
		want, err := d.Query(p, testReqs...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rd.Query(p, testReqs...)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count {
			t.Fatalf("clone query %d: count %d, want %d", i, got.Count, want.Count)
		}
	}
	// Self-snapshot: mapped dataset snapshotting onto its own backing
	// directory must not destroy it.
	if _, err := md.Snapshot(dir); err != nil {
		t.Fatalf("self-snapshot: %v", err)
	}
	if _, _, err := snapshot.OpenLazy(dir); err != nil {
		t.Fatalf("backing dir damaged by self-snapshot: %v", err)
	}
}

// TestRestoreMappedFallbackV2: a store with mmap serving enabled still
// restores version-1 snapshots — eagerly, transparently. The snapshot is
// a copy of the legacy fixture an earlier build wrote (nothing writes
// version 1 any more).
func TestRestoreMappedFallbackV2(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "demo")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("..", "snapshot", "testdata", "v2demo"))); err != nil {
		t.Fatal(err)
	}
	st := New()
	st.EnableMmap(0)
	rd, err := st.Restore(dir)
	if err != nil {
		t.Fatalf("Restore(v2) with mmap enabled: %v", err)
	}
	if rd.Mapped() {
		t.Fatal("v2 snapshot cannot be mapped")
	}
	got, err := rd.QueryRect(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(4, 4)}, geoblocks.Count())
	if err != nil || got.Count != 3 {
		t.Fatalf("fallback dataset does not serve: count=%d err=%v, want 3", got.Count, err)
	}
}

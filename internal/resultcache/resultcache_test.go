package resultcache

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"geoblocks/internal/cellid"
	"geoblocks/internal/core"
	"geoblocks/internal/geom"
)

func testKey(i int) Key {
	return Key{Geom: uint64(i)*0x9e3779b97f4a7c15 + 7, Level: 14, Bucket: 0, Aggs: "count"}
}

func testCells(i, n int) []cellid.ID {
	cells := make([]cellid.ID, n)
	for j := range cells {
		cells[j] = cellid.ID(i*1000 + j)
	}
	return cells
}

func testResult(i int) core.Result {
	return core.Result{Count: uint64(100 + i), Values: []float64{float64(i) * 1.5}, CellsVisited: 7, Level: 14}
}

// mustCache builds a cache with admit-on-first-miss unless minHits says
// otherwise.
func mustCache(t *testing.T, maxBytes int64, minHits int) *Cache {
	t.Helper()
	c, err := New(Config{Dataset: "taxi", MaxBytes: maxBytes, MinHits: minHits})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{MaxBytes: 0}); err == nil {
		t.Fatal("want error for zero byte budget")
	}
	if _, err := New(Config{MaxBytes: -1}); err == nil {
		t.Fatal("want error for negative byte budget")
	}
	if _, err := New(Config{MaxBytes: 1 << 20, MinHits: -1}); err == nil {
		t.Fatal("want error for negative min hits")
	}
}

func TestMissStoreHit(t *testing.T) {
	c := mustCache(t, 1<<20, 0)
	k := testKey(1)
	gen := c.Generation()

	if _, _, _, out := c.Lookup(k, gen); out != Miss {
		t.Fatalf("cold lookup: got %v, want Miss", out)
	}
	c.Store(k, testCells(1, 8), 0.25, testResult(1), gen)

	res, cells, bound, out := c.Lookup(k, gen)
	if out != Hit {
		t.Fatalf("after store: got %v, want Hit", out)
	}
	if cells != nil || bound != 0 {
		t.Fatalf("hit must not return covering data, got %d cells, bound %v", len(cells), bound)
	}
	want := testResult(1)
	if res.Count != want.Count || len(res.Values) != 1 || res.Values[0] != want.Values[0] || res.CellsVisited != want.CellsVisited {
		t.Fatalf("hit result %+v != stored %+v", res, want)
	}

	// The served result is a private copy: mutating it must not corrupt
	// the cache.
	res.Values[0] = -999
	res2, _, _, _ := c.Lookup(k, gen)
	if res2.Values[0] != want.Values[0] {
		t.Fatal("cached values were corrupted through a served result")
	}

	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Admissions != 1 || s.Entries != 1 || s.Coverings != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.Bytes <= 0 || s.Bytes > s.MaxBytes {
		t.Fatalf("bytes %d out of range", s.Bytes)
	}
	if got := s.HitRatio(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit ratio %v, want 2/3", got)
	}
}

func TestMinHitsAdmissionFloor(t *testing.T) {
	c := mustCache(t, 1<<20, 2)
	k := testKey(2)
	gen := c.Generation()

	// First sighting: score 1 < 2, result rejected.
	c.Lookup(k, gen)
	c.Store(k, testCells(2, 4), 0, testResult(2), gen)
	if _, _, _, out := c.Lookup(k, gen); out != Miss {
		t.Fatalf("after cold store: got %v, want Miss (rejected)", out)
	}
	if s := c.Stats(); s.RejectedCold != 1 || s.Admissions != 0 {
		t.Fatalf("stats %+v", s)
	}

	// The second lookup above was the second sighting: score now clears
	// the floor.
	c.Store(k, testCells(2, 4), 0, testResult(2), gen)
	if _, _, _, out := c.Lookup(k, gen); out != Hit {
		t.Fatalf("after hot store: got %v, want Hit", out)
	}
}

func TestInvalidationServesNothingStaleAndKeepsCovering(t *testing.T) {
	c := mustCache(t, 1<<20, 0)
	k := testKey(3)
	cells := testCells(3, 16)
	gen := c.Generation()

	c.Lookup(k, gen)
	c.Store(k, cells, 0.125, testResult(3), gen)
	if _, _, _, out := c.Lookup(k, gen); out != Hit {
		t.Fatal("want Hit before invalidation")
	}

	c.Invalidate()
	newGen := c.Generation()
	if newGen != gen+1 {
		t.Fatalf("generation %d, want %d", newGen, gen+1)
	}

	// The stale result must not be served; the memoized covering must be.
	res, gotCells, bound, out := c.Lookup(k, newGen)
	if out != MissCovered {
		t.Fatalf("after invalidation: got %v, want MissCovered", out)
	}
	if res.Count != 0 {
		t.Fatal("stale result leaked through invalidation")
	}
	if len(gotCells) != len(cells) || gotCells[0] != cells[0] || bound != 0.125 {
		t.Fatalf("covering memo lost: %d cells, bound %v", len(gotCells), bound)
	}

	s := c.Stats()
	if s.StaleMisses != 1 || s.Invalidations != 1 || s.Entries != 0 || s.Coverings != 1 {
		t.Fatalf("stats %+v", s)
	}

	// Refresh at the new generation serves again.
	c.Store(k, cells, 0.125, testResult(30), newGen)
	res, _, _, out = c.Lookup(k, newGen)
	if out != Hit || res.Count != testResult(30).Count {
		t.Fatalf("refresh not served: %v %+v", out, res)
	}
	// And an old-generation reader never sees the new entry as current.
	if _, _, _, out := c.Lookup(k, gen); out != MissCovered {
		t.Fatalf("old-generation lookup: got %v, want MissCovered", out)
	}
}

func TestAdaptiveEvictionPrefersHotFootprints(t *testing.T) {
	// Budget fits roughly three footprints (covering record + entry each).
	perFootprint := recordOverhead + 8*4 + entryOverhead + 8 + int64(len("count"))
	c := mustCache(t, 3*perFootprint+32, 0)
	gen := c.Generation()

	// Three residents, each hit several times: genuinely hot.
	for i := 0; i < 3; i++ {
		k := testKey(10 + i)
		for j := 0; j < 5; j++ {
			c.Lookup(k, gen)
		}
		c.Store(k, testCells(10+i, 4), 0, testResult(10+i), gen)
	}
	if s := c.Stats(); s.Entries != 3 {
		t.Fatalf("want 3 residents, got %+v", s)
	}

	// A one-off footprint must not displace them.
	cold := testKey(99)
	c.Lookup(cold, gen)
	c.Store(cold, testCells(99, 4), 0, testResult(99), gen)
	s := c.Stats()
	if s.Entries != 3 || s.Evictions != 0 || s.RejectedColder != 1 {
		t.Fatalf("cold candidate displaced hot residents: %+v", s)
	}

	// A hotter-than-resident footprint does displace the LRU tail.
	hot := testKey(50)
	for j := 0; j < 20; j++ {
		c.Lookup(hot, gen)
	}
	c.Store(hot, testCells(50, 4), 0, testResult(50), gen)
	s = c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("hot candidate failed to displace: %+v", s)
	}
	if _, _, _, out := c.Lookup(hot, gen); out != Hit {
		t.Fatal("hot candidate not admitted")
	}
	// The LRU tail was footprint 10 (least recently touched resident).
	if _, _, _, out := c.Lookup(testKey(12), gen); out != Hit {
		t.Fatal("most recent resident should have survived")
	}
}

func TestBudgetNeverExceededUnderChurn(t *testing.T) {
	c := mustCache(t, 4096, 0)
	gen := c.Generation()
	for i := 0; i < 200; i++ {
		k := testKey(i)
		// Increasing hotness so later footprints keep displacing earlier
		// ones and eviction actually runs.
		for j := 0; j <= i/10; j++ {
			c.Lookup(k, gen)
		}
		c.Store(k, testCells(i, 8), 0, testResult(i), gen)
		if s := c.Stats(); s.Bytes > s.MaxBytes {
			t.Fatalf("budget exceeded at i=%d: %+v", i, s)
		}
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("churn produced no evictions: %+v", s)
	}
	if s.Entries == 0 {
		t.Fatalf("cache emptied out: %+v", s)
	}
}

func TestOversizedValueRejected(t *testing.T) {
	c := mustCache(t, 512, 0)
	gen := c.Generation()
	k := testKey(7)
	c.Lookup(k, gen)
	big := core.Result{Count: 1, Values: make([]float64, 4096)}
	c.Store(k, testCells(7, 4), 0, big, gen)
	if s := c.Stats(); s.Entries != 0 || s.RejectedCold != 1 {
		t.Fatalf("oversized entry not rejected: %+v", s)
	}
}

func TestSharedCoveringAcrossAggSpecs(t *testing.T) {
	c := mustCache(t, 1<<20, 0)
	gen := c.Generation()
	cells := testCells(4, 12)

	kCount := Key{Geom: 42, Level: 14, Bucket: 0, Aggs: "count"}
	kSum := Key{Geom: 42, Level: 14, Bucket: 0, Aggs: "sum(fare)"}

	c.Lookup(kCount, gen)
	c.Store(kCount, cells, 0.5, testResult(4), gen)

	// Same geometry, different aggregate spec: the covering memo is
	// shared, so the very first lookup already skips covering work.
	_, gotCells, bound, out := c.Lookup(kSum, gen)
	if out != MissCovered || len(gotCells) != len(cells) || bound != 0.5 {
		t.Fatalf("covering memo not shared: %v, %d cells", out, len(gotCells))
	}
	c.Store(kSum, cells, 0.5, testResult(44), gen)

	s := c.Stats()
	if s.Entries != 2 || s.Coverings != 1 {
		t.Fatalf("want 2 entries over 1 covering, got %+v", s)
	}
	r1, _, _, _ := c.Lookup(kCount, gen)
	r2, _, _, _ := c.Lookup(kSum, gen)
	if r1.Count == r2.Count {
		t.Fatal("agg specs conflated")
	}
}

func TestTopFootprints(t *testing.T) {
	c := mustCache(t, 1<<20, 0)
	gen := c.Generation()
	for i := 0; i < 5; i++ {
		k := testKey(20 + i)
		c.Lookup(k, gen)
		c.Store(k, testCells(20+i, 4), 0, testResult(20+i), gen)
		for j := 0; j <= i; j++ {
			c.Lookup(k, gen)
		}
	}
	top := c.TopFootprints(3)
	if len(top) != 3 {
		t.Fatalf("want 3 footprints, got %d", len(top))
	}
	if top[0].Hits != 5 || top[1].Hits != 4 || top[2].Hits != 3 {
		t.Fatalf("not sorted by hits: %+v", top)
	}
	for _, f := range top {
		if f.LastHitGeneration != gen {
			t.Fatalf("last-hit generation %d, want %d", f.LastHitGeneration, gen)
		}
		wantPrefix := "taxi|cov="
		if len(f.Footprint) < len(wantPrefix) || f.Footprint[:len(wantPrefix)] != wantPrefix {
			t.Fatalf("footprint %q lacks dataset prefix", f.Footprint)
		}
	}
	if got := c.TopFootprints(100); len(got) != 5 {
		t.Fatalf("unclamped top-K returned %d", len(got))
	}
}

func TestErrorBucket(t *testing.T) {
	if ErrorBucket(0) != ErrorBucket(-1) {
		t.Fatal("exact queries must share one bucket")
	}
	if ErrorBucket(0.3) != ErrorBucket(0.4) {
		t.Fatal("bounds within 2x should share a bucket")
	}
	if ErrorBucket(0.3) == ErrorBucket(1.2) {
		t.Fatal("4x-apart bounds should differ")
	}
	// No finite bound may collide with the exact bucket (0.5 has Frexp
	// exponent 0, 1e300 has ~997 — probe a wide sweep).
	for _, b := range []float64{1e-300, 0.25, 0.5, 1, 2, 1e300} {
		if ErrorBucket(b) == ErrorBucket(0) {
			t.Fatalf("bound %v collided with exact bucket", b)
		}
	}
}

func TestKeyDerivation(t *testing.T) {
	p1 := geom.RegularPolygon(geom.Pt(10, 10), 3, 6)
	p2 := geom.RegularPolygon(geom.Pt(10, 10), 3.0001, 6)
	r := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}

	k1 := PolygonKey(p1, 14, 0, "count")
	if k1 != PolygonKey(p1, 14, 0, "count") {
		t.Fatal("polygon key not deterministic")
	}
	if k1.Geom == PolygonKey(p2, 14, 0, "count").Geom {
		t.Fatal("distinct polygons collided")
	}
	if k1 == PolygonKey(p1, 13, 0, "count") {
		t.Fatal("levels conflated")
	}
	if k1 == PolygonKey(p1, 14, 0.5, "count") {
		t.Fatal("error buckets conflated")
	}
	if k1 == PolygonKey(p1, 14, 0, "sum(fare)") {
		t.Fatal("agg specs conflated")
	}

	// A polygon with a hole hashes apart from its outer ring alone.
	withHole := geom.RegularPolygon(geom.Pt(10, 10), 3, 6)
	hole := []geom.Point{geom.Pt(9.5, 9.5), geom.Pt(9.5, 10.5), geom.Pt(10.5, 10.5), geom.Pt(10.5, 9.5)}
	if err := withHole.AddHole(hole); err != nil {
		t.Fatalf("AddHole: %v", err)
	}
	if PolygonKey(withHole, 14, 0, "count").Geom == k1.Geom {
		t.Fatal("hole ignored by geometry hash")
	}

	// Two polygons whose vertex bytes, read ring after ring, agree once a
	// bare 0xb1 byte separates the rings: b's fourth outer vertex starts
	// with 0xb1, and a's hole starts with a vertex made of that vertex's
	// other 15 bytes followed by 0xb1. Ring lengths must tell them apart.
	lowByte := func(f float64, v byte) float64 {
		return math.Float64frombits(math.Float64bits(f)&^0xff | uint64(v))
	}
	v3 := geom.Pt(lowByte(30, 0xb1), lowByte(70, 0x40))
	var raw [17]byte
	binary.LittleEndian.PutUint64(raw[0:], math.Float64bits(v3.X))
	binary.LittleEndian.PutUint64(raw[8:], math.Float64bits(v3.Y))
	raw[16] = 0xb1
	w := geom.Pt(
		math.Float64frombits(binary.LittleEndian.Uint64(raw[1:])),
		math.Float64frombits(binary.LittleEndian.Uint64(raw[9:])),
	)
	inner := []geom.Point{geom.Pt(40, 40), geom.Pt(40, 60), geom.Pt(60, 60)}
	splitB := geom.NewPolygon([]geom.Point{geom.Pt(10, 10), geom.Pt(90, 10), geom.Pt(90, 90), v3})
	splitA := geom.NewPolygon([]geom.Point{geom.Pt(10, 10), geom.Pt(90, 10), geom.Pt(90, 90)})
	if err := splitB.AddHole(inner); err != nil {
		t.Fatalf("AddHole: %v", err)
	}
	if err := splitA.AddHole(append([]geom.Point{w}, inner...)); err != nil {
		t.Fatalf("AddHole: %v", err)
	}
	if PolygonKey(splitA, 14, 0, "count").Geom == PolygonKey(splitB, 14, 0, "count").Geom {
		t.Fatal("ring splits of one vertex sequence collided")
	}

	kr := RectKey(r, 14, 0, "count")
	if kr != RectKey(r, 14, 0, "count") {
		t.Fatal("rect key not deterministic")
	}
	if kr == RectKey(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 2)}, 14, 0, "count") {
		t.Fatal("distinct rects collided")
	}
}

func TestCoveringToken(t *testing.T) {
	a := testCells(1, 10)
	if coveringToken(a) != coveringToken(testCells(1, 10)) {
		t.Fatal("token not deterministic")
	}
	if coveringToken(a) == coveringToken(testCells(2, 10)) {
		t.Fatal("distinct coverings collided")
	}
	if coveringToken(a) == coveringToken(a[:9]) {
		t.Fatal("prefix covering collided")
	}
}

func TestHotnessTouchEstimateAge(t *testing.T) {
	h := newHotness()
	key := uint64(0xdeadbeef)
	for i := 1; i <= 6; i++ {
		if got := h.touch(key); got != uint32(i) {
			t.Fatalf("touch %d: got %d", i, got)
		}
	}
	if h.estimate(key) != 6 {
		t.Fatalf("estimate %d, want 6", h.estimate(key))
	}
	if h.estimate(0x1234) != 0 {
		t.Fatal("unknown key must score 0")
	}

	h.age()
	if h.estimate(key) != 3 {
		t.Fatalf("after aging: %d, want 3", h.estimate(key))
	}
	h.age()
	h.age()
	if h.estimate(key) != 0 {
		t.Fatalf("after decay to zero: %d", h.estimate(key))
	}
	if h.tracked() != 0 {
		t.Fatalf("zero-score keys not dropped: %d tracked", h.tracked())
	}
}

func TestHotnessShardCapDropsOverflow(t *testing.T) {
	h := newHotness()
	// Fill one stripe past its cap. Keys are crafted per-stripe by brute
	// force: touch until the stripe for each candidate matches stripe 0.
	// Residents are touched twice so the age-before-drop pass (which
	// halves counts) cannot clear them; the stripe genuinely stays full.
	target := &h.shards[0]
	inserted := 0
	var overflow uint64
	for k := uint64(1); ; k++ {
		if h.shardFor(k) != target {
			continue
		}
		if inserted == hotShardCap {
			overflow = k
			break
		}
		h.touch(k)
		h.touch(k)
		inserted++
	}
	if got := h.touch(overflow); got != 0 {
		t.Fatalf("overflow key scored %d, want 0 (dropped)", got)
	}
	if target.countsLen() > hotShardCap {
		t.Fatalf("stripe grew past cap: %d", target.countsLen())
	}
	if h.dropped.Load() == 0 {
		t.Fatal("overflow not counted as dropped")
	}
}

func (sh *hotShard) countsLen() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.counts)
}

func TestConcurrentCacheAccess(t *testing.T) {
	c := mustCache(t, 1<<20, 0)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				k := testKey(i % 37)
				gen := c.Generation()
				res, cells, bound, out := c.Lookup(k, gen)
				switch out {
				case Hit:
					_ = res.Count
				case Miss, MissCovered:
					_ = cells
					c.Store(k, testCells(i%37, 4), bound, testResult(i%37), gen)
				}
				if g == 0 && i%100 == 99 {
					c.Invalidate()
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	s := c.Stats()
	if s.Bytes > s.MaxBytes {
		t.Fatalf("budget exceeded: %+v", s)
	}
	if s.Invalidations != 5 {
		t.Fatalf("invalidations %d, want 5", s.Invalidations)
	}
	_ = fmt.Sprintf("%+v", s)
}

// assertLRUConsistent walks the shared LRU list and fails if any node no
// longer resolves to a live map object that points back at it, or if the
// list length disagrees with the maps — the invariant whose violation
// made eviction dereference nil under byte pressure.
func assertLRUConsistent(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if got, want := c.lru.Len(), len(c.entries)+len(c.index); got != want {
		t.Fatalf("LRU holds %d nodes for %d entries + %d coverings", got, len(c.entries), len(c.index))
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		n := el.Value.(*lruNode)
		if n.isEntry {
			e, ok := c.entries[n.ekey]
			if !ok || e.node != el {
				t.Fatalf("dangling entry LRU node for %+v (present=%v)", n.ekey, ok)
			}
		} else {
			rec, ok := c.index[n.ikey]
			if !ok || rec.node != el {
				t.Fatalf("dangling record LRU node for %+v (present=%v)", n.ikey, ok)
			}
		}
	}
}

// orphanEntry drives the cache into the orphaned-entry state: footprint
// k's covering record is evicted (a Hit put the entry ahead of its
// record in the LRU, so the record goes first under pressure) while its
// entry stays behind, unreachable until the covering is re-admitted.
// evictor must be sized so that evicting only the record makes room.
func orphanEntry(t *testing.T, c *Cache, k Key, cells []cellid.ID, res core.Result, evictor Key, evictorCells []cellid.ID, evictorRes core.Result) {
	t.Helper()
	gen := c.Generation()
	if _, _, _, out := c.Lookup(k, gen); out != Miss {
		t.Fatal("footprint unexpectedly warm")
	}
	c.Store(k, cells, 0, res, gen)
	if _, _, _, out := c.Lookup(k, gen); out != Hit {
		t.Fatal("footprint not admitted")
	}
	// Hotter evictor: its admission must displace k's record (LRU back)
	// but stop before k's entry.
	for i := 0; i < 3; i++ {
		c.Lookup(evictor, gen)
	}
	c.Store(evictor, evictorCells, 0, evictorRes, gen)
	s := c.Stats()
	if s.Evictions != 1 || s.Coverings != 1 || s.Entries != 2 {
		t.Fatalf("orphan setup did not evict exactly the covering record: %+v", s)
	}
	assertLRUConsistent(t, c)
}

// TestReadmitOverOrphanedEntry pins the regression where Store's
// new-admission path overwrote an orphaned entry at the same entryKey
// (same covering token, reached via a different query geometry) without
// unlinking the old entry's LRU node or reclaiming its bytes. The
// dangling node later made eviction dereference a nil *entry and panic
// in the query path.
func TestReadmitOverOrphanedEntry(t *testing.T) {
	const aggs = "c"
	kA := Key{Geom: 0x1111, Level: 14, Bucket: 0, Aggs: aggs}
	cellsA := testCells(1, 8)
	resA := core.Result{Count: 101, Values: []float64{1.5}}
	entryA := int64(entryOverhead + 8 + len(aggs))
	recA := int64(recordOverhead + 8*8)

	// The evictor carries a deliberately fat result so that dropping its
	// stale entry later frees enough room for a no-eviction re-admission.
	kB := Key{Geom: 0x3333, Level: 14, Bucket: 0, Aggs: aggs}
	cellsB := testCells(2, 8)
	resB := core.Result{Count: 500, Values: make([]float64, 100)}
	entryB := int64(entryOverhead + 8*100 + len(aggs))
	recB := int64(recordOverhead + 8*8)

	// Budget: storing B forces out exactly A's record
	// (A+B > budget >= A+B-recA), everything after fits eviction-free.
	budget := entryA + recA + entryB + recB - recA + 100
	c := mustCache(t, budget, 0)
	orphanEntry(t, c, kA, cellsA, resA, kB, cellsB, resB)
	gen0 := c.Generation()

	// Data moves on; B's fat entry goes stale and is reclaimed on read.
	c.Invalidate()
	gen1 := c.Generation()
	if _, cells, _, out := c.Lookup(kB, gen1); out != MissCovered || len(cells) != len(cellsB) {
		t.Fatalf("stale lookup: got %v with %d cells", out, len(cells))
	}

	// A different geometry normalizing to A's covering re-admits the same
	// covering token while A's orphaned entry still occupies its entryKey.
	// There is room now, so no eviction runs: the broken path silently
	// overwrote the orphan here.
	kA2 := Key{Geom: 0x2222, Level: 14, Bucket: 0, Aggs: aggs}
	if _, _, _, out := c.Lookup(kA2, gen1); out != Miss {
		t.Fatal("fresh geometry unexpectedly warm")
	}
	c.Store(kA2, cellsA, 0, resA, gen1)
	if _, _, _, out := c.Lookup(kA2, gen1); out != Hit {
		t.Fatal("re-admission over the orphaned entry failed")
	}
	assertLRUConsistent(t, c)
	if s := c.Stats(); s.Bytes != entryA+recA+recB {
		t.Fatalf("bytes %d after re-admission, want %d (orphan not reclaimed)", s.Bytes, entryA+recA+recB)
	}

	// Byte pressure from a much hotter footprint drains the whole cache:
	// with the orphan's node dangling this dereferenced nil and panicked.
	kC := Key{Geom: 0x4444, Level: 14, Bucket: 0, Aggs: aggs}
	cellsC := testCells(5, 130)
	for i := 0; i < 10; i++ {
		c.Lookup(kC, gen1)
	}
	c.Store(kC, cellsC, 0, core.Result{Count: 9, Values: []float64{9}}, gen1)
	if _, _, _, out := c.Lookup(kC, gen1); out != Hit {
		t.Fatal("hot footprint not admitted under full drain")
	}
	assertLRUConsistent(t, c)
	s := c.Stats()
	if s.Entries != 1 || s.Coverings != 1 {
		t.Fatalf("drain left residue: %+v", s)
	}
	if want := int64(recordOverhead + 8*130 + entryOverhead + 8 + len(aggs)); s.Bytes != want {
		t.Fatalf("bytes %d after drain, want %d", s.Bytes, want)
	}
	_ = gen0
}

// TestReadmitHotFootprintAfterRecordEviction pins the eviction-tie
// regression: a re-admitted hot footprint always ties with its own
// orphaned entry sitting at the LRU back (same footprint hash), so under
// byte pressure the hottest footprint could never come back — a
// permanent rejectedColder livelock. A victim carrying the candidate's
// own footprint hash is being replaced, not displaced, and must be
// evictable.
func TestReadmitHotFootprintAfterRecordEviction(t *testing.T) {
	const aggs = "c"
	kA := Key{Geom: 0xAAAA, Level: 14, Bucket: 0, Aggs: aggs}
	cellsA := testCells(1, 8)
	resA := core.Result{Count: 101, Values: []float64{1.5}}
	kB := Key{Geom: 0xBBBB, Level: 14, Bucket: 0, Aggs: aggs}

	// One footprint is entry+record; the budget holds one and a half.
	c := mustCache(t, 700, 0)
	orphanEntry(t, c, kA, cellsA, resA, kB, testCells(2, 8), core.Result{Count: 7, Values: []float64{7}})
	gen := c.Generation()

	// A keeps being asked for — the hottest footprint in the workload —
	// and must win re-admission over both its own orphan and colder B.
	for i := 0; i < 3; i++ {
		if _, _, _, out := c.Lookup(kA, gen); out != Miss {
			t.Fatalf("lookup %d: want Miss while covering is gone", i)
		}
	}
	c.Store(kA, cellsA, 0, resA, gen)
	if _, _, _, out := c.Lookup(kA, gen); out != Hit {
		t.Fatal("hot footprint wedged out by its own orphaned entry")
	}
	if s := c.Stats(); s.RejectedColder != 0 {
		t.Fatalf("re-admission counted as rejected-colder: %+v", s)
	}
	assertLRUConsistent(t, c)
}

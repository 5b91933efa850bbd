package resultcache

import (
	"container/list"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"geoblocks/internal/cellid"
	"geoblocks/internal/core"
	"geoblocks/internal/geom"
)

// DefaultMinHits is the admission floor applied when a cache is
// configured with MinHits 0 by a layer that wants "the default" rather
// than admit-on-first-miss (the daemon flag default). The engine itself
// treats MinHits 0 literally: every miss is admissible.
const DefaultMinHits = 2

// Config configures one dataset's result cache.
type Config struct {
	// Dataset is the owning dataset's name, the first component of every
	// canonical footprint (diagnostics and the top-K hotness report).
	Dataset string
	// MaxBytes is the byte budget over everything the cache retains:
	// result entries plus memoized coverings. Must be positive.
	MaxBytes int64
	// MinHits is the admission floor: a footprint must have been seen
	// this many times recently before its result is admitted. 0 admits on
	// first miss.
	MinHits int
}

// Key is the canonical identity of a query before its covering is known:
// the hash of the normalized query geometry plus the planned pyramid
// level, the MaxError bucket and the canonical aggregate spec. The
// serving layer derives it with PolygonKey / RectKey from exactly the
// inputs the router plans with.
type Key struct {
	Geom   uint64
	Level  int
	Bucket int
	Aggs   string
}

// hash folds the key into the 64-bit footprint-hotness key.
func (k Key) hash() uint64 {
	h := fnvOffset
	h = fnvMix64(h, k.Geom)
	h = fnvMix64(h, uint64(k.Level)<<32|uint64(uint32(k.Bucket)))
	for i := 0; i < len(k.Aggs); i++ {
		h = fnvMixByte(h, k.Aggs[i])
	}
	return h
}

// indexKey locates a memoized covering: coverings depend only on the
// query geometry and the grid level, so all aggregate specs and error
// buckets of one region share a single memo.
type indexKey struct {
	geom  uint64
	level int
}

// entryKey locates a cached result by its canonical footprint: the
// normalized covering token (128 bits — two independent hashes over the
// covering cells, making token collisions across distinct coverings
// negligible), the planned level, the MaxError bucket and the aggregate
// spec. Two query geometries that normalize to the same covering share
// one entry.
type entryKey struct {
	token  [2]uint64
	level  int
	bucket int
	aggs   string
}

// record is a memoized covering: the cells the router computed for a
// geometry at a level, plus the guaranteed error bound of that covering.
// Both are functions of geometry and level alone — independent of the
// data — so records survive generation bumps: after an invalidation a
// hot query re-aggregates but never re-covers.
type record struct {
	cells []cellid.ID
	bound float64
	token [2]uint64
	node  *list.Element
	bytes int64
	// hot is the footprint-hash whose admission brought the record in,
	// consulted when the record is an eviction victim.
	hot uint64
}

// entry is one cached result, tagged with the dataset generation it was
// computed at; reads verify the tag and never serve across a bump.
type entry struct {
	res   core.Result
	gen   uint64
	node  *list.Element
	bytes int64
	hot   uint64
	// hits counts how often the entry was served; lastHitGen is the
	// generation current at the most recent serve (the top-K report).
	hits       uint64
	lastHitGen uint64
}

// lruNode is what the shared LRU list stores: which map the victim lives
// in and under which key. Coverings and entries compete for the same
// byte budget, so one recency order spans both.
type lruNode struct {
	isEntry bool
	ikey    indexKey
	ekey    entryKey
}

// Outcome classifies a Lookup.
type Outcome int

const (
	// Miss: nothing usable is cached; the caller computes the covering
	// and the result, then offers both with Store.
	Miss Outcome = iota
	// MissCovered: no current result, but the covering is memoized; the
	// caller skips covering computation, re-aggregates over the returned
	// cells, and offers the result with Store.
	MissCovered
	// Hit: the returned result is current — serve it as is.
	Hit
)

// Cache is a hot-region adaptive result cache for one dataset's serving
// tier. It fronts the store's scatter-gather router: repeated queries
// over hot regions are answered from a canonical-footprint map instead
// of paying covering computation, per-shard fan-out and merge again.
//
// Admission is hotness-gated: a footprint must repeat (MinHits floor)
// before it is cached at all, and once the byte budget is full a
// candidate must additionally be recently hotter than the LRU victims it
// would displace — cold or one-off traffic can never wash out a hot
// working set. Invalidation is precise: entries carry the dataset
// generation they were computed at and are verified on every read, so a
// data mutation bumps one counter and never flushes anything eagerly.
//
// All methods are safe for concurrent use; the hot path takes one short
// mutex hold (map lookup + recency bump + result copy).
type Cache struct {
	dataset  string
	maxBytes int64
	minHits  int

	gen atomic.Uint64

	mu      sync.Mutex
	index   map[indexKey]*record
	entries map[entryKey]*entry
	lru     *list.List // front = most recent
	bytes   int64

	hot *hotness

	hits           atomic.Uint64
	misses         atomic.Uint64
	staleMisses    atomic.Uint64
	admissions     atomic.Uint64
	rejectedCold   atomic.Uint64
	rejectedColder atomic.Uint64
	evictions      atomic.Uint64
	invalidations  atomic.Uint64
	appendInvals   atomic.Uint64
	foldInvals     atomic.Uint64
}

// New creates a result cache. MaxBytes must be positive and MinHits
// non-negative.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxBytes <= 0 {
		return nil, fmt.Errorf("resultcache: byte budget must be positive, got %d", cfg.MaxBytes)
	}
	if cfg.MinHits < 0 {
		return nil, fmt.Errorf("resultcache: min hits must be >= 0, got %d", cfg.MinHits)
	}
	return &Cache{
		dataset:  cfg.Dataset,
		maxBytes: cfg.MaxBytes,
		minHits:  cfg.MinHits,
		index:    make(map[indexKey]*record),
		entries:  make(map[entryKey]*entry),
		lru:      list.New(),
		hot:      newHotness(),
	}, nil
}

// Generation returns the dataset generation reads are verified against.
func (c *Cache) Generation() uint64 { return c.gen.Load() }

// Invalidate bumps the dataset generation. Every cached result computed
// before the bump becomes unservable — verified lazily on read, never by
// walking or flushing the cache — while memoized coverings, which do not
// depend on the data, stay warm.
func (c *Cache) Invalidate() {
	c.gen.Add(1)
	c.invalidations.Add(1)
}

// InvalidateAppend is Invalidate for a delta append (streaming ingest):
// one generation bump per acknowledged batch, taken after the rows are
// visible to queries and before the ingest is acknowledged, so no cached
// answer computed without the batch can be served after its ack. The bump
// semantics are identical to Invalidate — memoized coverings survive, and
// entries are reclaimed lazily — only the accounting differs.
func (c *Cache) InvalidateAppend() {
	c.appendInvals.Add(1)
	c.Invalidate()
}

// InvalidateFold is Invalidate for a compaction fold: exactly one
// generation bump per fold, taken under the same write lock that swaps
// the folded blocks in. A fold moves rows from delta to base without
// changing any query answer, but the swap also replaces the per-shard
// aggtrie caches and pyramid levels, so cached results must be recomputed
// rather than replayed against re-associated sums.
func (c *Cache) InvalidateFold() {
	c.foldInvals.Add(1)
	c.Invalidate()
}

// Lookup resolves a query against the cache at the given generation
// (read once by the caller at the start of the query, under whatever
// synchronisation orders queries against data mutations). On Hit the
// returned Result is a private copy. On MissCovered the returned cells
// and bound replay the router's covering computation and must be treated
// as read-only; the entry that went stale, if any, is dropped and its
// bytes reclaimed immediately.
func (c *Cache) Lookup(k Key, gen uint64) (core.Result, []cellid.ID, float64, Outcome) {
	c.mu.Lock()
	rec, ok := c.index[indexKey{k.Geom, k.Level}]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		c.hot.touch(k.hash())
		return core.Result{}, nil, 0, Miss
	}
	c.lru.MoveToFront(rec.node)
	ekey := entryKey{rec.token, k.Level, k.Bucket, k.Aggs}
	e, ok := c.entries[ekey]
	if ok && e.gen == gen {
		c.lru.MoveToFront(e.node)
		e.hits++
		e.lastHitGen = gen
		res := e.res
		res.Values = append([]float64(nil), e.res.Values...)
		c.mu.Unlock()
		c.hits.Add(1)
		return res, nil, 0, Hit
	}
	if ok {
		// Stale: computed at an older generation. Reclaim it now rather
		// than letting a dead result age out of the LRU.
		c.removeEntryLocked(ekey, e)
		c.staleMisses.Add(1)
	}
	cells, bound := rec.cells, rec.bound
	c.mu.Unlock()
	c.misses.Add(1)
	c.hot.touch(k.hash())
	return core.Result{}, cells, bound, MissCovered
}

// Store offers a computed result (and the covering it was computed over)
// for caching. cells and bound must be exactly what the router executed:
// the covering at the key's planned level and its guaranteed error
// bound; gen must be the generation Lookup validated against. Admission
// is decided here: the footprint's recent hit score must clear the
// MinHits floor, and under byte pressure it must beat the recent score
// of every LRU victim it displaces. Re-admission of a footprint that is
// already cached (the refresh after an invalidation) skips the gate.
// The stored result keeps its own copy of everything.
func (c *Cache) Store(k Key, cells []cellid.ID, bound float64, res core.Result, gen uint64) {
	hk := k.hash()
	score := c.hot.estimate(hk)
	resBytes := entryOverhead + int64(8*len(res.Values)) + int64(len(k.Aggs))
	covBytes := recordOverhead + int64(8*len(cells))

	c.mu.Lock()
	defer c.mu.Unlock()

	rec, haveRec := c.index[indexKey{k.Geom, k.Level}]
	var ekey entryKey
	if haveRec {
		ekey = entryKey{rec.token, k.Level, k.Bucket, k.Aggs}
		if e, ok := c.entries[ekey]; ok {
			// Refresh in place (typically after an invalidation): the
			// entry earned admission already; keep its hit history.
			c.bytes += resBytes - e.bytes
			e.bytes = resBytes
			e.res = cloneResult(res)
			e.gen = gen
			c.lru.MoveToFront(e.node)
			c.evictToBudgetLocked(hk, score)
			return
		}
	}

	if c.minHits > 0 && score < uint32(c.minHits) {
		c.rejectedCold.Add(1)
		return
	}
	need := resBytes
	if !haveRec {
		need += covBytes
	}
	if need > c.maxBytes {
		c.rejectedCold.Add(1)
		return
	}
	if !c.makeRoomLocked(need, hk, score) {
		c.rejectedColder.Add(1)
		return
	}

	if !haveRec {
		rec = &record{
			cells: append([]cellid.ID(nil), cells...),
			bound: bound,
			token: coveringToken(cells),
			bytes: covBytes,
			hot:   hk,
		}
		rec.node = c.lru.PushFront(&lruNode{ikey: indexKey{k.Geom, k.Level}})
		c.index[indexKey{k.Geom, k.Level}] = rec
		c.bytes += covBytes
		ekey = entryKey{rec.token, k.Level, k.Bucket, k.Aggs}
	}
	if old, ok := c.entries[ekey]; ok {
		// An entry under this footprint already exists but was orphaned:
		// its covering record was evicted (a Hit moves the entry ahead of
		// its record in the LRU, so records go first), and the same
		// covering is now being re-admitted under a fresh record.
		// Overwriting the map slot without this removal would leak the old
		// entry's bytes and leave its LRU node dangling.
		c.removeEntryLocked(ekey, old)
	}
	e := &entry{
		res:   cloneResult(res),
		gen:   gen,
		bytes: resBytes,
		hot:   hk,
	}
	e.node = c.lru.PushFront(&lruNode{isEntry: true, ekey: ekey})
	c.entries[ekey] = e
	c.bytes += resBytes
	c.admissions.Add(1)
}

// makeRoomLocked evicts LRU victims until need bytes fit under the
// budget. The adaptive part of admission lives here: a victim is only
// evicted if the candidate's recent hit score beats the victim's — so
// when the budget is full of genuinely hot footprints, the effective
// admission threshold rises to whatever the coldest resident scores,
// and a flood of one-off queries cannot displace the working set. A
// victim carrying the candidate's own footprint hash is always
// evictable: it is being replaced by the same footprint, and scoring it
// against itself would tie forever and wedge re-admission. A false
// return leaves the cache unchanged (minus any victims already evicted,
// which were colder than the candidate anyway).
func (c *Cache) makeRoomLocked(need int64, hk uint64, score uint32) bool {
	for c.bytes+need > c.maxBytes {
		victim := c.lru.Back()
		if victim == nil {
			return false
		}
		n := victim.Value.(*lruNode)
		victimHot, live := uint64(0), false
		if n.isEntry {
			if e, ok := c.entries[n.ekey]; ok && e.node == victim {
				victimHot, live = e.hot, true
			}
		} else {
			if rec, ok := c.index[n.ikey]; ok && rec.node == victim {
				victimHot, live = rec.hot, true
			}
		}
		if !live {
			// Stale node: its map entry is gone or re-keyed to a newer
			// node. Nothing to reclaim — drop the node and keep scanning.
			c.lru.Remove(victim)
			continue
		}
		if victimHot != hk && c.hot.estimate(victimHot) >= score {
			return false
		}
		c.evictLocked(victim)
	}
	return true
}

// evictToBudgetLocked trims unconditionally colder-than-candidate
// victims after an in-place refresh grew an entry.
func (c *Cache) evictToBudgetLocked(hk uint64, score uint32) {
	c.makeRoomLocked(0, hk, score)
}

// evictLocked removes one LRU node and its backing map entry. The
// element itself is removed as well as the node recorded on the map
// value, so a victim never survives in the list under a missing or
// re-keyed map slot.
func (c *Cache) evictLocked(el *list.Element) {
	n := el.Value.(*lruNode)
	c.lru.Remove(el)
	if n.isEntry {
		if e, ok := c.entries[n.ekey]; ok {
			if e.node != el {
				c.lru.Remove(e.node)
			}
			delete(c.entries, n.ekey)
			c.bytes -= e.bytes
		}
	} else {
		if rec, ok := c.index[n.ikey]; ok {
			if rec.node != el {
				c.lru.Remove(rec.node)
			}
			delete(c.index, n.ikey)
			c.bytes -= rec.bytes
		}
	}
	c.evictions.Add(1)
}

// removeEntryLocked drops a stale entry without counting an eviction
// (the budget did not force it out; the data moved on).
func (c *Cache) removeEntryLocked(ekey entryKey, e *entry) {
	c.lru.Remove(e.node)
	delete(c.entries, ekey)
	c.bytes -= e.bytes
}

func cloneResult(res core.Result) core.Result {
	out := res
	out.Values = append([]float64(nil), res.Values...)
	return out
}

// Approximate fixed per-item overheads: struct, map bucket and LRU node
// costs. Exact accounting is not the point — the budget must bound real
// memory to the right order and be monotone in what is stored.
const (
	recordOverhead = 160
	entryOverhead  = 176
)

// Stats is a point-in-time snapshot of the cache's effectiveness
// counters, serialized into /v1/stats and /metrics by the HTTP layer.
type Stats struct {
	MaxBytes int64 `json:"max_bytes"`
	Bytes    int64 `json:"bytes"`
	// Entries counts cached results; Coverings counts memoized covering
	// records (data-independent, they survive invalidations).
	Entries   int `json:"entries"`
	Coverings int `json:"coverings"`
	// MinHits is the configured admission floor; under byte pressure the
	// effective threshold is higher (a candidate must also out-score the
	// LRU victims it would displace — RejectedColder counts those).
	MinHits    int    `json:"min_hits"`
	Generation uint64 `json:"generation"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	// StaleMisses are misses that found an entry from an older
	// generation (served fresh, entry reclaimed); they are included in
	// Misses.
	StaleMisses    uint64 `json:"stale_misses"`
	Admissions     uint64 `json:"admissions"`
	RejectedCold   uint64 `json:"rejected_cold"`
	RejectedColder uint64 `json:"rejected_colder"`
	Evictions      uint64 `json:"evictions"`
	Invalidations  uint64 `json:"invalidations"`
	// AppendInvalidations and FoldInvalidations break Invalidations down
	// by cause on the streaming write path: one per acknowledged ingest
	// batch, and exactly one per compaction fold. The remainder are
	// generic (Update/Drop/reconfigure) invalidations.
	AppendInvalidations uint64 `json:"append_invalidations"`
	FoldInvalidations   uint64 `json:"fold_invalidations"`
	// HotnessTracked / HotnessDropped describe the admission tracker:
	// footprints currently scored, and candidates discarded by its
	// capacity bound.
	HotnessTracked int    `json:"hotness_tracked"`
	HotnessDropped uint64 `json:"hotness_dropped"`
}

// HitRatio is hits / (hits + misses), 0 before any traffic.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the counters. Counter reads are individually atomic;
// the snapshot as a whole may be skewed by in-flight queries.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, coverings, bytes := len(c.entries), len(c.index), c.bytes
	c.mu.Unlock()
	return Stats{
		MaxBytes:            c.maxBytes,
		Bytes:               bytes,
		Entries:             entries,
		Coverings:           coverings,
		MinHits:             c.minHits,
		Generation:          c.gen.Load(),
		Hits:                c.hits.Load(),
		Misses:              c.misses.Load(),
		StaleMisses:         c.staleMisses.Load(),
		Admissions:          c.admissions.Load(),
		RejectedCold:        c.rejectedCold.Load(),
		RejectedColder:      c.rejectedColder.Load(),
		Evictions:           c.evictions.Load(),
		Invalidations:       c.invalidations.Load(),
		AppendInvalidations: c.appendInvals.Load(),
		FoldInvalidations:   c.foldInvals.Load(),
		HotnessTracked:      c.hot.tracked(),
		HotnessDropped:      c.hot.dropped.Load(),
	}
}

// FootprintStat describes one cached footprint for the top-K hotness
// report: what is hot, how often it was served, and at which generation
// it was last current.
type FootprintStat struct {
	// Footprint is the canonical footprint token:
	// dataset|cov=<token>|level=<L>|err=<bucket>|aggs=<spec>.
	Footprint         string `json:"footprint"`
	Hits              uint64 `json:"hits"`
	LastHitGeneration uint64 `json:"last_hit_generation"`
}

// TopFootprints returns the k most-served cached footprints, hottest
// first (ties broken by footprint token for a deterministic report).
func (c *Cache) TopFootprints(k int) []FootprintStat {
	c.mu.Lock()
	out := make([]FootprintStat, 0, len(c.entries))
	for ekey, e := range c.entries {
		out = append(out, FootprintStat{
			Footprint: fmt.Sprintf("%s|cov=%016x%016x|level=%d|err=%d|aggs=%s",
				c.dataset, ekey.token[0], ekey.token[1], ekey.level, ekey.bucket, ekey.aggs),
			Hits:              e.hits,
			LastHitGeneration: e.lastHitGen,
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].Footprint < out[j].Footprint
	})
	if k >= 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// ErrorBucket quantises a MaxError bound into the footprint key: a
// sentinel bucket for exact queries, otherwise the binary exponent of
// the bound. Queries whose bounds differ only within a factor of two
// share a bucket — they plan to the same pyramid level in all but edge
// cases, and the cached result's reported bound is the covering's own
// guarantee either way.
func ErrorBucket(maxError float64) int {
	if maxError <= 0 {
		return math.MinInt32 // exact: no finite bound shares this bucket
	}
	_, exp := math.Frexp(maxError)
	return exp
}

// PolygonKey derives the canonical query key of a polygon query: the
// FNV-1a hash of the polygon's normalized rings (orientation-normalised
// vertices, holes included, each ring prefixed by its vertex count so no
// two ring splits of one vertex sequence hash alike) plus the planned
// level, error bucket and canonical aggregate spec.
func PolygonKey(p *geom.Polygon, level int, maxError float64, aggs string) Key {
	h := fnvOffset
	h = mixRing(h, p.Outer())
	for _, hole := range p.Holes() {
		h = mixRing(h, hole)
	}
	return Key{Geom: h, Level: level, Bucket: ErrorBucket(maxError), Aggs: aggs}
}

// mixRing folds one ring into h: its vertex count, then its vertices.
func mixRing(h uint64, ring []geom.Point) uint64 {
	h = fnvMix64(h, uint64(len(ring)))
	for _, v := range ring {
		h = fnvMix64(h, math.Float64bits(v.X))
		h = fnvMix64(h, math.Float64bits(v.Y))
	}
	return h
}

// RectKey derives the canonical query key of a rectangle query. Rects
// hash under a distinct tag, so a rectangle and its equivalent polygon
// form cache independently (their coverings normalize to one shared
// entry regardless).
func RectKey(r geom.Rect, level int, maxError float64, aggs string) Key {
	h := fnvMixByte(fnvOffset, 0x52) // 'R': rects hash apart from polygons
	h = fnvMix64(h, math.Float64bits(r.Min.X))
	h = fnvMix64(h, math.Float64bits(r.Min.Y))
	h = fnvMix64(h, math.Float64bits(r.Max.X))
	h = fnvMix64(h, math.Float64bits(r.Max.Y))
	return Key{Geom: h, Level: level, Bucket: ErrorBucket(maxError), Aggs: aggs}
}

// coveringToken is the normalized covering token: two independent 64-bit
// FNV-1a hashes over the canonical (sorted, disjoint) covering cells.
// 128 bits make accidental collisions between distinct coverings
// negligible at any plausible footprint population.
func coveringToken(cells []cellid.ID) [2]uint64 {
	h1, h2 := uint64(fnvOffset), uint64(fnvOffset2)
	h1 = fnvMix64(h1, uint64(len(cells)))
	h2 = fnvMix64(h2, uint64(len(cells)))
	for _, c := range cells {
		h1 = fnvMix64(h1, uint64(c))
		h2 = fnvMix64(h2, uint64(c)*0x9e3779b97f4a7c15+1)
	}
	return [2]uint64{h1, h2}
}

// FNV-1a, mixed 8 bytes at a time for speed on cell slices.
const (
	fnvOffset  uint64 = 0xcbf29ce484222325
	fnvOffset2 uint64 = 0x84222325cbf29ce4
	fnvPrime   uint64 = 0x100000001b3
)

func fnvMixByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func fnvMix64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

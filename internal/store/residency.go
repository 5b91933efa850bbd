package store

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"geoblocks"
	"geoblocks/internal/core"
	"geoblocks/internal/mmapfile"
	"geoblocks/internal/snapshot"
)

// Residency is the store's resident-memory manager for datasets served
// from mapped (format v3) snapshots. Every lazy shard registers with one
// Residency; shards materialise (mmap + checksum + view construction +
// pyramid derivation) on their first query and the manager keeps the
// total materialised cost within a byte budget by evicting the
// least-recently-used unpinned shard — dropping its mapping so the
// pages go back to the OS, to be re-faulted on demand.
//
// The budget is best-effort, not a hard cap: shards pinned by in-flight
// queries are never evicted, so the floor is the cost of the shards one
// query touches at once. A budget of 0 never evicts.
//
// One mutex owns all residency state (LRU order, per-shard state
// machines, refcounts, byte totals, counters). Materialisation I/O and
// munmap run outside the lock; a condition variable serialises
// concurrent faults of the same shard so the work happens once.
type Residency struct {
	mu   sync.Mutex
	cond *sync.Cond

	budget int64

	// lru orders the resident shards, most recently used first. Values
	// are *lazyShard. Cold and faulting shards are not on the list.
	lru list.List

	// mappedBytes/mappedShards cover every registered shard (the full
	// on-disk footprint being served); residentBytes/residentShards only
	// the currently materialised ones.
	mappedBytes    int64
	mappedShards   int
	residentBytes  int64
	residentShards int

	faults    uint64
	evictions uint64
}

// NewResidency creates a manager with the given byte budget for
// materialised shards. budget <= 0 means unlimited: shards fault in on
// first use and stay resident.
func NewResidency(budget int64) *Residency {
	r := &Residency{budget: budget}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// ResidencyStats is a point-in-time snapshot of the manager's counters,
// reported by /v1/stats and /metrics.
type ResidencyStats struct {
	// BudgetBytes is the configured budget (0 = unlimited).
	BudgetBytes int64 `json:"budget_bytes"`
	// MappedBytes is the on-disk footprint of every registered shard —
	// the address space a fully-faulted store would map.
	MappedBytes  int64 `json:"mapped_bytes"`
	MappedShards int   `json:"mapped_shards"`
	// ResidentBytes is the materialised cost currently charged against
	// the budget (mapped file bytes plus heap overhead per shard).
	ResidentBytes  int64 `json:"resident_bytes"`
	ResidentShards int   `json:"resident_shards"`
	// Faults counts shard materialisations (first touch and every
	// re-fault after an eviction); Evictions counts budget evictions.
	Faults    uint64 `json:"faults"`
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the manager's counters.
func (r *Residency) Stats() ResidencyStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ResidencyStats{
		BudgetBytes:    r.budget,
		MappedBytes:    r.mappedBytes,
		MappedShards:   r.mappedShards,
		ResidentBytes:  r.residentBytes,
		ResidentShards: r.residentShards,
		Faults:         r.faults,
		Evictions:      r.evictions,
	}
}

// register adds a lazy shard to the mapped totals at dataset-open time.
func (r *Residency) register(ls *lazyShard) {
	r.mu.Lock()
	r.mappedBytes += ls.src.Bytes
	r.mappedShards++
	r.mu.Unlock()
}

// evictLocked walks the LRU tail evicting unpinned resident shards until
// the budget is met (or only pinned shards remain). It returns the
// detached mappings; the caller munmaps them after releasing the lock —
// no query can reach a detached mapping (its shard is cold and its
// refcount was zero), so the unmap is safe.
func (r *Residency) evictLocked() []*mmapfile.Mapping {
	if r.budget <= 0 {
		return nil
	}
	var detached []*mmapfile.Mapping
	e := r.lru.Back()
	for e != nil && r.residentBytes > r.budget {
		prev := e.Prev()
		ls := e.Value.(*lazyShard)
		if ls.refs == 0 {
			detached = append(detached, ls.detachLocked())
		}
		e = prev
	}
	return detached
}

// shard residency states.
const (
	shardCold     = iota // no block; first acquire materialises
	shardFaulting        // one goroutine is materialising; others wait
	shardResident        // block live, on the LRU list
)

// lazyShard is one shard of a mapped dataset: the on-disk artifact plus
// the residency state machine around its materialised block. All fields
// below pyramidLevels are owned by res.mu.
type lazyShard struct {
	res *Residency
	src snapshot.LazyShard
	// pyramidLevels is the dataset's pyramid configuration, which every
	// fault re-derives.
	pyramidLevels int

	state   int
	refs    int
	block   *geoblocks.GeoBlock
	mapping *mmapfile.Mapping
	cost    int64
	elem    *list.Element
}

// acquire pins the shard's block for the duration of one query and
// returns it with a release func. Cold shards materialise on the spot
// (this is the shard fault); concurrent acquirers of a faulting shard
// wait for the single materialisation instead of duplicating it. The
// release func is idempotent.
//
// A materialisation failure (unreadable file, data-region checksum
// mismatch — the lazily-deferred corruption check) resets the shard to
// cold and surfaces the error to the query; later acquires retry, so a
// transient I/O failure does not wedge the shard.
func (ls *lazyShard) acquire() (*geoblocks.GeoBlock, func(), error) {
	r := ls.res
	r.mu.Lock()
	for {
		switch ls.state {
		case shardResident:
			ls.refs++
			r.lru.MoveToFront(ls.elem)
			r.mu.Unlock()
			return ls.block, ls.releaseOnce(), nil

		case shardFaulting:
			r.cond.Wait()

		case shardCold:
			ls.state = shardFaulting
			r.mu.Unlock()

			blk, mapping, cost, err := ls.materialize()

			r.mu.Lock()
			if err != nil {
				ls.state = shardCold
				r.cond.Broadcast()
				r.mu.Unlock()
				return nil, nil, err
			}
			ls.block, ls.mapping, ls.cost = blk, mapping, cost
			ls.state = shardResident
			ls.refs = 1
			ls.elem = r.lru.PushFront(ls)
			r.residentBytes += cost
			r.residentShards++
			r.faults++
			detached := r.evictLocked()
			r.cond.Broadcast()
			r.mu.Unlock()
			closeMappings(detached)
			return blk, ls.releaseOnce(), nil
		}
	}
}

// peek pins the block only if it is already resident — for stats,
// which must not fault cold shards in.
func (ls *lazyShard) peek() (*geoblocks.GeoBlock, func(), bool) {
	r := ls.res
	r.mu.Lock()
	if ls.state != shardResident {
		r.mu.Unlock()
		return nil, nil, false
	}
	ls.refs++
	r.mu.Unlock()
	return ls.block, ls.releaseOnce(), true
}

// releaseOnce wraps release so a double call (deferred and explicit)
// cannot corrupt the refcount.
func (ls *lazyShard) releaseOnce() func() {
	var once sync.Once
	return func() { once.Do(ls.release) }
}

// release drops one pin. An over-budget shard becomes evictable the
// moment its last pin drops, so the budget check runs here too.
func (ls *lazyShard) release() {
	r := ls.res
	r.mu.Lock()
	ls.refs--
	detached := r.evictLocked()
	r.mu.Unlock()
	closeMappings(detached)
}

// detachLocked transitions a resident, unpinned shard back to cold and
// returns its mapping for the caller to close outside the lock.
func (ls *lazyShard) detachLocked() *mmapfile.Mapping {
	r := ls.res
	r.lru.Remove(ls.elem)
	ls.elem = nil
	ls.state = shardCold
	ls.block = nil
	m := ls.mapping
	ls.mapping = nil
	r.residentBytes -= ls.cost
	r.residentShards--
	r.evictions++
	return m
}

// materialize is the shard fault: map the file, verify the data-region
// checksum and build the zero-copy views (geoblocks.MapGeoBlock), then
// re-derive the pyramid levels exactly as an eager restore would. Runs outside the residency lock.
func (ls *lazyShard) materialize() (*geoblocks.GeoBlock, *mmapfile.Mapping, int64, error) {
	m, err := mmapfile.Open(ls.src.Path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: shard %s: %v", snapshot.ErrCorrupt, ls.src.Path, err)
	}
	blk, err := geoblocks.MapGeoBlock(m.Data())
	if err != nil {
		m.Close()
		// Map core sentinels onto the snapshot ones so fault-time
		// corruption carries the same type restore-time corruption does.
		wrapped := snapshot.ErrCorrupt
		if errors.Is(err, core.ErrVersion) {
			wrapped = snapshot.ErrVersion
		}
		return nil, nil, 0, fmt.Errorf("%w: shard %s: %v", wrapped, ls.src.Path, err)
	}
	if err := blk.BuildPyramid(ls.pyramidLevels); err != nil {
		m.Close()
		return nil, nil, 0, err
	}
	// Residency cost: the mapped file (the checksum pass touches every
	// page, so the whole file is resident after a fault) plus the heap
	// the view construction allocates — per-column prefix-sum arrays and
	// the derived pyramid levels.
	prefixes := int64(ls.src.Info.NumCells+1) * int64(len(ls.src.Info.Schema.Names)) * 8
	cost := ls.src.Bytes + prefixes + int64(blk.PyramidBytes())
	return blk, m, cost, nil
}

// residentCost reports whether the shard is materialised and its charged
// cost, for stats.
func (ls *lazyShard) residentCost() (bool, int64) {
	ls.res.mu.Lock()
	defer ls.res.mu.Unlock()
	return ls.state == shardResident, ls.cost
}

// closeMappings munmaps detached mappings outside the residency lock.
func closeMappings(ms []*mmapfile.Mapping) {
	for _, m := range ms {
		m.Close()
	}
}

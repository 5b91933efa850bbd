package store

// Streaming ingestion (ROADMAP item 2): each eager shard carries a small
// mutable delta alongside its immutable base block. Ingest validates a
// whole batch up front, makes it durable in the dataset's write-ahead log
// (when one is attached), appends the rows to the owning shards' deltas
// and only then acknowledges — so an acknowledged batch survives a crash
// by WAL replay, and a crash mid-ingest loses only unacknowledged rows.
// Queries merge base and delta partials per shard in a fixed
// base-then-delta order (see blockPartial), keeping COUNT/MIN/MAX
// bit-identical to a from-scratch rebuild and SUM within the documented
// reassociation bound. A background fold (compact.go) moves delta rows
// into the base off the query path.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"geoblocks/internal/cellid"
	"geoblocks/internal/core"
	"geoblocks/internal/geom"
	"geoblocks/internal/snapshot"
)

// ErrBackpressure reports an ingest batch rejected because the dataset's
// pending delta rows would exceed its configured cap. The batch was not
// applied (and not logged); retry after the compactor catches up.
var ErrBackpressure = errors.New("store: ingest backpressure, delta cap reached")

// ErrBadValue reports an ingest batch with a malformed payload — ragged
// columns, a wrong column count, or a non-finite aggregate value. Nothing
// was applied.
var ErrBadValue = errors.New("store: bad ingest value")

// ErrOutOfBounds reports an ingest row whose point lies outside the
// dataset bound. Ingest is all-or-nothing, so one stray row rejects the
// whole batch rather than silently dropping it — an acknowledged batch is
// exactly the rows the caller sent.
var ErrOutOfBounds = errors.New("store: ingest point outside dataset bound")

// delta is one shard's mutable row tail: leaf cell ids and column values
// in acknowledgement order. Appends happen under the dataset's ingestMu
// (serialised), so the rows form a clean per-batch prefix order; readers
// snapshot the slice headers under the delta lock and scan without it —
// elements below a snapshot's length are never mutated (drop replaces the
// slices wholesale instead of shifting in place).
type delta struct {
	mu     sync.RWMutex
	leaves []cellid.ID
	cols   [][]float64
}

func newDelta(numCols int) *delta {
	return &delta{cols: make([][]float64, numCols)}
}

// view snapshots the delta for one query's scan. The inner column
// headers are copied while the lock is held: add rewrites them in the
// shared outer array on every append, so handing the outer slice itself
// to an unlocked scan would race. The element arrays stay shared — rows
// below the snapshot's length are never mutated.
func (dl *delta) view() ([]cellid.ID, [][]float64) {
	dl.mu.RLock()
	defer dl.mu.RUnlock()
	n := len(dl.leaves)
	if n == 0 {
		return nil, nil
	}
	cols := make([][]float64, len(dl.cols))
	for c := range cols {
		cols[c] = dl.cols[c][:n]
	}
	return dl.leaves[:n], cols
}

// viewPrefix snapshots the first n rows — the fold cut.
func (dl *delta) viewPrefix(n int) ([]cellid.ID, [][]float64) {
	dl.mu.RLock()
	defer dl.mu.RUnlock()
	cols := make([][]float64, len(dl.cols))
	for c := range cols {
		cols[c] = dl.cols[c][:n]
	}
	return dl.leaves[:n], cols
}

// add appends rows.
func (dl *delta) add(leaves []cellid.ID, cols [][]float64, idxs []int) {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	for _, i := range idxs {
		dl.leaves = append(dl.leaves, leaves[i])
		for c := range dl.cols {
			dl.cols[c] = append(dl.cols[c], cols[c][i])
		}
	}
}

// size returns the current row count.
func (dl *delta) size() int {
	dl.mu.RLock()
	defer dl.mu.RUnlock()
	return len(dl.leaves)
}

// drop removes the first n rows after a fold. The remainder is copied
// into fresh slices: concurrent readers still hold the old backing
// arrays, whose populated elements must stay immutable.
func (dl *delta) drop(n int) {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	dl.leaves = append([]cellid.ID(nil), dl.leaves[n:]...)
	for c := range dl.cols {
		dl.cols[c] = append([]float64(nil), dl.cols[c][n:]...)
	}
}

// ingestRows is one validated, partitioned batch: per-row leaves plus the
// row indices owned by each shard.
type ingestRows struct {
	leaves  []cellid.ID
	cols    [][]float64
	byShard map[int][]int
}

// partitionIngest validates a batch and partitions its rows by owning
// shard. All validation happens here, before anything is logged or
// applied, so a rejected batch leaves no trace.
func (d *Dataset) partitionIngest(pts []geom.Point, cols [][]float64) (ingestRows, error) {
	var r ingestRows
	if len(cols) != d.schema.NumCols() {
		return r, fmt.Errorf("%w: got %d columns, schema has %d", ErrBadValue, len(cols), d.schema.NumCols())
	}
	for c := range cols {
		if len(cols[c]) != len(pts) {
			return r, fmt.Errorf("%w: column %d has %d rows, want %d", ErrBadValue, c, len(cols[c]), len(pts))
		}
		for i, v := range cols[c] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return r, fmt.Errorf("%w: column %d row %d is %v", ErrBadValue, c, i, v)
			}
		}
	}
	bound := d.dom.Bound()
	r.leaves = make([]cellid.ID, len(pts))
	r.cols = cols
	r.byShard = make(map[int][]int)
	for i, p := range pts {
		if !bound.ContainsPoint(p) {
			return r, fmt.Errorf("%w: row %d at (%v, %v)", ErrOutOfBounds, i, p.X, p.Y)
		}
		r.leaves[i] = d.dom.FromPoint(p)
		cell := d.dom.CellAt(p, d.opts.ShardLevel)
		s, ok := d.shardIndex(cell)
		if !ok {
			// A delta row in a shard that does not exist would be invisible
			// to routing; same remedy as Update — rebuild with coverage.
			return r, fmt.Errorf("store: ingest row %d lands in unbuilt shard %v: %w", i, cell, core.ErrRebuildRequired)
		}
		r.byShard[s] = append(r.byShard[s], i)
	}
	return r, nil
}

// applyIngest appends a partitioned batch to the owning shards' deltas.
// Caller holds ingestMu (and the read lock on live paths), so per-shard
// rows land in acknowledgement order.
func (d *Dataset) applyIngest(r ingestRows) {
	order := make([]int, 0, len(r.byShard))
	for s := range r.byShard {
		order = append(order, s)
	}
	sort.Ints(order)
	for _, s := range order {
		d.shards[s].delta.add(r.leaves, r.cols, r.byShard[s])
	}
	d.deltaRows.Add(int64(len(r.leaves)))
}

// Ingest appends a batch of rows to the dataset's shard deltas and
// returns the batch's sequence number. The batch is validated as a whole
// before anything is applied — a typed error (ErrBadValue,
// ErrOutOfBounds, ErrBackpressure, core.ErrRebuildRequired,
// core.ErrReadOnly) means nothing was applied and nothing was logged.
// When a WAL is attached (EnableWAL), the batch is fsynced to it before
// this method returns: the acknowledgement implies durability.
//
// Rows become visible to queries atomically per shard: any query started
// after Ingest returns observes the whole batch; a query running
// concurrently with the ingest may observe a per-shard prefix of it
// (read-committed, never a torn row).
func (d *Dataset) Ingest(pts []geom.Point, cols [][]float64) (uint64, error) {
	if len(pts) == 0 {
		return d.ingestSeq.Load(), nil
	}
	if d.residency != nil {
		return 0, fmt.Errorf("store: dataset %q serves a mapped snapshot read-only; restore it eagerly to ingest: %w",
			d.name, core.ErrReadOnly)
	}
	rows, err := d.partitionIngest(pts, cols)
	if err != nil {
		return 0, err
	}

	d.mu.RLock()
	defer d.mu.RUnlock()

	// Backpressure before the log write: when the pending delta exceeds
	// the cap, shedding the batch is cheaper than growing an unmergeable
	// tail. The soft half-cap kicks the compactor without rejecting.
	if cap := d.deltaMaxRows.Load(); cap > 0 {
		pending := d.deltaRows.Load()
		if pending+int64(len(pts)) > cap {
			d.backpressured.Add(1)
			d.kickCompactor()
			return 0, fmt.Errorf("%w: %d pending + %d new > cap %d", ErrBackpressure, pending, len(pts), cap)
		}
		if pending+int64(len(pts)) > cap/2 {
			d.kickCompactor()
		}
	}

	d.ingestMu.Lock()
	seq := d.ingestSeq.Load() + 1
	if d.wal != nil {
		if err := d.wal.Append(seq, pts, cols); err != nil {
			d.ingestMu.Unlock()
			return 0, fmt.Errorf("store: ingest wal append: %w", err)
		}
	}
	d.applyIngest(rows)
	d.ingestSeq.Store(seq)
	d.ingestMu.Unlock()

	d.ingestBatches.Add(1)
	d.ingestRowsTotal.Add(uint64(len(pts)))
	// Bump the result-cache generation once per acknowledged batch, after
	// the rows are visible and before the caller is told — a query that
	// observes the new generation is guaranteed to observe the rows.
	if d.results != nil {
		d.results.InvalidateAppend()
	}
	return seq, nil
}

// kickCompactor nudges the attached background compactor, if any.
// Non-blocking; safe without one.
func (d *Dataset) kickCompactor() {
	if k := d.compactKick.Load(); k != nil {
		(*k)()
	}
}

// EnableWAL attaches a write-ahead log at <dataDir>/<name>.wal and
// replays every logged batch newer than the restored snapshot's
// IngestSeq into the shard deltas. Call it once, after Open/Build and
// before serving; subsequent Ingest calls are durable. Mapped datasets
// are read-only and reject the attach.
func (d *Dataset) EnableWAL(dataDir string) error {
	if d.residency != nil {
		return fmt.Errorf("store: dataset %q is mapped read-only, no wal: %w", d.name, core.ErrReadOnly)
	}
	w, batches, err := snapshot.OpenWAL(snapshot.WALPath(dataDir, d.name), d.schema.NumCols())
	if err != nil {
		return err
	}
	folded := d.foldedSeq.Load()
	last := folded
	for _, b := range batches {
		if b.Seq <= folded {
			// Already durable in the snapshotted base; replay would
			// double-count it.
			continue
		}
		rows, err := d.partitionIngest(b.Points, b.Cols)
		if err != nil {
			w.Close()
			return fmt.Errorf("store: wal replay batch %d: %w", b.Seq, err)
		}
		d.ingestMu.Lock()
		d.applyIngest(rows)
		d.ingestMu.Unlock()
		d.replayedRows.Add(uint64(len(b.Points)))
		last = b.Seq
	}
	d.ingestSeq.Store(last)
	d.mu.Lock()
	d.wal = w
	d.mu.Unlock()
	if d.results != nil && last > folded {
		d.results.InvalidateAppend()
	}
	return nil
}

// CloseWAL detaches and closes the dataset's write-ahead log; later
// ingests are volatile again. No-op without one.
func (d *Dataset) CloseWAL() error {
	d.mu.Lock()
	w := d.wal
	d.wal = nil
	d.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Close()
}

// DeltaRows returns the dataset's pending (unfolded) delta row count.
func (d *Dataset) DeltaRows() int64 { return d.deltaRows.Load() }

// SetDeltaMaxRows sets the backpressure cap on pending delta rows
// (0 disables the cap). Half the cap is the soft threshold that kicks
// the background compactor.
func (d *Dataset) SetDeltaMaxRows(n int64) {
	if n < 0 {
		n = 0
	}
	d.deltaMaxRows.Store(n)
}

// IngestSeq returns the highest acknowledged ingest batch sequence.
func (d *Dataset) IngestSeq() uint64 { return d.ingestSeq.Load() }

// IngestStats is the stats block of the streaming write path.
type IngestStats struct {
	// DeltaRows is the current pending (unfolded) row count across all
	// shard deltas; DeltaMaxRows the backpressure cap (0 = uncapped).
	DeltaRows    int64 `json:"delta_rows"`
	DeltaMaxRows int64 `json:"delta_max_rows,omitempty"`
	// Batches / Rows count acknowledged ingests since process start;
	// ReplayedRows counts rows recovered from the WAL at startup.
	Batches      uint64 `json:"batches"`
	Rows         uint64 `json:"rows"`
	ReplayedRows uint64 `json:"replayed_rows,omitempty"`
	// Backpressured counts batches rejected by the delta cap.
	Backpressured uint64 `json:"backpressured,omitempty"`
	// IngestSeq is the highest acknowledged batch sequence; FoldedSeq the
	// highest sequence folded into the base blocks (snapshot recovery
	// point).
	IngestSeq uint64 `json:"ingest_seq"`
	FoldedSeq uint64 `json:"folded_seq"`
	// Compactions counts completed folds; CompactedRows the delta rows
	// they moved into base blocks; LastCompactMicros the duration of the
	// most recent fold.
	Compactions       uint64 `json:"compactions"`
	CompactedRows     uint64 `json:"compacted_rows"`
	LastCompactMicros int64  `json:"last_compact_micros,omitempty"`
	// WALBytes is the current size of the attached write-ahead log, 0
	// without one.
	WALBytes int64 `json:"wal_bytes,omitempty"`
}

// ingestStats snapshots the write-path counters. Caller holds d.mu.
func (d *Dataset) ingestStatsLocked() IngestStats {
	st := IngestStats{
		DeltaRows:         d.deltaRows.Load(),
		DeltaMaxRows:      d.deltaMaxRows.Load(),
		Batches:           d.ingestBatches.Load(),
		Rows:              d.ingestRowsTotal.Load(),
		ReplayedRows:      d.replayedRows.Load(),
		Backpressured:     d.backpressured.Load(),
		IngestSeq:         d.ingestSeq.Load(),
		FoldedSeq:         d.foldedSeq.Load(),
		Compactions:       d.compactions.Load(),
		CompactedRows:     d.compactedRows.Load(),
		LastCompactMicros: d.lastCompactMicros.Load(),
	}
	if d.wal != nil {
		st.WALBytes = d.wal.SizeBytes()
	}
	return st
}

// IngestStatsNow snapshots the write-path counters.
func (d *Dataset) IngestStatsNow() IngestStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.ingestStatsLocked()
}

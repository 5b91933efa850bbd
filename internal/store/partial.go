package store

import (
	"errors"
	"fmt"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/geom"
)

// This file is the dataset's cluster face: the hooks a coordinator uses
// to plan a query once and scatter its sub-coverings across nodes, and
// the hook a peer uses to answer one shard's sub-covering as a partial
// accumulator. Both sides of the wire go through the same per-shard
// task as single-node queries (runTask: pin the shard, then blockPartial
// — base block at the planned pyramid level, then the ingest delta, in
// fixed order), so a cluster merge in ascending shard order reproduces
// the single-node merge tree exactly — COUNT/MIN/MAX bit-identical, SUM
// within the DESIGN.md Sec. 6 bound.

// ErrUnknownShard reports a partial request naming a shard cell this
// dataset does not carry (wrong shard level, or an assignment pointing
// at a node that doesn't hold the dataset's partition).
var ErrUnknownShard = errors.New("store: unknown shard cell")

// ShardSub is one scatter unit: a shard prefix cell and the sub-covering
// it must answer.
type ShardSub struct {
	Cell cellid.ID
	Sub  []cellid.ID
}

// Plan is a routed query plan: the pyramid level the planner admitted,
// the covering computed at that level, and the covering's guaranteed
// error bound (both data-independent — any replica holding the same
// build derives the identical plan).
type Plan struct {
	Level      int
	Cover      []cellid.ID
	ErrorBound float64
}

// PlanCover plans a polygon query exactly like QueryOpts does: resolve
// the pyramid level admitted by maxError, compute one covering at that
// level, and report the covering's guaranteed error bound.
func (d *Dataset) PlanCover(poly *geom.Polygon, maxError float64) Plan {
	d.mu.RLock()
	defer d.mu.RUnlock()
	lvl := d.PlanLevel(maxError)
	c := d.covererAt(lvl)
	cov := c.Cover(poly)
	return Plan{Level: lvl, Cover: cov.Cells, ErrorBound: c.GuaranteedErrorDistance(cov)}
}

// PlanCoverRect is PlanCover over a rectangle.
func (d *Dataset) PlanCoverRect(r geom.Rect, maxError float64) Plan {
	d.mu.RLock()
	defer d.mu.RUnlock()
	lvl := d.PlanLevel(maxError)
	c := d.covererAt(lvl)
	cov := c.CoverRect(r)
	return Plan{Level: lvl, Cover: cov.Cells, ErrorBound: c.GuaranteedErrorDistance(cov)}
}

// ShardSubs splits a covering into per-shard sub-coverings in ascending
// shard-cell order — the router's route() exposed for the coordinator,
// which sends remote shards' entries over the wire and answers local
// ones in process. An empty result means the covering misses every
// shard (the identity answer).
func (d *Dataset) ShardSubs(cov []cellid.ID) []ShardSub {
	d.mu.RLock()
	defer d.mu.RUnlock()
	parts := d.route(cov)
	subs := make([]ShardSub, len(parts))
	for i, p := range parts {
		subs[i] = ShardSub{Cell: p.shard.cell, Sub: p.sub}
	}
	return subs
}

// ShardCells lists the dataset's shard prefix cells in ascending order.
func (d *Dataset) ShardCells() []cellid.ID {
	cells := make([]cellid.ID, len(d.shards))
	for i := range d.shards {
		cells[i] = d.shards[i].cell
	}
	return cells
}

// HasShard reports whether the dataset carries the shard cell.
func (d *Dataset) HasShard(cell cellid.ID) bool {
	_, ok := d.shardIndex(cell)
	return ok
}

// ServesLevel reports whether lvl is a grid level this dataset can
// execute a covering at: the block level or a materialised pyramid
// level.
func (d *Dataset) ServesLevel(lvl int) bool {
	if lvl == d.opts.Level {
		return true
	}
	_, ok := d.coverers[lvl]
	return ok
}

// CoveringBound returns the conservative guaranteed error bound of a
// bare cell list (the diagonal of its coarsest cell, 0 when empty) —
// the bound a peer reports for the sub-coverings it answered.
func (d *Dataset) CoveringBound(cov []cellid.ID) float64 {
	return d.dom.MaxDiagonal(cov)
}

// NoteQuery counts one routed query against the dataset's stats — the
// cluster coordinator's scatter-gather bypasses the Query entry points
// that normally bump the counter.
func (d *Dataset) NoteQuery() { d.queries.Add(1) }

// AssignmentEpoch returns the cluster assignment epoch the dataset last
// served under (0 outside cluster mode).
func (d *Dataset) AssignmentEpoch() uint64 { return d.assignEpoch.Load() }

// SetAssignmentEpoch stamps the cluster assignment epoch, persisted in
// later snapshot manifests.
func (d *Dataset) SetAssignmentEpoch(epoch uint64) { d.assignEpoch.Store(epoch) }

// ShardPartial answers one shard's sub-covering at the planned level as
// a partial accumulator — the peer half of the cluster scatter-gather.
// sub must be a sub-covering computed at level lvl (ascending, disjoint;
// the coordinator derives it via PlanCover + ShardSubs on an identical
// build). The partial includes the shard's pending ingest delta in the
// same base-then-delta order as local queries, so a coordinator reading
// its own writes through a peer still sees them. The returned
// accumulator is bound to this dataset's shard block; encode it with
// EncodePartial to put it on the wire.
func (d *Dataset) ShardPartial(cell cellid.ID, sub []cellid.ID, lvl int, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) (*geoblocks.Accumulator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !d.ServesLevel(lvl) {
		return nil, fmt.Errorf("store: dataset %q serves no grid level %d", d.name, lvl)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	i, ok := d.shardIndex(cell)
	if !ok {
		return nil, fmt.Errorf("%w: %v in dataset %q", ErrUnknownShard, cell, d.name)
	}
	task := [1]queryPart{{shard: &d.shards[i], sub: sub}}
	if err := runTask(task[:], lvl, opts, reqs); err != nil {
		return nil, err
	}
	return task[0].acc, nil
}

// DecodePartial parses an accumulator frame produced by a peer's
// ShardPartial + EncodePartial, bound to this dataset (same schema on
// every replica, so the spec signature check pins agreement). The
// coordinator merges decoded partials with local ones in ascending
// shard order via Accumulator.MergeFrom.
func (d *Dataset) DecodePartial(data []byte, reqs []geoblocks.AggRequest) (*geoblocks.Accumulator, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	blk, release, err := d.shards[0].acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	return blk.DecodePartial(data, reqs...)
}

package store

import (
	"errors"
	"fmt"
	"slices"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/geom"
)

// This file is the dataset's cluster face: the hook a peer uses to
// answer shard sub-coverings as partial accumulators, and the planning
// and decoding hooks around it. The coordinator itself runs the store's
// executor (JoinVia, JoinRectsVia in join.go) with a Remote runner for
// the shards it does not serve. Both sides of the wire go through the
// same per-shard task as single-node queries (runTask: pin the shard,
// then blockPartial — base block at the planned pyramid level, then the
// ingest delta, in fixed order), so a cluster merge in ascending shard
// order reproduces the single-node merge tree exactly — COUNT/MIN/MAX
// bit-identical, SUM within the DESIGN.md Sec. 6 bound.

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

// PlanCoverRect plans a rectangle query exactly like QueryRectOpts
// does: resolve the pyramid level admitted by maxError, compute one
// covering at that level, and report the covering's guaranteed error
// bound.
func (d *Dataset) PlanCoverRect(r geom.Rect, maxError float64) Plan {
	d.mu.RLock()
	defer d.mu.RUnlock()
	lvl := d.PlanLevel(maxError)
	c := d.covererAt(lvl)
	cov := c.CoverRect(r)
	return Plan{Level: lvl, Cover: cov.Cells, ErrorBound: c.GuaranteedErrorDistance(cov)}
}

// ShardSubs splits a covering into per-shard sub-coverings in ascending
// shard-cell order — the router's route() exposed for tools that drive
// ShardPartial by hand. An empty result means the covering misses every
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
// the bound QueryCovering reports.
func (d *Dataset) CoveringBound(cov []cellid.ID) float64 {
	return d.dom.MaxDiagonal(cov)
}

// AssignmentEpoch returns the cluster assignment epoch the dataset last
// served under (0 outside cluster mode).
func (d *Dataset) AssignmentEpoch() uint64 { return d.assignEpoch.Load() }

// SetAssignmentEpoch stamps the cluster assignment epoch, persisted in
// later snapshot manifests.
func (d *Dataset) SetAssignmentEpoch(epoch uint64) { d.assignEpoch.Store(epoch) }

// ShardPartials answers shard sub-coverings at the planned level as
// partial accumulators — the peer half of the cluster scatter-gather.
// Each sub must be a sub-covering computed at level lvl (ascending,
// disjoint) on an identical build; a shard may repeat, once per region
// routed there. Every involved shard runs one task, pinned once, as in a
// local join, and accs align with subs. A partial includes the shard's
// pending ingest delta in the same base-then-delta order as local
// queries, so a coordinator reading its own writes through a peer still
// sees them. The accumulators are bound to this dataset's shard blocks;
// encode them with EncodePartial to put them on the wire.
func (d *Dataset) ShardPartials(subs []ShardSub, lvl int, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) ([]*geoblocks.Accumulator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !d.ServesLevel(lvl) {
		return nil, fmt.Errorf("store: dataset %q serves no grid level %d", d.name, lvl)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	parts := make([]queryPart, len(subs))
	for i, s := range subs {
		j, ok := d.shardIndex(s.Cell)
		if !ok {
			return nil, fmt.Errorf("%w: %v in dataset %q", ErrUnknownShard, s.Cell, d.name)
		}
		parts[i] = queryPart{shard: &d.shards[j], sub: s.Sub, region: i}
	}
	slices.SortStableFunc(parts, byShard)
	if err := runTasks(parts, lvl, opts, reqs); err != nil {
		return nil, err
	}
	accs := make([]*geoblocks.Accumulator, len(subs))
	for _, p := range parts {
		accs[p.region] = p.acc
	}
	return accs, nil
}

// ShardPartial is ShardPartials of one shard's sub-covering.
func (d *Dataset) ShardPartial(cell cellid.ID, sub []cellid.ID, lvl int, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) (*geoblocks.Accumulator, error) {
	accs, err := d.ShardPartials([]ShardSub{{Cell: cell, Sub: sub}}, lvl, opts, reqs)
	if err != nil {
		return nil, err
	}
	return accs[0], nil
}

// DecodePartial parses an accumulator frame produced by a peer's
// ShardPartials + EncodePartial, bound to this dataset (same schema on
// every replica, so the spec signature check pins agreement). The
// coordinator's Remote runner decodes each peer frame into its part's
// slot, and the executor merges it with the local partials in ascending
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

// Package cluster lifts the store's covering-split scatter-gather one
// level, from goroutines over local shards to HTTP requests over peer
// geoblocksd nodes.
//
// A cluster is a set of geoblocksd processes serving the same dataset
// builds. An assignment file (Config) maps each shard prefix cell to an
// ordered replica chain of nodes — statically, or by rendezvous hashing
// over the shard cell — and stamps the mapping with an epoch so peers
// can reject requests planned under a different generation.
//
// The Coordinator keeps no executor of its own. Query, QueryRect,
// QueryBatch, Join and JoinRects all run the store's executor on the
// coordinator's copy of the dataset (store.JoinVia and
// JoinRectsVia): one pyramid level, one covering per distinct region,
// each routed per shard. The coordinator only supplies the executor's
// remote runner, a store.Remote: shards whose replica chain includes
// this node run as local tasks; the parts on the other shards are
// grouped per replica chain, packed in shard order into POST
// /internal/v1/partial requests of at most 4 096 covering cells, and
// sent at most maxPeerConns at a time. Peers answer each entry with a
// serialized accumulator frame (core wire codec), which lands in its
// part's slot; the executor then merges each region's partials with
// Accumulator.MergeFrom in ascending shard-cell order — the same merge
// tree as a single-node query, so cluster answers are bit-identical for
// COUNT/MIN/MAX and SUM stays within the DESIGN.md Sec. 6 reassociation
// bound. Level and error-bound reporting are data-independent (derived
// from the covering alone), so they are identical by construction.
//
// The Client tolerates peer faults: per-request timeouts, bounded
// retries with exponential backoff, hedged requests to later replicas
// after a configurable delay, and failover down the replica chain. A
// shard whose whole chain is exhausted fails the query with an
// UnavailableError naming every unreachable shard — a cluster answer is
// always complete or refused, never silently partial.
package cluster

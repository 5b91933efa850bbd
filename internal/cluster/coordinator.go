package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/geom"
	"geoblocks/internal/store"
)

// ErrUnknownDataset reports a cluster query naming an unregistered
// dataset.
var ErrUnknownDataset = errors.New("cluster: unknown dataset")

// UnavailableError reports shards whose entire replica chain is
// exhausted: the query is refused rather than answered partially. The
// shard cells carry the per-shard attribution the serving layer returns
// in its typed 503.
type UnavailableError struct {
	Dataset string
	Shards  []cellid.ID
	// Cause is the last underlying replica failure, for logs.
	Cause error
}

func (e *UnavailableError) Error() string {
	toks := make([]string, len(e.Shards))
	for i, c := range e.Shards {
		toks[i] = CellToken(c)
	}
	return fmt.Sprintf("cluster: dataset %q shards unavailable (no live replica): %s (last error: %v)",
		e.Dataset, strings.Join(toks, ", "), e.Cause)
}

// Stats is the coordinator's observable state for /v1/stats and
// /metrics.
type Stats struct {
	Self        string      `json:"self"`
	Epoch       uint64      `json:"epoch"`
	Nodes       int         `json:"nodes"`
	Replication int         `json:"replication"`
	Queries     uint64      `json:"queries"`
	LocalParts  uint64      `json:"local_partials"`
	RemoteCalls uint64      `json:"remote_calls"`
	Unavailable uint64      `json:"unavailable_errors"`
	Reloads     uint64      `json:"assignment_reloads"`
	Peers       []PeerStats `json:"peers"`
}

// Coordinator routes cluster queries: local shards through the store,
// remote shards through peer partial requests, merged in global shard
// order. Safe for concurrent use; Reload may swap the assignment under
// live queries.
type Coordinator struct {
	store *store.Store
	// self is this node's name in the assignment ("" when the
	// coordinator is not itself a data node — then every shard is
	// remote).
	self string

	mu     sync.RWMutex
	assign *Assignment

	client *Client

	queries     atomic.Uint64
	localParts  atomic.Uint64
	remoteCalls atomic.Uint64
	unavailable atomic.Uint64
	reloads     atomic.Uint64
}

// New builds a coordinator over the store from a validated config. self
// names this node in the config (empty for a pure router). The store's
// datasets are stamped with the assignment epoch.
func New(st *store.Store, cfg *Config, self string) (*Coordinator, error) {
	if self != "" {
		found := false
		for _, n := range cfg.Nodes {
			if n.Name == self {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: self %q is not in the assignment's node list", self)
		}
	}
	c := &Coordinator{
		store:  st,
		self:   self,
		assign: NewAssignment(cfg),
		client: NewClient(cfg),
	}
	st.SetAssignmentEpoch(cfg.Epoch)
	return c, nil
}

// Reload swaps in a new assignment (SIGHUP on the daemon): placement,
// epoch and client tuning all take effect for subsequent queries;
// in-flight queries finish under the assignment they planned with.
func (c *Coordinator) Reload(cfg *Config) error {
	if c.self != "" {
		found := false
		for _, n := range cfg.Nodes {
			if n.Name == c.self {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("cluster: reload drops self %q from the node list", c.self)
		}
	}
	a := NewAssignment(cfg)
	c.mu.Lock()
	c.assign = a
	c.mu.Unlock()
	c.client.Retune(cfg)
	c.store.SetAssignmentEpoch(cfg.Epoch)
	c.reloads.Add(1)
	return nil
}

// Assignment returns the current assignment.
func (c *Coordinator) Assignment() *Assignment {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.assign
}

// Self returns this node's assignment name.
func (c *Coordinator) Self() string { return c.self }

// Epoch returns the current assignment epoch.
func (c *Coordinator) Epoch() uint64 { return c.Assignment().Epoch() }

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	a := c.Assignment()
	return Stats{
		Self:        c.self,
		Epoch:       a.Epoch(),
		Nodes:       len(a.Config().Nodes),
		Replication: a.Replication(),
		Queries:     c.queries.Load(),
		LocalParts:  c.localParts.Load(),
		RemoteCalls: c.remoteCalls.Load(),
		Unavailable: c.unavailable.Load(),
		Reloads:     c.reloads.Load(),
		Peers:       c.client.Stats(),
	}
}

// Query answers a polygon query cluster-wide: a batch of one.
func (c *Coordinator) Query(ctx context.Context, name string, poly *geom.Polygon, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) (geoblocks.Result, error) {
	res, err := c.QueryBatch(ctx, name, []*geom.Polygon{poly}, opts, reqs)
	if err != nil {
		return geoblocks.Result{}, err
	}
	return res[0], nil
}

// QueryRect answers a rectangle query cluster-wide: a rect join of one,
// not counted as a join.
func (c *Coordinator) QueryRect(ctx context.Context, name string, r geom.Rect, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) (geoblocks.Result, error) {
	s, err := c.scatter(ctx, name, opts, reqs, 1)
	if err != nil {
		return geoblocks.Result{}, err
	}
	res, _, err := s.d.JoinRectsVia(s, []geom.Rect{r}, opts, reqs)
	if err != nil {
		return geoblocks.Result{}, err
	}
	return res[0], nil
}

// QueryBatch answers one query per polygon, positionally aligned with
// polys: the cluster join without its stats. Per-element errors fail
// the batch (matching the single-node batch contract).
func (c *Coordinator) QueryBatch(ctx context.Context, name string, polys []*geom.Polygon, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) ([]geoblocks.Result, error) {
	s, err := c.scatter(ctx, name, opts, reqs, len(polys))
	if err != nil {
		return nil, err
	}
	res, _, err := s.d.JoinVia(s, polys, opts, reqs)
	return res, err
}

// Join answers a polygon join cluster-wide through the store's executor
// on the coordinator's copy of the dataset: one plan (level, coverings,
// routing), local shards as local tasks, the remote shards' parts packed
// into partial requests per replica chain, and each polygon's partials
// merged in ascending shard order. Per-polygon answers are therefore
// bit-identical to the single-node Join (and hence to N sequential
// queries) for COUNT/MIN/MAX. A successful join is folded into the
// dataset's join counters.
func (c *Coordinator) Join(ctx context.Context, name string, polys []*geom.Polygon, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) ([]geoblocks.Result, store.JoinStats, error) {
	s, err := c.scatter(ctx, name, opts, reqs, len(polys))
	if err != nil {
		return nil, store.JoinStats{}, err
	}
	res, stats, err := s.d.JoinVia(s, polys, opts, reqs)
	if err == nil {
		s.d.NoteJoin(stats)
	}
	return res, stats, err
}

// JoinRects is Join over rectangles — the window join, answered
// like the single-node JoinRects.
func (c *Coordinator) JoinRects(ctx context.Context, name string, rects []geom.Rect, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) ([]geoblocks.Result, store.JoinStats, error) {
	s, err := c.scatter(ctx, name, opts, reqs, len(rects))
	if err != nil {
		return nil, store.JoinStats{}, err
	}
	res, stats, err := s.d.JoinRectsVia(s, rects, opts, reqs)
	if err == nil {
		s.d.NoteJoin(stats)
	}
	return res, stats, err
}

// scatter validates the options, resolves the named dataset, counts the
// call's queries and returns its remote runner, bound to the current
// assignment.
func (c *Coordinator) scatter(ctx context.Context, name string, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest, queries int) (*scatter, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	d, ok := c.store.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	c.queries.Add(uint64(queries))
	return &scatter{c: c, ctx: ctx, d: d, assign: c.Assignment(), opts: opts, reqs: reqs}, nil
}

// maxRequestCells caps the covering cells of one partial request. A
// peer decodes each body serially, so a chain's parts travel as several
// requests, at most maxPeerConns in flight, rather than as one large
// body; a part larger than the cap goes alone.
const maxRequestCells = 4096

// scatter is one call's store.Remote: it answers the parts on shards
// whose replica chain excludes this node with partial requests to that
// chain.
type scatter struct {
	c      *Coordinator
	ctx    context.Context
	d      *store.Dataset
	assign *Assignment
	opts   geoblocks.QueryOptions
	reqs   []geoblocks.AggRequest
}

// Local reports whether this node is anywhere in the shard's replica
// chain — if so the shard is answered in process (never an RPC to self)
// and counted as one local task.
func (s *scatter) Local(cell cellid.ID) bool {
	if s.c.self == "" {
		return false
	}
	for _, n := range s.assign.Owners(cell) {
		if n.Name == s.c.self {
			s.c.localParts.Add(1)
			return true
		}
	}
	return false
}

// request is one partial request: a replica chain and the indexes of
// the subs it carries.
type request struct {
	chain []Node
	subs  []int
	cells int
}

// Run groups the parts by replica chain, packs each chain's parts in
// shard order into requests of at most maxRequestCells cells, and sends
// them with at most maxPeerConns in flight. Every failed request adds
// its shards to one UnavailableError.
func (s *scatter) Run(lvl int, subs []store.ShardSub, accs []*geoblocks.Accumulator) error {
	var requests []*request
	open := make(map[string]*request) // each chain's request being filled
	var chain []Node
	var key string
	for i, sub := range subs {
		if i == 0 || sub.Cell != subs[i-1].Cell {
			chain = s.assign.Owners(sub.Cell)
			key = chainKey(chain)
		}
		r := open[key]
		if r == nil || r.cells+len(sub.Sub) > maxRequestCells {
			r = &request{chain: chain}
			open[key] = r
			requests = append(requests, r)
		}
		r.subs = append(r.subs, i)
		r.cells += len(sub.Sub)
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed []cellid.ID
		cause  error
	)
	slots := make(chan struct{}, maxPeerConns)
	for _, r := range requests {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			if err := s.fetch(lvl, r, subs, accs); err != nil {
				mu.Lock()
				defer mu.Unlock()
				for _, i := range r.subs {
					failed = append(failed, subs[i].Cell)
				}
				cause = err
			}
		}()
	}
	wg.Wait()
	if len(failed) == 0 {
		return nil
	}
	s.c.unavailable.Add(1)
	slices.Sort(failed)
	return &UnavailableError{Dataset: s.d.Name(), Shards: slices.Compact(failed), Cause: cause}
}

func chainKey(chain []Node) string {
	names := make([]string, len(chain))
	for i, n := range chain {
		names[i] = n.Name
	}
	return strings.Join(names, ",")
}

// fetch sends one request to its replica chain and decodes the winning
// response into the accumulators of its subs. Decode validates the
// envelope (dataset, epoch, level, exact shard echo) before parsing
// frames, so a confused peer counts as a failed replica rather than
// contaminating the merge.
func (s *scatter) fetch(lvl int, r *request, subs []store.ShardSub, accs []*geoblocks.Accumulator) error {
	s.c.remoteCalls.Add(1)
	req := &PartialRequest{
		Dataset:      s.d.Name(),
		CodecVersion: CodecVersion,
		Epoch:        s.assign.Epoch(),
		Level:        lvl,
		Aggs:         AggsFromRequests(s.reqs),
		Shards:       make([]ShardReq, len(r.subs)),
		NoCache:      s.opts.DisableCache,
	}
	for k, i := range r.subs {
		req.Shards[k] = ShardReq{Cell: CellToken(subs[i].Cell), Cover: EncodeCells(subs[i].Sub)}
	}
	decode := func(pr *PartialResponse) (any, error) {
		if pr.Dataset != req.Dataset {
			return nil, fmt.Errorf("peer answered for dataset %q, asked %q", pr.Dataset, req.Dataset)
		}
		if pr.Epoch != req.Epoch {
			return nil, fmt.Errorf("peer answered under epoch %d, asked %d", pr.Epoch, req.Epoch)
		}
		if pr.Level != lvl {
			return nil, fmt.Errorf("peer answered at level %d, asked %d", pr.Level, lvl)
		}
		if len(pr.Shards) != len(req.Shards) {
			return nil, fmt.Errorf("peer answered %d shards, asked %d", len(pr.Shards), len(req.Shards))
		}
		got := make([]*geoblocks.Accumulator, len(pr.Shards))
		for k, sp := range pr.Shards {
			if sp.Cell != req.Shards[k].Cell {
				return nil, fmt.Errorf("peer shard %d is %s, asked %s", k, sp.Cell, req.Shards[k].Cell)
			}
			acc, err := s.d.DecodePartial(sp.Partial, s.reqs)
			if err != nil {
				return nil, fmt.Errorf("shard %s partial: %w", sp.Cell, err)
			}
			got[k] = acc
		}
		return got, nil
	}
	val, err := s.c.client.Fetch(s.ctx, r.chain, req, decode)
	if err != nil {
		return err
	}
	for k, acc := range val.([]*geoblocks.Accumulator) {
		accs[r.subs[k]] = acc
	}
	return nil
}

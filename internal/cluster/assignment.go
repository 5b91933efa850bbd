package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"time"

	"geoblocks/internal/cellid"
)

// Node is one cluster member: a stable name (the identity shards hash
// onto — survives address changes) and the HTTP address it serves on.
type Node struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// Config is the assignment file format (cmd/geoblocksd -cluster-config;
// see docs/OPERATIONS.md for the runbook). Every node of a cluster
// loads the same file; the coordinator additionally uses the client
// tuning fields.
type Config struct {
	// Epoch versions the assignment. Strictly positive; bump it on every
	// edit. Peers reject partial requests planned under a different
	// epoch, so a half-rolled-out assignment change fails loudly instead
	// of silently double- or zero-counting shards.
	Epoch uint64 `json:"epoch"`
	// Replication is the length of each shard's replica chain (default
	// 1, clamped to the node count). The first node of a chain is the
	// shard's primary; later nodes serve hedged and failover requests.
	Replication int `json:"replication,omitempty"`
	// Nodes lists the cluster members. Order is irrelevant — placement
	// uses rendezvous hashing over (node name, shard cell), so adding or
	// removing one node only moves the shards that touched it.
	Nodes []Node `json:"nodes"`
	// Shards optionally pins specific shard cells (hex cell tokens, e.g.
	// "0x4c00000000000000") to explicit replica chains of node names,
	// overriding the hash for those cells.
	Shards map[string][]string `json:"shards,omitempty"`

	// TimeoutMS bounds each partial request attempt (default 2000).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Retries is the per-replica retry budget after the first attempt
	// (default 1); retries back off exponentially from BackoffMS.
	Retries int `json:"retries,omitempty"`
	// BackoffMS is the initial retry backoff (default 25).
	BackoffMS int `json:"backoff_ms,omitempty"`
	// HedgeMS, when positive, starts a hedged request on the next
	// replica after this many milliseconds without an answer; 0 disables
	// hedging (later replicas serve only as failover).
	HedgeMS int `json:"hedge_ms,omitempty"`
}

// validate checks structural invariants shared by every node.
func (c *Config) validate() error {
	if c.Epoch == 0 {
		return fmt.Errorf("cluster: assignment epoch must be positive")
	}
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: assignment lists no nodes")
	}
	seen := make(map[string]bool, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.Name == "" || n.Addr == "" {
			return fmt.Errorf("cluster: node entries need both name and addr (got name=%q addr=%q)", n.Name, n.Addr)
		}
		if seen[n.Name] {
			return fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	if c.Replication < 0 {
		return fmt.Errorf("cluster: negative replication %d", c.Replication)
	}
	for tok, chain := range c.Shards {
		if _, err := ParseCell(tok); err != nil {
			return fmt.Errorf("cluster: static shard key %q: %w", tok, err)
		}
		if len(chain) == 0 {
			return fmt.Errorf("cluster: static shard %q has an empty replica chain", tok)
		}
		for _, name := range chain {
			if !seen[name] {
				return fmt.Errorf("cluster: static shard %q names unknown node %q", tok, name)
			}
		}
	}
	return nil
}

// Timeout returns the per-attempt timeout.
func (c *Config) Timeout() time.Duration {
	if c.TimeoutMS <= 0 {
		return 2 * time.Second
	}
	return time.Duration(c.TimeoutMS) * time.Millisecond
}

// Backoff returns the initial retry backoff.
func (c *Config) Backoff() time.Duration {
	if c.BackoffMS <= 0 {
		return 25 * time.Millisecond
	}
	return time.Duration(c.BackoffMS) * time.Millisecond
}

// Hedge returns the hedge delay, 0 when hedging is disabled.
func (c *Config) Hedge() time.Duration {
	if c.HedgeMS <= 0 {
		return 0
	}
	return time.Duration(c.HedgeMS) * time.Millisecond
}

// RetryBudget returns the per-replica retry count.
func (c *Config) RetryBudget() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 1
	}
	return c.Retries
}

// Parse decodes and validates an assignment config.
func Parse(data []byte) (*Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("cluster: parsing assignment: %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadFile reads and parses an assignment config file.
func LoadFile(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading assignment: %w", err)
	}
	return Parse(data)
}

// CellToken formats a shard cell for the wire and the assignment file.
func CellToken(id cellid.ID) string { return fmt.Sprintf("%#x", uint64(id)) }

// ParseCell parses a wire cell token (hex or decimal uint64) into a
// valid cell id.
func ParseCell(tok string) (cellid.ID, error) {
	v, err := strconv.ParseUint(tok, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad cell token %q: %v", tok, err)
	}
	id := cellid.ID(v)
	if !id.IsValid() {
		return 0, fmt.Errorf("bad cell token %q: not a valid cell id", tok)
	}
	return id, nil
}

// Assignment is a resolved shard→replica-chain mapping.
type Assignment struct {
	cfg    *Config
	static map[cellid.ID][]Node
}

// NewAssignment resolves a validated config.
func NewAssignment(cfg *Config) *Assignment {
	nodes := make(map[string]Node, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		nodes[n.Name] = n
	}
	static := make(map[cellid.ID][]Node, len(cfg.Shards))
	for tok, chain := range cfg.Shards {
		id, _ := ParseCell(tok) // validated by Parse
		rep := make([]Node, len(chain))
		for i, name := range chain {
			rep[i] = nodes[name]
		}
		static[id] = rep
	}
	return &Assignment{cfg: cfg, static: static}
}

// Epoch returns the assignment's epoch.
func (a *Assignment) Epoch() uint64 { return a.cfg.Epoch }

// Config returns the underlying config.
func (a *Assignment) Config() *Config { return a.cfg }

// Replication returns the effective replica-chain length.
func (a *Assignment) Replication() int {
	r := a.cfg.Replication
	if r <= 0 {
		r = 1
	}
	if r > len(a.cfg.Nodes) {
		r = len(a.cfg.Nodes)
	}
	return r
}

// Owners returns the shard's replica chain, primary first. Static
// entries win; everything else places by rendezvous (highest-random-
// weight) hashing: each node scores fnv64a(name ":" cellToken) and the
// top Replication scores own the shard. Per shard the chain is a
// uniform pseudo-random permutation prefix, so load spreads across
// nodes and a node's removal only reassigns the shards it owned.
func (a *Assignment) Owners(cell cellid.ID) []Node {
	if chain, ok := a.static[cell]; ok {
		return chain
	}
	tok := CellToken(cell)
	type scored struct {
		score uint64
		node  Node
	}
	sc := make([]scored, len(a.cfg.Nodes))
	for i, n := range a.cfg.Nodes {
		h := fnv.New64a()
		h.Write([]byte(n.Name))
		h.Write([]byte{':'})
		h.Write([]byte(tok))
		sc[i] = scored{score: h.Sum64(), node: n}
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].score != sc[j].score {
			return sc[i].score > sc[j].score
		}
		return sc[i].node.Name < sc[j].node.Name
	})
	chain := make([]Node, a.Replication())
	for i := range chain {
		chain[i] = sc[i].node
	}
	return chain
}

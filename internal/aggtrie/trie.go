package aggtrie

import (
	"fmt"
	"math"

	"geoblocks/internal/cellid"
	"geoblocks/internal/core"
)

// node is one trie node: childOff is the arena index of the node's first
// child (children are allocated as contiguous blocks of four), aggOff is
// the 1-based aggregate slot of the node's cell. Zero means absent.
type node struct {
	childOff uint32
	aggOff   uint32
}

// nodeBytes is the serialized size of a node (two 32-bit offsets, paper
// Fig. 7).
const nodeBytes = 8

// Trie is the arena-backed AggregateTrie. The zero Trie is empty; build
// one with BuildTrie.
type Trie struct {
	rootCell cellid.ID
	nodes    []node
	// Aggregate slots, 1-based: slot s occupies counts[s-1], ends[s-1]
	// and cols[(s-1)*numCols : s*numCols]. ends memoises the index one
	// past the cell's last aggregate in the block, letting cache hits
	// advance the scan cursor in constant time.
	counts  []uint64
	ends    []uint32
	cols    []core.ColAggregate
	numCols int
	// slotBytes is the accounted size of one aggregate record.
	slotBytes int
}

// NumNodes returns the number of allocated trie nodes.
func (t *Trie) NumNodes() int { return len(t.nodes) }

// NumCached returns the number of cached aggregate records.
func (t *Trie) NumCached() int { return len(t.counts) }

// SizeBytes returns the arena footprint: nodes plus aggregate slots. This
// is the quantity bounded by the cache budget (the paper's aggregate
// threshold).
func (t *Trie) SizeBytes() int {
	return len(t.nodes)*nodeBytes + len(t.counts)*t.slotBytes
}

// locate walks the trie from the root to the node for cell. It returns the
// node index and true, or false when the path does not exist. cell must be
// a descendant-or-self of the root cell.
//
// The walk reads the child steps directly from the cell id's Hilbert
// position bits: the low 2·depth bits of cell.Pos() are exactly the child
// positions below the root, two bits per level. The probe happens for
// every coarse covering cell of every cached query, so it must stay in the
// tens-of-nanoseconds range (the paper reports 58-81 ns lookups).
func (t *Trie) locate(cell cellid.ID) (int, bool) {
	if len(t.nodes) == 0 || !t.rootCell.Contains(cell) {
		return 0, false
	}
	depth := cell.Level() - t.rootCell.Level()
	pos := cell.Pos()
	idx := 0
	for d := depth - 1; d >= 0; d-- {
		childBlock := t.nodes[idx].childOff
		if childBlock == 0 {
			return 0, false
		}
		idx = int(childBlock) + int(pos>>uint(2*d))&3
	}
	return idx, true
}

// Lookup returns the cached aggregate record for cell, if present.
func (t *Trie) Lookup(cell cellid.ID) (count uint64, cols []core.ColAggregate, ok bool) {
	idx, found := t.locate(cell)
	if !found || t.nodes[idx].aggOff == 0 {
		return 0, nil, false
	}
	count, cols, _ = t.record(t.nodes[idx].aggOff)
	return count, cols, true
}

// record returns the slot's aggregate record and its memoised range end.
func (t *Trie) record(aggOff uint32) (uint64, []core.ColAggregate, int) {
	s := int(aggOff) - 1
	return t.counts[s], t.cols[s*t.numCols : (s+1)*t.numCols], int(t.ends[s])
}

// childState describes the cached direct children of a located node.
type childState struct {
	// present is true when the node has an allocated child block.
	present bool
	// cached[i] is the aggregate slot of child i (0 = not cached).
	cached [4]uint32
}

// children reports which direct children of cell carry cached aggregates.
func (t *Trie) children(nodeIdx int) childState {
	st := childState{}
	off := t.nodes[nodeIdx].childOff
	if off == 0 {
		return st
	}
	st.present = true
	for i := 0; i < 4; i++ {
		st.cached[i] = t.nodes[int(off)+i].aggOff
	}
	return st
}

// insertPathCost returns the bytes needed to insert cell: 4 nodes for
// every missing child block on the path plus one aggregate slot. It
// returns -1 when cell is already cached or outside the root.
func (t *Trie) insertPathCost(cell cellid.ID) int {
	if !t.rootCell.Contains(cell) {
		return -1
	}
	cost := t.slotBytes
	idx := 0
	for level := t.rootCell.Level() + 1; level <= cell.Level(); level++ {
		childBlock := t.nodes[idx].childOff
		if childBlock == 0 {
			// This block plus all deeper ones must be created.
			remaining := cell.Level() - level + 1
			return cost + remaining*4*nodeBytes
		}
		idx = int(childBlock) + cell.Parent(level).ChildPosition()
	}
	if t.nodes[idx].aggOff != 0 {
		return -1
	}
	return cost
}

// insert adds cell with the given aggregate record, allocating path nodes
// as needed. It must only be called after insertPathCost confirmed
// feasibility.
func (t *Trie) insert(cell cellid.ID, count uint64, cols []core.ColAggregate, end int) {
	idx := 0
	for level := t.rootCell.Level() + 1; level <= cell.Level(); level++ {
		if t.nodes[idx].childOff == 0 {
			off := uint32(len(t.nodes))
			t.nodes = append(t.nodes, node{}, node{}, node{}, node{})
			t.nodes[idx].childOff = off
		}
		idx = int(t.nodes[idx].childOff) + cell.Parent(level).ChildPosition()
	}
	t.counts = append(t.counts, count)
	t.ends = append(t.ends, uint32(end))
	t.cols = append(t.cols, cols...)
	t.nodes[idx].aggOff = uint32(len(t.counts)) // 1-based
}

// BuildTrie materialises a trie caching the given cells (already ordered
// by priority) over the block, stopping at the first cell whose insertion
// would exceed budgetBytes. Cells outside the block's enclosing root cell
// or duplicates are skipped.
func BuildTrie(b *core.GeoBlock, cells []cellid.ID, budgetBytes int) *Trie {
	t := &Trie{
		rootCell: enclosingRoot(b),
		numCols:  b.Schema().NumCols(),
		// Each slot additionally stores the 4-byte memoised range end.
		slotBytes: b.AggSlotBytes() + 4,
	}
	t.nodes = append(t.nodes, node{}) // root
	used := nodeBytes
	for _, cell := range cells {
		cost := t.insertPathCost(cell)
		if cost < 0 {
			continue
		}
		if used+cost > budgetBytes {
			break
		}
		count, cols, end := b.AggregateCellRange(cell)
		t.insert(cell, count, cols, end)
		used += cost
	}
	return t
}

// enclosingRoot returns the smallest cell containing all of the block's
// data, or the hierarchy root for empty blocks.
func enclosingRoot(b *core.GeoBlock) cellid.ID {
	h := b.Header()
	if h.Count == 0 {
		return cellid.Root()
	}
	lvl, ok := h.MinCell.CommonAncestorLevel(h.MaxCell)
	if !ok {
		return cellid.Root()
	}
	return h.MinCell.Parent(lvl)
}

// Validate checks structural invariants of the trie; tests use it after
// builds and it is cheap enough for debug assertions.
func (t *Trie) Validate() error {
	if len(t.nodes) == 0 {
		return nil
	}
	if (len(t.nodes)-1)%4 != 0 {
		return fmt.Errorf("aggtrie: node count %d is not 1+4k", len(t.nodes))
	}
	for i, n := range t.nodes {
		if n.childOff != 0 {
			if int(n.childOff)+3 >= len(t.nodes) {
				return fmt.Errorf("aggtrie: node %d child block %d out of range", i, n.childOff)
			}
			if int(n.childOff) <= i {
				return fmt.Errorf("aggtrie: node %d child block %d not forward", i, n.childOff)
			}
		}
		if n.aggOff != 0 && int(n.aggOff) > len(t.counts) {
			return fmt.Errorf("aggtrie: node %d aggregate slot %d out of range", i, n.aggOff)
		}
	}
	if len(t.cols) != len(t.counts)*t.numCols {
		return fmt.Errorf("aggtrie: cols length %d != %d slots × %d cols", len(t.cols), len(t.counts), t.numCols)
	}
	if len(t.ends) != len(t.counts) {
		return fmt.Errorf("aggtrie: ends length %d != %d slots", len(t.ends), len(t.counts))
	}
	for _, c := range t.counts {
		if c > math.MaxInt64 {
			return fmt.Errorf("aggtrie: implausible count %d", c)
		}
	}
	return nil
}

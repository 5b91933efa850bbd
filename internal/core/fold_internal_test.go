package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"geoblocks/internal/cellid"
	"geoblocks/internal/column"
	"geoblocks/internal/geom"
)

// TestFoldRowsSizesExactly checks that the fold's first pass counts the
// cells the rows open, so the merge fills arrays allocated at their final
// length and never regrows one.
func TestFoldRowsSizesExactly(t *testing.T) {
	f := newFixture(t, 5000, 41)
	filter := column.Filter{{Col: 1, Op: column.OpLe, Value: 15}}
	for _, level := range []int{6, 12, 16} {
		b := f.build(t, level, filter)
		rng := rand.New(rand.NewSource(int64(level)))
		const n = 3000
		leaves := make([]cellid.ID, n)
		cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
		for i := range leaves {
			leaves[i] = f.dom.FromPoint(geom.Pt(rng.Float64()*100, rng.Float64()*100))
			cols[1][i] = rng.Float64() * 20
		}
		slices.Sort(leaves)
		nb, err := FoldRows(b, leaves, cols)
		if err != nil {
			t.Fatal(err)
		}
		arrays := [][2]int{{len(nb.keys), cap(nb.keys)}, {len(nb.counts), cap(nb.counts)},
			{len(nb.minKeys), cap(nb.minKeys)}, {len(nb.maxKeys), cap(nb.maxKeys)}}
		for c := range nb.cols {
			cs := &nb.cols[c]
			arrays = append(arrays, [2]int{len(cs.sums), cap(cs.sums)},
				[2]int{len(cs.mins), cap(cs.mins)}, [2]int{len(cs.maxs), cap(cs.maxs)})
		}
		for k, lc := range arrays {
			if lc[0] != lc[1] {
				t.Fatalf("level %d: array %d has length %d but capacity %d", level, k, lc[0], lc[1])
			}
		}
		if nb.NumCells() <= b.NumCells() {
			t.Fatalf("level %d: fold opened no cells (%d → %d); the check is vacuous", level, b.NumCells(), nb.NumCells())
		}
	}
}

// TestFoldRowsCopiesUntouchedCellsVerbatim holds FoldRows to its promise
// that a cell no row touches is copied bit for bit: a few rows folded into
// a block of tens of thousands of cells must leave every other cell's key,
// count, min/max leaf keys and per-column sums/mins/maxs equal to the
// input block's, floats compared by their bits.
func TestFoldRowsCopiesUntouchedCellsVerbatim(t *testing.T) {
	f := newFixture(t, 60_000, 43)
	b := f.build(t, 16, nil)
	if b.NumCells() < 8*yieldStride {
		t.Fatalf("block has %d cells; want several yield strides of untouched runs", b.NumCells())
	}
	rng := rand.New(rand.NewSource(43))
	const n = 12
	leaves := make([]cellid.ID, n)
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := range leaves {
		leaves[i] = f.dom.FromPoint(geom.Pt(rng.Float64()*100, rng.Float64()*100))
		for c := range cols {
			cols[c][i] = rng.Float64() * 10
		}
	}
	slices.Sort(leaves)
	touched := make(map[cellid.ID]bool, n)
	for _, leaf := range leaves {
		touched[leaf.Parent(b.level)] = true
	}
	nb, err := FoldRows(b, leaves, cols)
	if err != nil {
		t.Fatal(err)
	}
	untouched := 0
	for i, key := range b.keys {
		if touched[key] {
			continue
		}
		untouched++
		k, ok := slices.BinarySearch(nb.keys, key)
		if !ok {
			t.Fatalf("base cell %v (index %d) is missing from the folded block", key, i)
		}
		if nb.counts[k] != b.counts[i] || nb.minKeys[k] != b.minKeys[i] || nb.maxKeys[k] != b.maxKeys[i] {
			t.Fatalf("cell %v: count/min/max keys %d %v %v, want %d %v %v", key,
				nb.counts[k], nb.minKeys[k], nb.maxKeys[k], b.counts[i], b.minKeys[i], b.maxKeys[i])
		}
		for c := range b.cols {
			got, want := &nb.cols[c], &b.cols[c]
			for _, p := range [][2]float64{{got.sums[k], want.sums[i]}, {got.mins[k], want.mins[i]}, {got.maxs[k], want.maxs[i]}} {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Fatalf("cell %v column %d: sums/mins/maxs differ (%v vs %v)", key, c, p[0], p[1])
				}
			}
		}
	}
	if untouched == 0 || untouched == b.NumCells() {
		t.Fatalf("%d of %d cells untouched; the check is vacuous", untouched, b.NumCells())
	}
	if want := untouched + len(touched); nb.NumCells() != want {
		t.Fatalf("folded block has %d cells, want %d untouched + %d touched", nb.NumCells(), untouched, len(touched))
	}
}

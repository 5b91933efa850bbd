package core

import (
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

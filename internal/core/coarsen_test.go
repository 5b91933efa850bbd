package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"geoblocks/internal/cellid"
	"geoblocks/internal/column"
)

// referenceCoarsen is the one-cell-at-a-time append loop Coarsen replaced,
// kept as the oracle its exact-size passes must reproduce bit for bit.
func referenceCoarsen(b *GeoBlock, newLevel int) *GeoBlock {
	out := &GeoBlock{
		domain: b.domain,
		level:  newLevel,
		schema: b.schema,
		filter: b.filter,
		cols:   make([]colStore, len(b.cols)),
		base:   b.base,
		header: Header{
			Count: b.header.Count,
			Cols:  append([]ColAggregate(nil), b.header.Cols...),
		},
	}
	var cur cellid.ID
	open := false
	for i := range b.keys {
		parent := b.keys[i].Parent(newLevel)
		if !open || parent != cur {
			out.keys = append(out.keys, parent)
			out.offsets = append(out.offsets, b.offsets[i])
			out.counts = append(out.counts, 0)
			out.minKeys = append(out.minKeys, b.minKeys[i])
			out.maxKeys = append(out.maxKeys, b.maxKeys[i])
			for c := range out.cols {
				out.cols[c].appendEmpty()
			}
			cur, open = parent, true
		}
		last := len(out.keys) - 1
		out.counts[last] += b.counts[i]
		if b.minKeys[i] < out.minKeys[last] {
			out.minKeys[last] = b.minKeys[i]
		}
		if b.maxKeys[i] > out.maxKeys[last] {
			out.maxKeys[last] = b.maxKeys[i]
		}
		for c := range out.cols {
			src, dst := &b.cols[c], &out.cols[c]
			if src.mins[i] < dst.mins[last] {
				dst.mins[last] = src.mins[i]
			}
			if src.maxs[i] > dst.maxs[last] {
				dst.maxs[last] = src.maxs[i]
			}
			dst.sums[last] += src.sums[i]
		}
	}
	if len(out.keys) > 0 {
		out.header.MinCell = out.keys[0]
		out.header.MaxCell = out.keys[len(out.keys)-1]
	}
	out.buildPrefixes()
	return out
}

// requireSameBits fails unless got and want agree on every field, floats
// compared by their bit patterns (so -0 differs from +0 and NaN payloads
// count).
func requireSameBits(t *testing.T, name string, got, want *GeoBlock) {
	t.Helper()
	if got.level != want.level || got.domain != want.domain || got.base != want.base || got.mapped != want.mapped {
		t.Fatalf("%s: block identity differs: level %d/%d mapped %v/%v", name, got.level, want.level, got.mapped, want.mapped)
	}
	if !reflect.DeepEqual(got.schema, want.schema) || len(got.filter) != len(want.filter) {
		t.Fatalf("%s: schema or filter differs", name)
	}
	for i, p := range want.filter {
		if g := got.filter[i]; g.Col != p.Col || g.Op != p.Op || math.Float64bits(g.Value) != math.Float64bits(p.Value) {
			t.Fatalf("%s: filter predicate %d is %+v, want %+v", name, i, g, p)
		}
	}
	n := len(want.keys)
	if len(got.keys) != n || len(got.offsets) != n || len(got.counts) != n ||
		len(got.minKeys) != n || len(got.maxKeys) != n || len(got.cols) != len(want.cols) {
		t.Fatalf("%s: %d cells × %d cols, want %d × %d", name, len(got.keys), len(got.cols), n, len(want.cols))
	}
	for i := 0; i < n; i++ {
		if got.keys[i] != want.keys[i] || got.offsets[i] != want.offsets[i] || got.counts[i] != want.counts[i] ||
			got.minKeys[i] != want.minKeys[i] || got.maxKeys[i] != want.maxKeys[i] {
			t.Fatalf("%s: cell %d: key %v off %d count %d keys [%v,%v], want %v %d %d [%v,%v]", name, i,
				got.keys[i], got.offsets[i], got.counts[i], got.minKeys[i], got.maxKeys[i],
				want.keys[i], want.offsets[i], want.counts[i], want.minKeys[i], want.maxKeys[i])
		}
	}
	sameFloats := func(what string, c int, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: col %d %s has %d entries, want %d", name, c, what, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: col %d %s[%d] = %v (%#x), want %v (%#x)", name, c, what, i,
					g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
			}
		}
	}
	for c := range want.cols {
		sameFloats("sums", c, got.cols[c].sums, want.cols[c].sums)
		sameFloats("mins", c, got.cols[c].mins, want.cols[c].mins)
		sameFloats("maxs", c, got.cols[c].maxs, want.cols[c].maxs)
		sameFloats("prefix", c, got.cols[c].prefix, want.cols[c].prefix)
	}
	gh, wh := got.header, want.header
	if gh.MinCell != wh.MinCell || gh.MaxCell != wh.MaxCell || gh.Count != wh.Count || len(gh.Cols) != len(wh.Cols) {
		t.Fatalf("%s: header %+v, want %+v", name, gh, wh)
	}
	for c := range wh.Cols {
		sameFloats("header", c,
			[]float64{gh.Cols[c].Min, gh.Cols[c].Max, gh.Cols[c].Sum},
			[]float64{wh.Cols[c].Min, wh.Cols[c].Max, wh.Cols[c].Sum})
	}
}

// specialValues rewrites the per-cell aggregates of columns 0 and 1 with
// signed zeros, infinities and NaNs: runs of -0.0 sums (a fold seeded from
// anything but +0 keeps the sign), ±Inf sums and extremes, and NaN minima
// and maxima that must never win a comparison.
func specialValues(b *GeoBlock) *GeoBlock {
	negZero := math.Copysign(0, -1)
	for i := range b.keys {
		cs := &b.cols[0]
		switch {
		case (i/8)%4 == 0:
			cs.sums[i], cs.mins[i], cs.maxs[i] = negZero, negZero, negZero
		case i%50 == 17:
			cs.sums[i], cs.maxs[i] = math.Inf(1), math.Inf(1)
		case i%50 == 33:
			cs.sums[i], cs.mins[i] = math.Inf(-1), math.Inf(-1)
		}
		if i%7 == 3 {
			b.cols[1].mins[i], b.cols[1].maxs[i] = math.NaN(), math.NaN()
		}
		if i%97 == 5 {
			b.cols[1].sums[i] = math.NaN()
		}
	}
	b.buildPrefixes()
	return b
}

func TestCoarsenMatchesReference(t *testing.T) {
	sparse := newFixture(t, 20000, 31)
	dense := newFixture(t, 30000, 32)
	filter := column.Filter{{Col: 1, Op: column.OpLe, Value: 8}}
	nothing := column.Filter{{Col: 2, Op: column.OpGe, Value: 100}}

	sparseFine := sparse.build(t, 14, nil)
	mapped, err := MapBlock(sparseFine.EncodeV3())
	if err != nil {
		t.Fatal(err)
	}
	mappedSpecial, err := MapBlock(specialValues(sparse.build(t, 14, nil)).EncodeV3())
	if err != nil {
		t.Fatal(err)
	}
	empty := sparse.build(t, 10, nothing)
	if empty.NumCells() != 0 {
		t.Fatalf("empty fixture has %d cells", empty.NumCells())
	}
	cases := []struct {
		name   string
		fine   *GeoBlock
		levels []int
	}{
		{"sparse", sparseFine, []int{14, 13, 12, 10, 7, 0}},
		{"dense", dense.build(t, 8, nil), []int{8, 7, 5, 2, 0}},
		{"filtered", sparse.build(t, 12, filter), []int{11, 9, 4}},
		{"empty", empty, []int{9, 0}},
		{"special values", specialValues(sparse.build(t, 14, nil)), []int{13, 12, 9, 0}},
		{"special values dense", specialValues(dense.build(t, 9, nil)), []int{8, 6}},
		{"mapped", mapped, []int{13, 11, 0}},
		{"mapped special values", mappedSpecial, []int{12, 0}},
	}
	for _, tc := range cases {
		// Each level straight from the fine block (14 → 0 is one parent
		// over one long run) ...
		for _, lvl := range tc.levels {
			got, err := Coarsen(tc.fine, lvl)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, fmt.Sprintf("%s: %d → %d", tc.name, tc.fine.Level(), lvl), got, referenceCoarsen(tc.fine, lvl))
		}
		// ... and as a pyramid, each level from the one above it.
		got, want := tc.fine, tc.fine
		for lvl := tc.fine.Level() - 1; lvl >= 0 && lvl >= tc.fine.Level()-4; lvl-- {
			var err error
			if got, err = Coarsen(got, lvl); err != nil {
				t.Fatal(err)
			}
			want = referenceCoarsen(want, lvl)
			requireSameBits(t, fmt.Sprintf("%s: pyramid level %d", tc.name, lvl), got, want)
		}
	}
}

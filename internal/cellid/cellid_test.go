package cellid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"geoblocks/internal/geom"
)

func TestRootProperties(t *testing.T) {
	r := Root()
	if !r.IsValid() {
		t.Fatalf("root invalid")
	}
	if r.Level() != 0 {
		t.Fatalf("root level = %d, want 0", r.Level())
	}
	if r.IsLeaf() {
		t.Fatalf("root must not be a leaf")
	}
	if r.Pos() != 0 {
		t.Fatalf("root pos = %d, want 0", r.Pos())
	}
}

func TestFromPosRoundTrip(t *testing.T) {
	for _, level := range []int{0, 1, 2, 5, 11, 17, 30} {
		n := uint64(1) << uint(2*level)
		step := n/1000 + 1
		for pos := uint64(0); pos < n; pos += step {
			id := FromPos(pos, level)
			if !id.IsValid() {
				t.Fatalf("level %d pos %d: invalid id", level, pos)
			}
			if got := id.Level(); got != level {
				t.Fatalf("level %d pos %d: Level() = %d", level, pos, got)
			}
			if got := id.Pos(); got != pos {
				t.Fatalf("level %d pos %d: Pos() = %d", level, pos, got)
			}
		}
	}
}

func TestIJRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, level := range []int{1, 2, 7, 15, 30} {
		max := uint32(1) << uint(level)
		for trial := 0; trial < 500; trial++ {
			i := rng.Uint32() % max
			j := rng.Uint32() % max
			id := FromIJ(i, j, level)
			gi, gj := id.IJ()
			if gi != i || gj != j {
				t.Fatalf("level %d: FromIJ(%d,%d).IJ() = (%d,%d)", level, i, j, gi, gj)
			}
		}
	}
}

func TestHilbertIsBijectiveAtSmallLevels(t *testing.T) {
	for level := uint(0); level <= 6; level++ {
		n := uint32(1) << level
		seen := make(map[uint64]bool, int(n)*int(n))
		for i := uint32(0); i < n; i++ {
			for j := uint32(0); j < n; j++ {
				pos := ijToPos(i, j, level)
				if pos >= uint64(n)*uint64(n) {
					t.Fatalf("level %d: pos %d out of range", level, pos)
				}
				if seen[pos] {
					t.Fatalf("level %d: pos %d visited twice", level, pos)
				}
				seen[pos] = true
				ri, rj := posToIJ(pos, level)
				if ri != i || rj != j {
					t.Fatalf("level %d: (%d,%d) -> %d -> (%d,%d)", level, i, j, pos, ri, rj)
				}
			}
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// Consecutive positions on a Hilbert curve are adjacent grid cells:
	// this is the locality property that makes the sorted aggregate layout
	// scan-friendly.
	for level := uint(1); level <= 8; level++ {
		n := uint64(1) << (2 * level)
		pi, pj := posToIJ(0, level)
		for pos := uint64(1); pos < n; pos++ {
			i, j := posToIJ(pos, level)
			di := int64(i) - int64(pi)
			dj := int64(j) - int64(pj)
			if di*di+dj*dj != 1 {
				t.Fatalf("level %d: pos %d at (%d,%d) not adjacent to pos %d at (%d,%d)",
					level, pos, i, j, pos-1, pi, pj)
			}
			pi, pj = i, j
		}
	}
}

func TestParentChildRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		level := 1 + rng.Intn(MaxLevel)
		pos := rng.Uint64() % NumCells(level)
		id := FromPos(pos, level)

		parent := id.ImmediateParent()
		if parent.Level() != level-1 {
			t.Fatalf("parent level = %d, want %d", parent.Level(), level-1)
		}
		if !parent.Contains(id) {
			t.Fatalf("parent %v does not contain child %v", parent, id)
		}
		if id.Parent(level-1) != parent {
			t.Fatalf("Parent(level-1) != ImmediateParent")
		}
		// id must be one of parent's children, at index ChildPosition.
		children := parent.Children()
		found := -1
		for k, c := range children {
			if c == id {
				found = k
			}
			if c.ImmediateParent() != parent {
				t.Fatalf("child %v has parent %v, want %v", c, c.ImmediateParent(), parent)
			}
			if c.Level() != level {
				t.Fatalf("child level = %d, want %d", c.Level(), level)
			}
		}
		if found == -1 {
			t.Fatalf("id %v not among children of %v", id, parent)
		}
		if got := id.ChildPosition(); got != found {
			t.Fatalf("ChildPosition = %d, want %d", got, found)
		}
	}
}

func TestRangeNesting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		level := rng.Intn(MaxLevel) // strictly above leaf
		id := FromPos(rng.Uint64()%NumCells(level), level)
		min, max := id.RangeMin(), id.RangeMax()
		if !min.IsLeaf() || !max.IsLeaf() {
			t.Fatalf("range bounds must be leaves: %v %v", min, max)
		}
		for _, c := range id.Children() {
			if c.RangeMin() < min || c.RangeMax() > max {
				t.Fatalf("child range [%v,%v] escapes parent range [%v,%v]",
					c.RangeMin(), c.RangeMax(), min, max)
			}
		}
		// Children ranges tile the parent range exactly.
		ch := id.Children()
		if ch[0].RangeMin() != min || ch[3].RangeMax() != max {
			t.Fatalf("children do not start/end at parent range bounds")
		}
		for k := 0; k < 3; k++ {
			if uint64(ch[k].RangeMax())+2 != uint64(ch[k+1].RangeMin()) {
				t.Fatalf("children %d and %d ranges not contiguous", k, k+1)
			}
		}
	}
}

func TestContainsIsPrefixContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		lvlA := rng.Intn(MaxLevel + 1)
		a := FromPos(rng.Uint64()%NumCells(lvlA), lvlA)
		lvlB := rng.Intn(MaxLevel + 1)
		b := FromPos(rng.Uint64()%NumCells(lvlB), lvlB)

		want := lvlB >= lvlA && b.Parent(lvlA) == a
		if got := a.Contains(b); got != want {
			t.Fatalf("%v.Contains(%v) = %t, want %t", a, b, got, want)
		}
		wantInter := a.Contains(b) || b.Contains(a)
		if got := a.Intersects(b); got != wantInter {
			t.Fatalf("%v.Intersects(%v) = %t, want %t", a, b, got, wantInter)
		}
	}
}

func TestChildBeginEndAt(t *testing.T) {
	id := Root()
	for level := 0; level <= MaxLevel; level += 5 {
		begin := id.ChildBeginAt(level)
		end := id.ChildEndAt(level)
		if begin.Level() != level || end.Level() != level {
			t.Fatalf("level %d: begin/end levels %d/%d", level, begin.Level(), end.Level())
		}
		if begin.Pos() != 0 {
			t.Fatalf("level %d: begin pos %d", level, begin.Pos())
		}
		if end.Pos() != NumCells(level)-1 {
			t.Fatalf("level %d: end pos %d", level, end.Pos())
		}
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		lvl := rng.Intn(20)
		id := FromPos(rng.Uint64()%NumCells(lvl), lvl)
		maxGap := MaxLevel - lvl
		if maxGap > 5 {
			maxGap = 5 // keep the exhaustive child walk below 4^5 cells
		}
		sub := lvl + 1 + rng.Intn(maxGap)
		begin, end := id.ChildBeginAt(sub), id.ChildEndAt(sub)
		if begin.RangeMin() != id.RangeMin() {
			t.Fatalf("first child at level %d does not align with parent range min", sub)
		}
		if end.RangeMax() != id.RangeMax() {
			t.Fatalf("last child at level %d does not align with parent range max", sub)
		}
		want := NumCells(sub - lvl)
		n := uint64(0)
		for c := begin; ; c = c.Next() {
			n++
			if c == end {
				break
			}
			if n > want {
				t.Fatalf("overran children: %d > %d", n, want)
			}
		}
		if n != want {
			t.Fatalf("child count at level %d = %d, want %d", sub, n, want)
		}
	}
}

func TestNextPrev(t *testing.T) {
	id := Begin(8)
	for k := 0; k < 100; k++ {
		next := id.Next()
		if next.Prev() != id {
			t.Fatalf("Prev(Next(%v)) != id", id)
		}
		if next.Pos() != id.Pos()+1 {
			t.Fatalf("Next pos = %d, want %d", next.Pos(), id.Pos()+1)
		}
		id = next
	}
}

func TestQuickOrderPreservation(t *testing.T) {
	// Cell id order at a fixed level equals Hilbert position order: the
	// sorted aggregate layout depends on this.
	f := func(p1, p2 uint32) bool {
		const level = 16
		a := FromPos(uint64(p1)%NumCells(level), level)
		b := FromPos(uint64(p2)%NumCells(level), level)
		return (a < b) == (a.Pos() < b.Pos())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParentContainsPoint(t *testing.T) {
	dom := MustDomain(geom.Rect{Min: geom.Pt(-74.3, 40.5), Max: geom.Pt(-73.7, 40.95)})
	f := func(fx, fy uint16, lvl8 uint8) bool {
		level := int(lvl8) % (MaxLevel + 1)
		p := geom.Pt(
			dom.Bound().Min.X+float64(fx)/65536*dom.Bound().Width(),
			dom.Bound().Min.Y+float64(fy)/65536*dom.Bound().Height(),
		)
		leaf := dom.FromPoint(p)
		cell := dom.CellAt(p, level)
		if !cell.Contains(leaf) {
			return false
		}
		// The cell rectangle must contain the point.
		return dom.CellRect(cell).ContainsPoint(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDomainCellRectTiling(t *testing.T) {
	dom := MustDomain(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(16, 16)})
	// At level 2 the 16 cells must tile the domain without gaps/overlap.
	level := 2
	total := 0.0
	for id := Begin(level); ; id = id.Next() {
		r := dom.CellRect(id)
		if r.Width() != 4 || r.Height() != 4 {
			t.Fatalf("cell %v rect %v, want 4x4", id, r)
		}
		total += r.Area()
		if id == End(level).Prev() {
			break
		}
	}
	if total != 256 {
		t.Fatalf("tiled area = %g, want 256", total)
	}
}

func TestCellDiagonalHalvesPerLevel(t *testing.T) {
	dom := MustDomain(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 50)})
	for level := 0; level < 20; level++ {
		d0 := dom.CellDiagonal(level)
		d1 := dom.CellDiagonal(level + 1)
		if ratio := d0 / d1; ratio < 1.999 || ratio > 2.001 {
			t.Fatalf("diagonal ratio level %d->%d = %g, want 2", level, level+1, ratio)
		}
	}
}

func TestLevelForMaxDiagonal(t *testing.T) {
	dom := MustDomain(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1024, 1024)})
	for level := 0; level <= 20; level++ {
		diag := dom.CellDiagonal(level)
		got := dom.LevelForMaxDiagonal(diag)
		if got != level {
			t.Fatalf("LevelForMaxDiagonal(%g) = %d, want %d", diag, got, level)
		}
		// A slightly smaller bound must move one level deeper.
		if got := dom.LevelForMaxDiagonal(diag * 0.999); got != level+1 && level != MaxLevel {
			t.Fatalf("LevelForMaxDiagonal(%g) = %d, want %d", diag*0.999, got, level+1)
		}
	}
}

func TestCommonAncestorLevel(t *testing.T) {
	a := Root().Children()[0]
	b := Root().Children()[1]
	lvl, ok := a.CommonAncestorLevel(b)
	if !ok || lvl != 0 {
		t.Fatalf("siblings common ancestor level = %d,%t want 0,true", lvl, ok)
	}
	c := a.Children()[2]
	lvl, ok = a.CommonAncestorLevel(c)
	if !ok || lvl != 1 {
		t.Fatalf("parent/child common ancestor level = %d,%t want 1,true", lvl, ok)
	}
	lvl, ok = c.CommonAncestorLevel(c)
	if !ok || lvl != 2 {
		t.Fatalf("self common ancestor level = %d,%t want 2,true", lvl, ok)
	}
}

func TestInvalidIDs(t *testing.T) {
	if ID(0).IsValid() {
		t.Fatal("zero id must be invalid")
	}
	if ID(1 << 63).IsValid() {
		t.Fatal("id above root must be invalid")
	}
	// Sentinel at odd bit position.
	if ID(0b10).IsValid() {
		t.Fatal("odd sentinel must be invalid")
	}
}

func TestNewDomainValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bound geom.Rect
		ok    bool
	}{
		{"empty", geom.Rect{}, false},
		{"zero height", geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 0)}, false},
		{"unit square", geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}, true},
		// The width overflows to +Inf, so the scale would be 0 (IsZero).
		{"MaxFloat64 across", geom.Rect{Min: geom.Pt(-math.MaxFloat64, 0), Max: geom.Pt(math.MaxFloat64, 1)}, false},
		{"infinite min", geom.Rect{Min: geom.Pt(math.Inf(-1), 0), Max: geom.Pt(1, 1)}, false},
		{"NaN max", geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, math.NaN())}, false},
		// The width is positive but the scale overflows to +Inf.
		{"subnormal width", geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1e-320, 1)}, false},
		{"wide but finite", geom.Rect{Min: geom.Pt(-1e300, -1e300), Max: geom.Pt(1e300, 1e300)}, true},
	} {
		d, err := NewDomain(tc.bound)
		if tc.ok != (err == nil) {
			t.Errorf("%s: NewDomain(%v) err = %v, want ok=%v", tc.name, tc.bound, err, tc.ok)
		}
		if err == nil && d.IsZero() {
			t.Errorf("%s: accepted domain reports IsZero", tc.name)
		}
	}
}

func TestDomainClamping(t *testing.T) {
	dom := MustDomain(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)})
	// Outside points clamp to the border instead of wrapping.
	for _, p := range []geom.Point{geom.Pt(-5, 0.5), geom.Pt(5, 0.5), geom.Pt(0.5, -5), geom.Pt(0.5, 5)} {
		id := dom.FromPoint(p)
		if !id.IsValid() {
			t.Fatalf("clamped id for %v invalid", p)
		}
		r := dom.CellRect(id.Parent(0))
		if r != dom.Bound() {
			t.Fatalf("root rect mismatch")
		}
	}
}

// TestCursorChildrenMatchIJ checks Cursor's child rule against the
// Hilbert decode: for random cells at every level, each child's derived
// (i, j) equals ID.IJ() and its orientation equals the one NewCursor
// recomputes from the child's id.
func TestCursorChildrenMatchIJ(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for level := 0; level < MaxLevel; level++ {
		for trial := 0; trial < 2000; trial++ {
			id := FromPos(rng.Uint64()&(NumCells(level)-1), level)
			c := NewCursor(id)
			if i, j := id.IJ(); c.ID != id || c.I != i || c.J != j {
				t.Fatalf("NewCursor(%v) = %+v, IJ() = (%d,%d)", id, c, i, j)
			}
			ids := id.Children()
			for k, ch := range c.Children() {
				if ch.ID != ids[k] {
					t.Fatalf("%v child %d: id %v, Children() has %v", id, k, ch.ID, ids[k])
				}
				i, j := ch.ID.IJ()
				if ch.I != i || ch.J != j {
					t.Fatalf("%v child %d: derived (%d,%d), IJ() = (%d,%d)", id, k, ch.I, ch.J, i, j)
				}
				if want := NewCursor(ch.ID).Orient; ch.Orient != want {
					t.Fatalf("%v child %d: orientation %d, recomputed %d", id, k, ch.Orient, want)
				}
			}
		}
	}
}

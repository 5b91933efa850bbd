package cellid

// Hilbert curve conversions between 2D grid coordinates and 1D curve
// positions. The paper enumerates cells with S2's Hilbert ordering
// (Fig. 3); any order-preserving space-filling curve works, and we use the
// classic iterative Hilbert construction.
//
// The curve is hierarchical: the first 2L bits of a leaf position identify
// the level-L ancestor's position, which is what makes parent/child ids
// share prefixes.

// ijToPos converts grid coordinates (i, j) at the given level to the
// Hilbert curve position among the 4^level cells of that level.
func ijToPos(i, j uint32, level uint) uint64 {
	var pos uint64
	x, y := i, j
	for s := uint32(1) << (level - 1); s > 0; s >>= 1 {
		if level == 0 {
			break
		}
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		pos += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - (x & (s - 1)) // reflect within remaining bits
				y = s - 1 - (y & (s - 1))
			} else {
				x &= s - 1
				y &= s - 1
			}
			x, y = y, x
		} else {
			x &= s - 1
			y &= s - 1
		}
	}
	return pos
}

// posToIJ converts a Hilbert curve position at the given level back to grid
// coordinates.
func posToIJ(pos uint64, level uint) (i, j uint32) {
	var x, y uint32
	t := pos
	for s := uint32(1); s < 1<<level; s <<= 1 {
		rx := uint32(1 & (t / 2))
		ry := uint32(1 & (t ^ uint64(rx)))
		// Rotate.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// Cursor is a cell together with its grid coordinates and its Hilbert
// orientation, so a top-down walk can step to children without decoding
// their ids. The orientation is the transform posToIJ applies to a
// cell's children: bit 0 swaps the axes, bit 1 complements both. The two
// commute, so an ancestor chain composes by XOR.
type Cursor struct {
	ID     ID
	I, J   uint32
	Orient uint8
}

// digitOrient is the orientation Hilbert digit k adds: posToIJ swaps
// below digit 0, complements and swaps below digit 3.
var digitOrient = [4]uint8{1, 0, 0, 3}

// NewCursor returns the cursor of id, decoding its position once.
func NewCursor(id ID) Cursor {
	c := Cursor{ID: id}
	c.I, c.J = id.IJ()
	for pos, n := id.Pos(), id.Level(); n > 0; pos, n = pos>>2, n-1 {
		c.Orient ^= digitOrient[pos&3]
	}
	return c
}

// Children returns the cursors of c's four children in Hilbert order, as
// ID.Children orders them. It must not be called on a leaf cell.
func (c Cursor) Children() (out [4]Cursor) {
	ids := c.ID.Children()
	q := &childQuad[c.Orient]
	for k := range out {
		out[k] = Cursor{ID: ids[k], I: c.I<<1 | uint32(q[k]&1), J: c.J<<1 | uint32(q[k]>>1), Orient: c.Orient ^ digitOrient[k]}
	}
	return out
}

// childQuad[o][k] is the quadrant of digit k's child under orientation o,
// rx | ry<<1: posToIJ's quadrant of the digit, then the orientation.
var childQuad = func() (t [4][4]uint8) {
	for o := range t {
		for k := range t[o] {
			rx := uint8(k >> 1)
			ry := uint8(k^int(rx)) & 1
			if o&1 != 0 {
				rx, ry = ry, rx
			}
			if o&2 != 0 {
				rx, ry = rx^1, ry^1
			}
			t[o][k] = rx | ry<<1
		}
	}
	return t
}()

package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"geoblocks/internal/cellid"
	"geoblocks/internal/column"
	"geoblocks/internal/cover"
	"geoblocks/internal/geom"
)

// fixTableCRC recomputes the v3 table checksum after a test deliberately
// rewrites bytes in the eagerly-checked region, so the mutation reaches
// the structural validation it targets instead of tripping the CRC first.
func fixTableCRC(b []byte) {
	dataOff := binary.LittleEndian.Uint64(b[v3OffDataOff:])
	crc := crc32.Checksum(b[:v3OffTableCRC], crcTable)
	crc = crc32.Update(crc, crcTable, b[v3OffDataCRC:dataOff])
	binary.LittleEndian.PutUint32(b[v3OffTableCRC:], crc)
}

func v3Bytes(t testing.TB) ([]byte, *GeoBlock) {
	t.Helper()
	f := newFixture(t, 5000, 16)
	filter := column.Filter{{Col: 0, Op: column.OpGe, Value: 10}}
	b := f.build(t, 11, filter)
	return b.EncodeV3(), b
}

func TestV3RoundTrip(t *testing.T) {
	f := newFixture(t, 6000, 21)
	filter := column.Filter{{Col: 2, Op: column.OpLe, Value: 4}}
	b := f.build(t, 11, filter)
	enc := b.EncodeV3()

	info, err := ProbeV3(enc, int64(len(enc)))
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if info.NumCells != b.NumCells() || info.Rows != b.NumTuples() || info.Level != b.Level() {
		t.Fatalf("probe info %+v does not match block (cells=%d rows=%d level=%d)",
			info, b.NumCells(), b.NumTuples(), b.Level())
	}

	m, err := MapBlock(enc)
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	if !m.Mapped() {
		t.Fatal("MapBlock result must report Mapped()")
	}
	if m.NumCells() != b.NumCells() || m.NumTuples() != b.NumTuples() || m.Level() != b.Level() {
		t.Fatalf("mapped block shape differs: %d/%d cells, %d/%d tuples",
			m.NumCells(), b.NumCells(), m.NumTuples(), b.NumTuples())
	}
	if len(m.Filter()) != len(b.Filter()) || m.Filter()[0] != b.Filter()[0] {
		t.Fatalf("filter differs: %v vs %v", m.Filter(), b.Filter())
	}
	if m.Schema().Names[2] != b.Schema().Names[2] {
		t.Fatalf("schema differs: %v vs %v", m.Schema(), b.Schema())
	}
	if m.Header().MinCell != b.Header().MinCell || m.Header().Count != b.Header().Count {
		t.Fatalf("header differs: %+v vs %+v", m.Header(), b.Header())
	}

	// Bit-identical answers: the mapped views hold the same float bit
	// patterns and the kernels walk them in the same order, so results
	// must match exactly, not approximately.
	cov := cover.MustCoverer(f.dom, cover.DefaultOptions(11)).Cover(testPolygon())
	want, err := b.SelectCovering(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.SelectCovering(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if want.Count != got.Count {
		t.Fatalf("counts differ: %d vs %d", want.Count, got.Count)
	}
	for i := range want.Values {
		if math.Float64bits(want.Values[i]) != math.Float64bits(got.Values[i]) {
			t.Fatalf("value %d not bit-identical: %x vs %x",
				i, math.Float64bits(want.Values[i]), math.Float64bits(got.Values[i]))
		}
	}

	// Per-cell record views agree.
	for _, i := range []int{0, m.NumCells() / 2, m.NumCells() - 1} {
		if b.CellAt(i).Key != m.CellAt(i).Key || b.CellAt(i).Count != m.CellAt(i).Count {
			t.Fatalf("cell %d differs", i)
		}
	}
}

func TestV3MappedRejectsUpdate(t *testing.T) {
	enc, b := v3Bytes(t)
	m, err := MapBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	batch := &UpdateBatch{Cols: [][]float64{nil, nil, nil}}
	if err := m.Update(batch); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Update on mapped block: got %v, want ErrReadOnly", err)
	}
	if err := b.Update(batch); err != nil {
		t.Fatalf("Update on heap block must still work: %v", err)
	}
}

// TestV3OwnedTakesWrites: a block over a v3 image it owns is not mapped
// and takes Update with the decoded block's exact result, and FoldRows
// only reads its input, so it folds even a truly mapped block.
func TestV3OwnedTakesWrites(t *testing.T) {
	f := newFixture(t, 5000, 16)
	b := f.build(t, 11, nil)
	o, err := MapOwnedBlock(b.EncodeV3())
	if err != nil {
		t.Fatal(err)
	}
	if o.Mapped() {
		t.Fatal("a block over an owned buffer must not report Mapped()")
	}
	cov := cover.MustCoverer(f.dom, cover.DefaultOptions(11)).Cover(testPolygon())
	same := func(step string, x, y *GeoBlock) {
		t.Helper()
		want, err := x.SelectCovering(cov.Cells, allSpecs())
		if err != nil {
			t.Fatal(err)
		}
		got, err := y.SelectCovering(cov.Cells, allSpecs())
		if err != nil {
			t.Fatal(err)
		}
		if want.Count != got.Count {
			t.Fatalf("%s: counts differ: %d vs %d", step, got.Count, want.Count)
		}
		for i := range want.Values {
			if math.Float64bits(want.Values[i]) != math.Float64bits(got.Values[i]) {
				t.Fatalf("%s: value %d %v, want %v", step, i, got.Values[i], want.Values[i])
			}
		}
	}
	batch := &UpdateBatch{Points: f.pts[:50], Cols: [][]float64{f.cols[0][:50], f.cols[1][:50], f.cols[2][:50]}}
	for _, blk := range []*GeoBlock{b, o} {
		if err := blk.Update(batch); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	same("update", b, o)

	m, err := MapBlock(b.EncodeV3())
	if err != nil {
		t.Fatal(err)
	}
	leaves := []cellid.ID{f.dom.FromPoint(geom.Pt(31, 41))}
	rows := [][]float64{{7}, {3}, {2}}
	fb, err := FoldRows(b, leaves, rows)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := FoldRows(m, leaves, rows)
	if err != nil {
		t.Fatalf("FoldRows of a mapped block: %v", err)
	}
	same("fold", fb, fm)
}

func TestV3CoarsenFromMapped(t *testing.T) {
	enc, b := v3Bytes(t)
	m, err := MapBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Coarsen(b, 9)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := Coarsen(m, 9)
	if err != nil {
		t.Fatalf("coarsen from mapped: %v", err)
	}
	if cm.Mapped() {
		t.Fatal("coarsened block must be a heap block")
	}
	if cb.NumCells() != cm.NumCells() || cb.NumTuples() != cm.NumTuples() {
		t.Fatalf("coarsen mismatch: %d/%d cells", cm.NumCells(), cb.NumCells())
	}
}

// v3Corruption mutates a pristine v3 image and names the typed error the
// result must surface.
type v3Corruption struct {
	name    string
	mutate  func([]byte) []byte
	wantErr error
	// lazyOnly marks corruption that the eager probe must accept (it
	// lives in the data region) and only MapBlock may reject.
	lazyOnly bool
}

// v3Corruptions is the v3 counterpart of the frame corruption table.
// TestV3Corruption runs it; FuzzMapBlock seeds its corpus from it.
func v3Corruptions() []v3Corruption {
	le := binary.LittleEndian
	return []v3Corruption{
		{"empty file", func(b []byte) []byte { return nil }, ErrCorrupt, false},
		{"truncated header", func(b []byte) []byte { return b[:100] }, ErrCorrupt, false},
		{"truncated section table", func(b []byte) []byte {
			return b[:v3HeaderSize+8]
		}, ErrCorrupt, false},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrCorrupt, false},
		{"v2 frame where v3 expected", func(b []byte) []byte {
			copy(b[:4], frameMagic)
			return b
		}, ErrVersion, false},
		{"future version", func(b []byte) []byte {
			le.PutUint32(b[v3OffVersion:], 4)
			return b
		}, ErrVersion, false},
		{"file length mismatch", func(b []byte) []byte {
			return b[:len(b)-8]
		}, ErrCorrupt, false},
		{"table CRC flipped", func(b []byte) []byte {
			b[v3OffTableCRC] ^= 0x01
			return b
		}, ErrCorrupt, false},
		{"meta byte flipped", func(b []byte) []byte {
			// First schema-name byte; caught by the table CRC.
			metaOff := le.Uint64(b[v3OffMetaOff:])
			b[metaOff+4] ^= 0xff
			return b
		}, ErrCorrupt, false},
		{"misaligned section offset", func(b []byte) []byte {
			// Knock the keys section off its 8-byte alignment and
			// recompute the table CRC so the structural check, not the
			// checksum, must catch it.
			off := le.Uint64(b[v3HeaderSize:])
			le.PutUint64(b[v3HeaderSize:], off+4)
			fixTableCRC(b)
			return b
		}, ErrCorrupt, false},
		{"section length mismatch", func(b []byte) []byte {
			ln := le.Uint64(b[v3HeaderSize+8:])
			le.PutUint64(b[v3HeaderSize+8:], ln+8)
			fixTableCRC(b)
			return b
		}, ErrCorrupt, false},
		{"section escapes file", func(b []byte) []byte {
			le.PutUint64(b[v3HeaderSize:], uint64(len(b)))
			fixTableCRC(b)
			return b
		}, ErrCorrupt, false},
		{"non-finite bound", func(b []byte) []byte {
			le.PutUint64(b[v3OffBound:], math.Float64bits(math.Inf(-1)))
			fixTableCRC(b)
			return b
		}, ErrCorrupt, false},
		{"implausible cell count", func(b []byte) []byte {
			le.PutUint64(b[v3OffNumCells:], 1<<40)
			fixTableCRC(b)
			return b
		}, ErrCorrupt, false},
		{"data bit flipped", func(b []byte) []byte {
			dataOff := le.Uint64(b[v3OffDataOff:])
			b[dataOff+17] ^= 0x04
			return b
		}, ErrCorrupt, true},
		{"data CRC flipped", func(b []byte) []byte {
			b[v3OffDataCRC] ^= 0x01
			return b
		}, ErrCorrupt, false},
	}
}

// TestV3Corruption checks that every byte-level mutation surfaces a typed
// error from the eager probe or the fault-time map — never a crash or a
// silently wrong block.
func TestV3Corruption(t *testing.T) {
	pristine, _ := v3Bytes(t)
	for _, tc := range v3Corruptions() {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), pristine...))
			_, perr := ProbeV3(b, int64(len(b)))
			if tc.lazyOnly {
				if perr != nil {
					t.Fatalf("eager probe must not read the data region, got %v", perr)
				}
			} else if !errors.Is(perr, tc.wantErr) {
				t.Fatalf("probe: got %v, want %v", perr, tc.wantErr)
			}
			m, merr := MapBlock(b)
			if !errors.Is(merr, tc.wantErr) {
				t.Fatalf("map: got %v, want %v", merr, tc.wantErr)
			}
			if m != nil {
				t.Fatal("corrupt input must not yield a block")
			}
		})
	}
}

// TestV3ProbePrefixProtocol exercises the two-read open protocol: header
// first, then exactly [0, DataOff) for the eager check.
func TestV3ProbePrefixProtocol(t *testing.T) {
	enc, _ := v3Bytes(t)
	dataOff, err := V3DataOff(enc[:v3HeaderSize], int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if dataOff <= v3HeaderSize || dataOff%8 != 0 {
		t.Fatalf("implausible data offset %d", dataOff)
	}
	if _, err := ProbeV3(enc[:dataOff], int64(len(enc))); err != nil {
		t.Fatalf("probe on exact prefix: %v", err)
	}
	if _, err := ProbeV3(enc[:dataOff-1], int64(len(enc))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short prefix must fail typed, got %v", err)
	}
}

// FuzzMapBlock feeds arbitrary bytes to the shard-fault path: MapBlock,
// then the four pyramid levels a fault derives. Every input must give a
// typed ErrCorrupt/ErrVersion, or a block that coarsens cleanly — never a
// panic or an out-of-bounds read. Each input also runs a second time with
// both checksums recomputed, so a mutation reaches the structural checks
// and the views instead of stopping at a CRC mismatch.
func FuzzMapBlock(f *testing.F) {
	fx := newFixture(f, 12, 16)
	pristine := fx.build(f, 4, column.Filter{{Col: 0, Op: column.OpGe, Value: 10}}).EncodeV3()
	f.Add(pristine)
	for _, tc := range v3Corruptions() {
		f.Add(tc.mutate(append([]byte(nil), pristine...)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mapAndCoarsen(t, data)
		if dataOff, err := V3DataOff(data, int64(len(data))); err == nil {
			fixed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(fixed[v3OffDataCRC:], CRC32C(fixed[dataOff:]))
			fixTableCRC(fixed)
			mapAndCoarsen(t, fixed)
		}
	})
}

func mapAndCoarsen(t *testing.T, data []byte) {
	m, err := MapBlock(data)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("untyped error: %v", err)
		}
		if m != nil {
			t.Fatal("rejected input still yielded a block")
		}
		return
	}
	level := m
	for lvl := m.Level() - 1; lvl >= 0 && lvl >= m.Level()-4; lvl-- {
		if level, err = Coarsen(level, lvl); err != nil {
			t.Fatalf("coarsen to %d: %v", lvl, err)
		}
	}
}

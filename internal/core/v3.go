package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"geoblocks/internal/cellid"
	"geoblocks/internal/column"
	"geoblocks/internal/geom"
)

// Format v3: a random-access block layout that a reader can query in place.
//
// Versions 1 and 2 are sequential streams: every array element passes
// through an encode/decode step, so opening a block costs a full pass over
// its bytes. Version 3 instead lays the file out so the aggregate arrays
// are already in their in-memory representation — little-endian, 8-byte
// aligned, struct-of-arrays — and puts a fixed-width section table up
// front. A reader validates the header and table, then constructs
// unsafe.Slice views directly over the file bytes (typically an mmap'd
// region): no per-element decode, no allocation proportional to data size.
//
//	header (128 bytes, fixed width, little-endian)
//	section table (numSections × {off u64, len u64})
//	meta (schema names, filter predicates, per-column header aggregates)
//	zero pad to 8-byte boundary (= dataOff)
//	data sections, each starting 8-byte aligned:
//	  keys, offsets, counts, minKeys, maxKeys,
//	  then per column: sums, mins, maxs
//
// Two checksums split validation into an eager and a lazy half. tableCRC
// covers everything before dataOff (plus the dataCRC word): cheap to
// verify at open time, and enough to trust the geometry of the file.
// dataCRC covers [dataOff, fileLen): verified lazily, when a shard is
// first faulted in, so opening a snapshot does not touch the data pages.
// docs/FORMAT.md Sec. 8 specifies the layout byte by byte.
const (
	v3Magic   = "GBK3"
	v3Version = 3

	// v3HeaderSize is the fixed header length; the section table starts
	// immediately after.
	v3HeaderSize = 128

	// Fixed header field offsets (see docs/FORMAT.md Sec. 8.1).
	v3OffMagic       = 0   // 4 bytes
	v3OffVersion     = 4   // u32
	v3OffFileLen     = 8   // u64
	v3OffLevel       = 16  // u32
	v3OffNumCols     = 20  // u32
	v3OffNumPreds    = 24  // u32
	v3OffNumSections = 28  // u32
	v3OffNumCells    = 32  // u64
	v3OffMinCell     = 40  // u64
	v3OffMaxCell     = 48  // u64
	v3OffCount       = 56  // u64
	v3OffBound       = 64  // 4 × f64
	v3OffDataOff     = 96  // u64
	v3OffMetaOff     = 104 // u64
	v3OffMetaLen     = 112 // u64
	v3OffTableCRC    = 120 // u32
	v3OffDataCRC     = 124 // u32
)

// ErrReadOnly reports an in-place mutation attempt on a mapped GeoBlock.
// Mapped blocks alias read-only file bytes; callers that need updates
// must read the file into the heap and use MapOwnedBlock instead.
var ErrReadOnly = errors.New("core: mapped block is read-only")

// V3Info is the metadata recovered by eagerly validating a v3 file's
// header, section table and meta section — everything a lazy open needs
// to route queries and budget memory without touching the data pages.
type V3Info struct {
	FileLen  int64
	Level    int
	NumCells int
	Rows     uint64
	MinCell  cellid.ID
	MaxCell  cellid.ID
	Bound    geom.Rect
	Schema   column.Schema
	Filter   column.Filter
	// HeaderCols are the per-column block-wide aggregates.
	HeaderCols []ColAggregate
	// DataOff is where the lazily-checksummed data region begins; a
	// prober must read [0, DataOff) to verify the table checksum.
	DataOff int64
	// DataCRC is the stored CRC32C of [DataOff, FileLen), verified by
	// MapBlock at fault time.
	DataCRC uint32

	// secs are the parsed, validated section extents (internal).
	secs []v3Section
}

type v3Section struct {
	off int64
	ln  int64
}

func v3Align8(n int64) int64 { return (n + 7) &^ 7 }

// v3SectionWidths returns the element width of each section in table
// order: keys, offsets, counts, minKeys, maxKeys, then per column sums,
// mins, maxs.
func v3SectionWidths(numCols int) []int64 {
	w := []int64{8, 4, 4, 8, 8}
	for c := 0; c < numCols; c++ {
		w = append(w, 8, 8, 8)
	}
	return w
}

// EncodeV3 serialises the block in format v3 and returns the complete
// file image. The layout is computed exactly up front, so the buffer is
// allocated once at its final size.
func (b *GeoBlock) EncodeV3() []byte {
	n := int64(len(b.keys))
	nc := len(b.cols)
	numSections := 5 + 3*nc
	tableOff := int64(v3HeaderSize)
	metaOff := tableOff + 16*int64(numSections)
	metaLen := int64(0)
	for _, name := range b.schema.Names {
		metaLen += 4 + int64(len(name))
	}
	metaLen += 16 * int64(len(b.filter))
	metaLen += 24 * int64(nc)
	dataOff := v3Align8(metaOff + metaLen)

	widths := v3SectionWidths(nc)
	secs := make([]v3Section, numSections)
	cur := dataOff
	for i, w := range widths {
		secs[i] = v3Section{off: cur, ln: w * n}
		cur = v3Align8(cur + w*n)
	}
	fileLen := cur

	buf := make([]byte, fileLen)
	le := binary.LittleEndian
	copy(buf[v3OffMagic:], v3Magic)
	le.PutUint32(buf[v3OffVersion:], v3Version)
	le.PutUint64(buf[v3OffFileLen:], uint64(fileLen))
	le.PutUint32(buf[v3OffLevel:], uint32(b.level))
	le.PutUint32(buf[v3OffNumCols:], uint32(nc))
	le.PutUint32(buf[v3OffNumPreds:], uint32(len(b.filter)))
	le.PutUint32(buf[v3OffNumSections:], uint32(numSections))
	le.PutUint64(buf[v3OffNumCells:], uint64(n))
	le.PutUint64(buf[v3OffMinCell:], uint64(b.header.MinCell))
	le.PutUint64(buf[v3OffMaxCell:], uint64(b.header.MaxCell))
	le.PutUint64(buf[v3OffCount:], b.header.Count)
	bound := b.domain.Bound()
	le.PutUint64(buf[v3OffBound:], math.Float64bits(bound.Min.X))
	le.PutUint64(buf[v3OffBound+8:], math.Float64bits(bound.Min.Y))
	le.PutUint64(buf[v3OffBound+16:], math.Float64bits(bound.Max.X))
	le.PutUint64(buf[v3OffBound+24:], math.Float64bits(bound.Max.Y))
	le.PutUint64(buf[v3OffDataOff:], uint64(dataOff))
	le.PutUint64(buf[v3OffMetaOff:], uint64(metaOff))
	le.PutUint64(buf[v3OffMetaLen:], uint64(metaLen))

	for i, s := range secs {
		le.PutUint64(buf[tableOff+16*int64(i):], uint64(s.off))
		le.PutUint64(buf[tableOff+16*int64(i)+8:], uint64(s.ln))
	}

	p := metaOff
	for _, name := range b.schema.Names {
		le.PutUint32(buf[p:], uint32(len(name)))
		p += 4
		copy(buf[p:], name)
		p += int64(len(name))
	}
	for _, pr := range b.filter {
		le.PutUint32(buf[p:], uint32(pr.Col))
		le.PutUint32(buf[p+4:], uint32(pr.Op))
		le.PutUint64(buf[p+8:], math.Float64bits(pr.Value))
		p += 16
	}
	for _, c := range b.header.Cols {
		le.PutUint64(buf[p:], math.Float64bits(c.Min))
		le.PutUint64(buf[p+8:], math.Float64bits(c.Max))
		le.PutUint64(buf[p+16:], math.Float64bits(c.Sum))
		p += 24
	}

	putU64s := func(s v3Section, vals []cellid.ID) {
		for i, v := range vals {
			le.PutUint64(buf[s.off+8*int64(i):], uint64(v))
		}
	}
	putU32s := func(s v3Section, vals []uint32) {
		for i, v := range vals {
			le.PutUint32(buf[s.off+4*int64(i):], v)
		}
	}
	putF64s := func(s v3Section, vals []float64) {
		for i, v := range vals {
			le.PutUint64(buf[s.off+8*int64(i):], math.Float64bits(v))
		}
	}
	putU64s(secs[0], b.keys)
	putU32s(secs[1], b.offsets)
	putU32s(secs[2], b.counts)
	putU64s(secs[3], b.minKeys)
	putU64s(secs[4], b.maxKeys)
	for c := 0; c < nc; c++ {
		putF64s(secs[5+3*c], b.cols[c].sums)
		putF64s(secs[5+3*c+1], b.cols[c].mins)
		putF64s(secs[5+3*c+2], b.cols[c].maxs)
	}

	le.PutUint32(buf[v3OffDataCRC:], CRC32C(buf[dataOff:]))
	tableCRC := crc32.Checksum(buf[:v3OffTableCRC], crcTable)
	tableCRC = crc32.Update(tableCRC, crcTable, buf[v3OffDataCRC:dataOff])
	le.PutUint32(buf[v3OffTableCRC:], tableCRC)
	return buf
}

// V3DataOff reads just enough of a v3 header to report how many leading
// bytes a prober must supply to ProbeV3 (the data offset). It validates
// only magic, version and the basic geometry needed to trust the value.
func V3DataOff(hdr []byte, fileSize int64) (int64, error) {
	if len(hdr) < v3HeaderSize {
		return 0, fmt.Errorf("%w: v3 file shorter than %d-byte header (%d bytes)", ErrCorrupt, v3HeaderSize, len(hdr))
	}
	le := binary.LittleEndian
	if magic := string(hdr[v3OffMagic : v3OffMagic+4]); magic != v3Magic {
		if magic == frameMagic {
			return 0, fmt.Errorf("%w: v2 framed payload where a v3 file was expected", ErrVersion)
		}
		return 0, fmt.Errorf("%w: bad v3 magic %q", ErrCorrupt, magic)
	}
	if v := le.Uint32(hdr[v3OffVersion:]); v != v3Version {
		return 0, fmt.Errorf("%w: v3 container version %d (this build reads version %d)", ErrVersion, v, v3Version)
	}
	dataOff := le.Uint64(hdr[v3OffDataOff:])
	if dataOff < v3HeaderSize || dataOff%8 != 0 || int64(dataOff) > fileSize || dataOff > maxFramePayload {
		return 0, fmt.Errorf("%w: implausible v3 data offset %d (file %d bytes)", ErrCorrupt, dataOff, fileSize)
	}
	return int64(dataOff), nil
}

// ProbeV3 eagerly validates a v3 file's header, section table and meta
// section. prefix must hold at least the first DataOff bytes of the file
// (obtain the value via V3DataOff); fileSize is the on-disk length. The
// data region is NOT touched: its checksum is deferred to MapBlock.
// Every failure wraps ErrCorrupt or ErrVersion.
func ProbeV3(prefix []byte, fileSize int64) (*V3Info, error) {
	dataOff, err := V3DataOff(prefix, fileSize)
	if err != nil {
		return nil, err
	}
	if int64(len(prefix)) < dataOff {
		return nil, fmt.Errorf("%w: v3 probe prefix holds %d bytes, data offset is %d", ErrCorrupt, len(prefix), dataOff)
	}
	le := binary.LittleEndian
	info := &V3Info{
		FileLen: int64(le.Uint64(prefix[v3OffFileLen:])),
		Level:   int(le.Uint32(prefix[v3OffLevel:])),
		Rows:    le.Uint64(prefix[v3OffCount:]),
		MinCell: cellid.ID(le.Uint64(prefix[v3OffMinCell:])),
		MaxCell: cellid.ID(le.Uint64(prefix[v3OffMaxCell:])),
		DataOff: dataOff,
		DataCRC: le.Uint32(prefix[v3OffDataCRC:]),
	}
	if info.FileLen != fileSize {
		return nil, fmt.Errorf("%w: v3 header records %d bytes, file has %d", ErrCorrupt, info.FileLen, fileSize)
	}

	// The table checksum covers everything the lazy path trusts before
	// first fault — header, section table, meta and the dataCRC word —
	// excluding only its own four bytes.
	tableCRC := crc32.Checksum(prefix[:v3OffTableCRC], crcTable)
	tableCRC = crc32.Update(tableCRC, crcTable, prefix[v3OffDataCRC:dataOff])
	if stored := le.Uint32(prefix[v3OffTableCRC:]); stored != tableCRC {
		return nil, fmt.Errorf("%w: v3 table CRC32C %08x does not match stored %08x", ErrCorrupt, tableCRC, stored)
	}

	numCols := int(le.Uint32(prefix[v3OffNumCols:]))
	numPreds := int(le.Uint32(prefix[v3OffNumPreds:]))
	numSections := int(le.Uint32(prefix[v3OffNumSections:]))
	numCells := le.Uint64(prefix[v3OffNumCells:])
	if numCols > 1<<16 {
		return nil, fmt.Errorf("%w: implausible column count %d", ErrCorrupt, numCols)
	}
	if numPreds > 1<<16 {
		return nil, fmt.Errorf("%w: implausible predicate count %d", ErrCorrupt, numPreds)
	}
	if numCells > 1<<31 {
		return nil, fmt.Errorf("%w: implausible cell count %d", ErrCorrupt, numCells)
	}
	if numSections != 5+3*numCols {
		return nil, fmt.Errorf("%w: v3 section count %d, want %d for %d columns", ErrCorrupt, numSections, 5+3*numCols, numCols)
	}
	info.NumCells = int(numCells)

	tableOff := int64(v3HeaderSize)
	metaOff := int64(le.Uint64(prefix[v3OffMetaOff:]))
	metaLen := int64(le.Uint64(prefix[v3OffMetaLen:]))
	if metaOff != tableOff+16*int64(numSections) {
		return nil, fmt.Errorf("%w: v3 meta offset %d, want %d", ErrCorrupt, metaOff, tableOff+16*int64(numSections))
	}
	if metaLen < 0 || metaOff+metaLen > dataOff {
		return nil, fmt.Errorf("%w: v3 meta section [%d,%d) overruns data offset %d", ErrCorrupt, metaOff, metaOff+metaLen, dataOff)
	}

	// Section table: offsets must be 8-byte aligned (the whole point of
	// v3 — views alias the bytes directly), ascending, inside the data
	// region, and sized exactly numCells × element width.
	widths := v3SectionWidths(numCols)
	secs := make([]v3Section, numSections)
	prevEnd := dataOff
	for i := range secs {
		off := int64(le.Uint64(prefix[tableOff+16*int64(i):]))
		ln := int64(le.Uint64(prefix[tableOff+16*int64(i)+8:]))
		if want := widths[i] * int64(numCells); ln != want {
			return nil, fmt.Errorf("%w: v3 section %d length %d, want %d (%d cells × %d bytes)", ErrCorrupt, i, ln, want, numCells, widths[i])
		}
		if off%8 != 0 {
			return nil, fmt.Errorf("%w: v3 section %d offset %d is not 8-byte aligned", ErrCorrupt, i, off)
		}
		if off < prevEnd || off+ln > info.FileLen {
			return nil, fmt.Errorf("%w: v3 section %d extent [%d,%d) escapes [%d,%d)", ErrCorrupt, i, off, off+ln, prevEnd, info.FileLen)
		}
		secs[i] = v3Section{off: off, ln: ln}
		prevEnd = off + ln
	}
	info.secs = secs

	// Meta section: schema names, filter predicates, per-column header
	// aggregates — same field order as the v2 stream. It must consume
	// exactly metaLen bytes.
	meta := prefix[metaOff : metaOff+metaLen]
	p := int64(0)
	need := func(n int64) error {
		if p+n > int64(len(meta)) {
			return fmt.Errorf("%w: v3 meta section truncated at byte %d", ErrCorrupt, p)
		}
		return nil
	}
	names := make([]string, numCols)
	for i := range names {
		if err := need(4); err != nil {
			return nil, err
		}
		n := int64(le.Uint32(meta[p:]))
		p += 4
		if n > 1<<20 {
			return nil, fmt.Errorf("%w: implausible name length %d", ErrCorrupt, n)
		}
		if err := need(n); err != nil {
			return nil, err
		}
		names[i] = string(meta[p : p+n])
		p += n
	}
	info.Schema = column.NewSchema(names...)
	info.Filter = make(column.Filter, numPreds)
	for i := range info.Filter {
		if err := need(16); err != nil {
			return nil, err
		}
		info.Filter[i] = column.Predicate{
			Col:   int(le.Uint32(meta[p:])),
			Op:    column.Op(le.Uint32(meta[p+4:])),
			Value: math.Float64frombits(le.Uint64(meta[p+8:])),
		}
		p += 16
	}
	info.HeaderCols = make([]ColAggregate, numCols)
	for i := range info.HeaderCols {
		if err := need(24); err != nil {
			return nil, err
		}
		info.HeaderCols[i] = ColAggregate{
			Min: math.Float64frombits(le.Uint64(meta[p:])),
			Max: math.Float64frombits(le.Uint64(meta[p+8:])),
			Sum: math.Float64frombits(le.Uint64(meta[p+16:])),
		}
		p += 24
	}
	if p != metaLen {
		return nil, fmt.Errorf("%w: v3 meta section has %d trailing bytes", ErrCorrupt, metaLen-p)
	}

	info.Bound = geom.Rect{
		Min: geom.Pt(math.Float64frombits(le.Uint64(prefix[v3OffBound:])), math.Float64frombits(le.Uint64(prefix[v3OffBound+8:]))),
		Max: geom.Pt(math.Float64frombits(le.Uint64(prefix[v3OffBound+16:])), math.Float64frombits(le.Uint64(prefix[v3OffBound+24:]))),
	}
	if _, err := cellid.NewDomain(info.Bound); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return info, nil
}

// v3View reinterprets n elements of T starting at data[off]. Alignment is
// guaranteed by ProbeV3 (8-aligned section offsets) plus MapBlock's base
// alignment check.
func v3View[T any](data []byte, off int64, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&data[off])), n)
}

// MapBlock constructs a read-only GeoBlock whose aggregate arrays are
// views directly over data, a complete v3 file image (typically an mmap'd
// region). It runs the full eager validation plus the data-region CRC —
// this is the "fault" step of the lazy open path, the first time the data
// pages are actually read. The returned block answers queries through the
// ordinary accessor API but rejects Update with ErrReadOnly; derived
// structures (prefix sums, coarsened pyramid levels) live on the heap.
//
// The block aliases data for its lifetime: the caller must keep the
// backing region valid (and unmodified) until the block is discarded.
func MapBlock(data []byte) (*GeoBlock, error) {
	info, err := ProbeV3(data, int64(len(data)))
	if err != nil {
		return nil, err
	}
	if got := CRC32C(data[info.DataOff:]); got != info.DataCRC {
		return nil, fmt.Errorf("%w: v3 data CRC32C %08x does not match stored %08x", ErrCorrupt, got, info.DataCRC)
	}

	// Section offsets are 8-aligned within the file, so views are aligned
	// whenever the base pointer is page- (or at least 8-) aligned — always
	// true for mmap. For heap-read fallbacks Go's allocator aligns large
	// byte slices too, but that is an implementation detail: copy into a
	// uint64-backed buffer if it ever does not hold.
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		buf := make([]uint64, (len(data)+7)/8)
		aligned := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(data))
		copy(aligned, data)
		data = aligned
	}

	dom, err := cellid.NewDomain(info.Bound)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	b := &GeoBlock{
		domain: dom,
		level:  info.Level,
		schema: info.Schema,
		filter: info.Filter,
		mapped: true,
	}
	if b.level < 0 || b.level > cellid.MaxLevel {
		return nil, fmt.Errorf("%w: implausible block level %d", ErrCorrupt, b.level)
	}
	b.header = Header{
		MinCell: info.MinCell,
		MaxCell: info.MaxCell,
		Count:   info.Rows,
		Cols:    info.HeaderCols,
	}
	n := info.NumCells
	secs := info.secs
	b.keys = v3View[cellid.ID](data, secs[0].off, n)
	b.offsets = v3View[uint32](data, secs[1].off, n)
	b.counts = v3View[uint32](data, secs[2].off, n)
	b.minKeys = v3View[cellid.ID](data, secs[3].off, n)
	b.maxKeys = v3View[cellid.ID](data, secs[4].off, n)
	nc := len(info.HeaderCols)
	b.cols = make([]colStore, nc)
	for c := 0; c < nc; c++ {
		b.cols[c].sums = v3View[float64](data, secs[5+3*c].off, n)
		b.cols[c].mins = v3View[float64](data, secs[5+3*c+1].off, n)
		b.cols[c].maxs = v3View[float64](data, secs[5+3*c+2].off, n)
	}
	b.buildPrefixes()
	return b, nil
}

// MapOwnedBlock is MapBlock over a buffer the block takes ownership of:
// a v3 file image read into the heap that nothing else references. The
// views then alias memory the block owns, so the block is not mapped and
// takes Update like a decoded one. The caller must not touch data again.
func MapOwnedBlock(data []byte) (*GeoBlock, error) {
	b, err := MapBlock(data)
	if err != nil {
		return nil, err
	}
	b.mapped = false
	return b, nil
}

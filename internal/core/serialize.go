package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"geoblocks/internal/cellid"
	"geoblocks/internal/column"
	"geoblocks/internal/geom"
)

// Serialization of GeoBlocks. A GeoBlock is a materialized view (paper
// Sec. 1); persisting it lets analysis sessions reopen pre-built blocks
// without re-running extract/build. The format is a little-endian stream:
//
//	magic "GBLK" | version u32
//	domain bounds (4 × f64) | level u32
//	schema: numCols u32, then per column len u32 + name bytes
//	filter: numPreds u32, then per predicate col u32, op u32, value f64
//	header: minCell u64, maxCell u64, count u64, per-col 3 × f64
//	numCells u64
//	keys, offsets, counts, minKeys, maxKeys (arrays)
//	per column: sums array, mins array, maxs array
//
// Version 2 switched the per-column payload from interleaved
// {min,max,sum} records to the struct-of-arrays layout above; the derived
// prefix-sum arrays are rebuilt on read rather than stored. Version-1
// payloads are rejected with a descriptive error — rebuild the block from
// base data and re-serialise.
//
// The base-data reference is intentionally not serialized.
const (
	blockMagic   = "GBLK"
	blockVersion = 2
)

// Typed deserialization failures. Every error returned by ReadBlock and
// DecodeFramed wraps one of these, so callers (the snapshot subsystem,
// its HTTP status mapping) can fail closed with errors.Is instead of
// string matching. docs/FORMAT.md is the byte-level format reference.
var (
	// ErrCorrupt reports a payload that is not a well-formed GeoBlock
	// stream: bad magic, implausible counts, truncation, or a CRC
	// mismatch in the framed form.
	ErrCorrupt = errors.New("core: corrupt block payload")
	// ErrVersion reports a well-formed stream whose format version this
	// build does not read.
	ErrVersion = errors.New("core: unsupported block version")
)

type leWriter struct {
	w   *bufio.Writer
	err error
}

func (w *leWriter) u32(v uint32) {
	if w.err == nil {
		w.err = binary.Write(w.w, binary.LittleEndian, v)
	}
}
func (w *leWriter) u64(v uint64) {
	if w.err == nil {
		w.err = binary.Write(w.w, binary.LittleEndian, v)
	}
}
func (w *leWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *leWriter) bytes(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

type leReader struct {
	r   *bufio.Reader
	err error
}

func (r *leReader) u32() uint32 {
	var v uint32
	if r.err == nil {
		r.err = binary.Read(r.r, binary.LittleEndian, &v)
	}
	return v
}
func (r *leReader) u64() uint64 {
	var v uint64
	if r.err == nil {
		r.err = binary.Read(r.r, binary.LittleEndian, &v)
	}
	return v
}
func (r *leReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *leReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	b := make([]byte, n)
	_, r.err = io.ReadFull(r.r, b)
	return b
}

// WriteTo serialises the block. It implements io.WriterTo loosely (the
// byte count is not tracked; it returns 0 and the first error).
func (b *GeoBlock) WriteTo(dst io.Writer) (int64, error) {
	w := &leWriter{w: bufio.NewWriter(dst)}
	w.bytes([]byte(blockMagic))
	w.u32(blockVersion)

	bound := b.domain.Bound()
	w.f64(bound.Min.X)
	w.f64(bound.Min.Y)
	w.f64(bound.Max.X)
	w.f64(bound.Max.Y)
	w.u32(uint32(b.level))

	w.u32(uint32(b.schema.NumCols()))
	for _, name := range b.schema.Names {
		w.u32(uint32(len(name)))
		w.bytes([]byte(name))
	}

	w.u32(uint32(len(b.filter)))
	for _, p := range b.filter {
		w.u32(uint32(p.Col))
		w.u32(uint32(p.Op))
		w.f64(p.Value)
	}

	w.u64(uint64(b.header.MinCell))
	w.u64(uint64(b.header.MaxCell))
	w.u64(b.header.Count)
	for _, c := range b.header.Cols {
		w.f64(c.Min)
		w.f64(c.Max)
		w.f64(c.Sum)
	}

	w.u64(uint64(len(b.keys)))
	for _, k := range b.keys {
		w.u64(uint64(k))
	}
	for _, o := range b.offsets {
		w.u32(o)
	}
	for _, c := range b.counts {
		w.u32(c)
	}
	for _, k := range b.minKeys {
		w.u64(uint64(k))
	}
	for _, k := range b.maxKeys {
		w.u64(uint64(k))
	}
	for c := range b.cols {
		for _, v := range b.cols[c].sums {
			w.f64(v)
		}
		for _, v := range b.cols[c].mins {
			w.f64(v)
		}
		for _, v := range b.cols[c].maxs {
			w.f64(v)
		}
	}
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return 0, w.err
}

// ReadBlock deserialises a GeoBlock written by WriteTo, which must be all
// of src. The returned block has no base-data reference: queries work,
// rebuilds do not.
func ReadBlock(src io.Reader) (*GeoBlock, error) {
	payload, err := io.ReadAll(src)
	if err != nil {
		return nil, err
	}
	return decodeBlock(payload)
}

// decodeBlock deserialises one WriteTo payload. Every count is checked
// against the bytes the payload holds before anything is allocated for
// it, and bytes after the block are corrupt.
func decodeBlock(payload []byte) (*GeoBlock, error) {
	src := bytes.NewReader(payload)
	r := &leReader{r: bufio.NewReader(src)}
	if magic := string(r.bytes(4)); r.err == nil && magic != blockMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	if v := r.u32(); r.err == nil && v != blockVersion {
		if v == 1 {
			return nil, fmt.Errorf("%w: version 1 (pre-SoA interleaved aggregate layout; rebuild the block from base data and re-serialise with version %d)", ErrVersion, blockVersion)
		}
		return nil, fmt.Errorf("%w: version %d (this build reads version %d)", ErrVersion, v, blockVersion)
	}

	bound := geom.Rect{
		Min: geom.Pt(r.f64(), r.f64()),
		Max: geom.Pt(r.f64(), r.f64()),
	}
	level := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	dom, err := cellid.NewDomain(bound)
	if err != nil {
		return nil, err
	}

	// A column takes at least its name's length and its header
	// aggregates: 28 bytes.
	numCols := int(r.u32())
	if numCols < 0 || numCols > 1<<16 || 28*numCols > len(payload) {
		return nil, fmt.Errorf("%w: implausible column count %d", ErrCorrupt, numCols)
	}
	names := make([]string, numCols)
	for i := range names {
		n := int(r.u32())
		if n < 0 || n > 1<<20 {
			return nil, fmt.Errorf("%w: implausible name length %d", ErrCorrupt, n)
		}
		names[i] = string(r.bytes(n))
	}

	numPreds := int(r.u32())
	if numPreds < 0 || numPreds > 1<<16 {
		return nil, fmt.Errorf("%w: implausible predicate count %d", ErrCorrupt, numPreds)
	}
	filter := make(column.Filter, numPreds)
	for i := range filter {
		filter[i] = column.Predicate{
			Col:   int(r.u32()),
			Op:    column.Op(r.u32()),
			Value: r.f64(),
		}
	}

	b := &GeoBlock{
		domain: dom,
		level:  level,
		schema: column.NewSchema(names...),
		filter: filter,
	}
	b.header.MinCell = cellid.ID(r.u64())
	b.header.MaxCell = cellid.ID(r.u64())
	b.header.Count = r.u64()
	b.header.Cols = make([]ColAggregate, numCols)
	for c := range b.header.Cols {
		b.header.Cols[c] = ColAggregate{Min: r.f64(), Max: r.f64(), Sum: r.f64()}
	}

	// A cell takes 32 bytes plus 24 per column.
	n := int(r.u64())
	if n < 0 || n > 1<<31 || n > len(payload)/(32+24*numCols) {
		return nil, fmt.Errorf("%w: implausible cell count %d", ErrCorrupt, n)
	}
	b.keys = make([]cellid.ID, n)
	for i := range b.keys {
		b.keys[i] = cellid.ID(r.u64())
	}
	b.offsets = make([]uint32, n)
	for i := range b.offsets {
		b.offsets[i] = r.u32()
	}
	b.counts = make([]uint32, n)
	for i := range b.counts {
		b.counts[i] = r.u32()
	}
	b.minKeys = make([]cellid.ID, n)
	for i := range b.minKeys {
		b.minKeys[i] = cellid.ID(r.u64())
	}
	b.maxKeys = make([]cellid.ID, n)
	for i := range b.maxKeys {
		b.maxKeys[i] = cellid.ID(r.u64())
	}
	b.cols = make([]colStore, numCols)
	for c := range b.cols {
		cs := &b.cols[c]
		cs.sums = make([]float64, n)
		for i := range cs.sums {
			cs.sums[i] = r.f64()
		}
		cs.mins = make([]float64, n)
		for i := range cs.mins {
			cs.mins[i] = r.f64()
		}
		cs.maxs = make([]float64, n)
		for i := range cs.maxs {
			cs.maxs[i] = r.f64()
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if rest := r.r.Buffered() + src.Len(); rest != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the block", ErrCorrupt, rest)
	}
	b.buildPrefixes()
	return b, nil
}

// Framed serialization. A frame wraps one WriteTo payload with a length
// prefix and a CRC32C trailer so on-disk artifacts (the snapshot
// subsystem's per-shard files) are self-delimiting and tamper-evident:
//
//	frame magic "GBF1" | payload length u64 | payload | CRC32C(payload) u32
//
// The checksum is CRC32C (Castagnoli polynomial, as in iSCSI and ext4)
// over exactly the payload bytes. docs/FORMAT.md specifies the layout
// byte by byte.
const frameMagic = "GBF1"

// maxFramePayload bounds the length prefix a reader will trust: 1 TiB is
// orders of magnitude above any realistic shard block, so anything larger
// is a corrupt or hostile frame, not data.
const maxFramePayload = 1 << 40

// crcTable is the Castagnoli table shared by all frame writers/readers.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CRC32C computes the Castagnoli checksum used throughout the on-disk
// format (frame trailers and the snapshot manifest sidecar).
func CRC32C(data []byte) uint32 { return crc32.Checksum(data, crcTable) }

// CRC32CUpdate extends a running Castagnoli checksum with more bytes, for
// callers that checksum non-contiguous regions without copying them.
func CRC32CUpdate(sum uint32, data []byte) uint32 { return crc32.Update(sum, crcTable, data) }

// FrameInfo describes an encoded frame: the manifest-level facts a
// durable store records next to the payload.
type FrameInfo struct {
	// Bytes is the total frame size: magic + length + payload + trailer.
	Bytes int64
	// PayloadBytes is the length of the wrapped WriteTo payload.
	PayloadBytes int64
	// CRC32C is the Castagnoli checksum of the payload (the trailer
	// value).
	CRC32C uint32
}

// EncodeFramed serialises the block as one frame. The payload is staged
// in memory to compute the length prefix and checksum, so encoding
// transiently needs about one serialized-block copy of memory.
func (b *GeoBlock) EncodeFramed(dst io.Writer) (FrameInfo, error) {
	var payload bytes.Buffer
	if _, err := b.WriteTo(&payload); err != nil {
		return FrameInfo{}, err
	}
	info := FrameInfo{
		Bytes:        int64(4 + 8 + payload.Len() + 4),
		PayloadBytes: int64(payload.Len()),
		CRC32C:       crc32.Checksum(payload.Bytes(), crcTable),
	}
	w := &leWriter{w: bufio.NewWriter(dst)}
	w.bytes([]byte(frameMagic))
	w.u64(uint64(payload.Len()))
	w.bytes(payload.Bytes())
	w.u32(info.CRC32C)
	if w.err == nil {
		w.err = w.w.Flush()
	}
	if w.err != nil {
		return FrameInfo{}, w.err
	}
	return info, nil
}

// DecodeFramed reads one frame written by EncodeFramed, validates it and
// deserialises the payload. Validation order: frame magic, length sanity,
// payload magic and version (so a stale-format file reports ErrVersion
// rather than a checksum mismatch), then the CRC32C trailer, then the
// payload decode. Every failure wraps ErrCorrupt or ErrVersion.
func DecodeFramed(src io.Reader) (*GeoBlock, FrameInfo, error) {
	r := &leReader{r: bufio.NewReader(src)}
	if magic := string(r.bytes(4)); r.err == nil && magic != frameMagic {
		return nil, FrameInfo{}, fmt.Errorf("%w: bad frame magic %q", ErrCorrupt, magic)
	}
	n := r.u64()
	if r.err != nil {
		return nil, FrameInfo{}, fmt.Errorf("%w: truncated frame header: %v", ErrCorrupt, r.err)
	}
	if n < 8 || n > maxFramePayload {
		return nil, FrameInfo{}, fmt.Errorf("%w: implausible frame payload length %d", ErrCorrupt, n)
	}
	// The length prefix is untrusted input: never allocate it up front.
	// Copying through a growing buffer bounds memory by the bytes that
	// actually arrive, so a corrupt prefix on a short file fails with
	// ErrCorrupt instead of a giant allocation.
	var buf bytes.Buffer
	if n <= 1<<20 {
		buf.Grow(int(n))
	}
	if m, err := io.CopyN(&buf, r.r, int64(n)); err != nil || m != int64(n) {
		return nil, FrameInfo{}, fmt.Errorf("%w: truncated frame payload (got %d of %d bytes)", ErrCorrupt, buf.Len(), n)
	}
	payload := buf.Bytes()
	if magic := string(payload[:4]); magic != blockMagic {
		return nil, FrameInfo{}, fmt.Errorf("%w: bad payload magic %q", ErrCorrupt, magic)
	}
	if v := binary.LittleEndian.Uint32(payload[4:8]); v != blockVersion {
		return nil, FrameInfo{}, fmt.Errorf("%w: payload version %d (this build reads version %d)", ErrVersion, v, blockVersion)
	}
	trailer := r.u32()
	if r.err != nil {
		return nil, FrameInfo{}, fmt.Errorf("%w: truncated frame trailer: %v", ErrCorrupt, r.err)
	}
	info := FrameInfo{
		Bytes:        int64(4 + 8 + len(payload) + 4),
		PayloadBytes: int64(len(payload)),
		CRC32C:       crc32.Checksum(payload, crcTable),
	}
	if info.CRC32C != trailer {
		return nil, FrameInfo{}, fmt.Errorf("%w: payload CRC32C %08x does not match trailer %08x", ErrCorrupt, info.CRC32C, trailer)
	}
	b, err := decodeBlock(payload)
	if err != nil {
		if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) {
			return nil, FrameInfo{}, err
		}
		return nil, FrameInfo{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return b, info, nil
}

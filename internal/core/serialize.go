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

// The serialization-v2 block stream, read inside a GBF1 frame. A GeoBlock
// is a materialized view (paper Sec. 1); persisting it lets analysis
// sessions reopen pre-built blocks without re-running extract/build.
// Every block the program writes is format v3 (v3.go). This stream is a
// read-only legacy format, read for format-1 snapshots and older
// cmd/geoblocks block files. It is little-endian:
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
// The derived prefix-sum arrays are rebuilt on read rather than stored,
// and the base-data reference is not serialized.
const (
	blockMagic   = "GBLK"
	blockVersion = 2
)

// Typed deserialization failures. Every error returned by DecodeFramed
// and MapBlock wraps one of these, so callers (the snapshot subsystem,
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

// decodeBlock deserialises one stream payload whose magic and version
// DecodeFramed has checked. Every count is checked against the bytes the
// payload holds before anything is allocated for it, and bytes after the
// block are corrupt.
func decodeBlock(payload []byte) (*GeoBlock, error) {
	src := bytes.NewReader(payload[8:])
	r := &leReader{r: bufio.NewReader(src)}
	bound := geom.Rect{
		Min: geom.Pt(r.f64(), r.f64()),
		Max: geom.Pt(r.f64(), r.f64()),
	}
	level := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if level > cellid.MaxLevel {
		return nil, fmt.Errorf("%w: implausible block level %d", ErrCorrupt, level)
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

// Framed serialization. A frame wraps one stream payload with a length
// prefix and a CRC32C trailer, so legacy on-disk artifacts (format-1
// snapshot shards, older cmd/geoblocks block files) are self-delimiting
// and tamper-evident:
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

// crcTable is the Castagnoli table of every on-disk checksum.
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
	// PayloadBytes is the length of the wrapped stream payload.
	PayloadBytes int64
	// CRC32C is the Castagnoli checksum of the payload (the trailer
	// value).
	CRC32C uint32
}

// DecodeFramed reads one GBF1 frame, validates it and deserialises the
// payload. Validation order: frame magic, length sanity, payload magic
// and version (so a stale-format file reports ErrVersion rather than a
// checksum mismatch), then the CRC32C trailer, then the payload decode.
// Every failure wraps ErrCorrupt or ErrVersion.
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

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"geoblocks/internal/column"
	"geoblocks/internal/cover"
)

// gbf1Fixture is a GBF1 frame committed under testdata/gbf1. The frame
// writer of an earlier build wrote it from newFixture(rows,
// seed).build(level, filter), where the filter is fare > 10 if filtered
// and none otherwise. Nothing writes GBF1 any more, so these bytes are
// the format the legacy reader has to keep reading.
type gbf1Fixture struct {
	file     string
	rows     int
	seed     int64
	level    int
	filtered bool
}

var gbf1Fixtures = []gbf1Fixture{
	{"n4000-s16-l4.gbf1", 4000, 16, 4, false},
	{"n8000-s16-l4-fare-gt-10.gbf1", 8000, 16, 4, true},
	{"n500-s23-l7.gbf1", 500, 23, 7, false},
	{"n40-s3-l5.gbf1", 40, 3, 5, false},
}

// bytes returns the committed frame.
func (fx gbf1Fixture) bytes(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "gbf1", fx.file))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// block builds, in memory, the block the frame was written from.
func (fx gbf1Fixture) block(t testing.TB) (*testFixture, *GeoBlock) {
	t.Helper()
	f := newFixture(t, fx.rows, fx.seed)
	var filter column.Filter
	if fx.filtered {
		filter = column.Pred(f.schema, "fare", column.OpGt, 10)
	}
	return f, f.build(t, fx.level, filter)
}

// decode decodes the committed frame and checks it, bit for bit and
// prefix sums included, against the block it was written from, which it
// returns too.
func (fx gbf1Fixture) decode(t *testing.T) (f *testFixture, decoded, built *GeoBlock) {
	t.Helper()
	data := fx.bytes(t)
	decoded, info, err := DecodeFramed(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", fx.file, err)
	}
	if want := frameInfoOf(data); info != want {
		t.Fatalf("%s: decode info %+v, want %+v", fx.file, info, want)
	}
	f, built = fx.block(t)
	want := *built
	want.base = nil // a decoded block carries no base data
	requireSameBits(t, fx.file, decoded, &want)
	return f, decoded, built
}

// frameInfoOf reads a well-formed frame's facts off its bytes.
func frameInfoOf(frame []byte) FrameInfo {
	return FrameInfo{
		Bytes:        int64(len(frame)),
		PayloadBytes: int64(binary.LittleEndian.Uint64(frame[4:12])),
		CRC32C:       binary.LittleEndian.Uint32(frame[len(frame)-4:]),
	}
}

// frameBytes returns the first committed frame and its FrameInfo.
func frameBytes(t testing.TB) ([]byte, FrameInfo) {
	t.Helper()
	frame := gbf1Fixtures[0].bytes(t)
	return frame, frameInfoOf(frame)
}

func TestFrameRoundTrip(t *testing.T) {
	for _, fx := range gbf1Fixtures {
		f, rb, b := fx.decode(t)
		// Query equivalence through the framed round trip.
		cov := cover.MustCoverer(f.dom, cover.DefaultOptions(fx.level)).Cover(testPolygon())
		a, err := b.SelectCovering(cov.Cells, allSpecs())
		if err != nil {
			t.Fatal(err)
		}
		c, err := rb.SelectCovering(cov.Cells, allSpecs())
		if err != nil {
			t.Fatal(err)
		}
		if a.Count != c.Count {
			t.Fatalf("%s: counts differ: %d vs %d", fx.file, a.Count, c.Count)
		}
	}
}

// frameCase is one mutation of a valid frame and the typed error it must
// surface.
type frameCase struct {
	name    string
	mutate  func([]byte) []byte
	wantErr error
}

// frameCorruptions is the frame-level corruption table over a frame whose
// encoding reported info.
func frameCorruptions(info FrameInfo) []frameCase {
	return []frameCase{
		{"frame magic flipped", func(b []byte) []byte {
			b[0] ^= 0xff
			return b
		}, ErrCorrupt},
		{"length prefix implausible", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[4:12], 1<<50)
			return b
		}, ErrCorrupt},
		{"truncated payload", func(b []byte) []byte {
			return b[:len(b)/2]
		}, ErrCorrupt},
		{"truncated trailer", func(b []byte) []byte {
			return b[:len(b)-2]
		}, ErrCorrupt},
		{"payload bit flip", func(b []byte) []byte {
			b[12+info.PayloadBytes/2] ^= 0x01
			return b
		}, ErrCorrupt},
		{"trailer bit flip", func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		}, ErrCorrupt},
		{"payload magic flipped", func(b []byte) []byte {
			b[12] ^= 0xff
			return b
		}, ErrCorrupt},
		// The version field is inspected before the checksum, so a
		// version bump reports ErrVersion even though it also breaks the
		// CRC.
		{"payload version bumped", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:20], 99)
			return b
		}, ErrVersion},
		{"payload version 1", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:20], 1)
			return b
		}, ErrVersion},
		// The bound's min x (payload offset 8) made -Inf, with the
		// trailer recomputed so the domain check has to catch it.
		{"non-finite bound", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[20:28], math.Float64bits(math.Inf(-1)))
			binary.LittleEndian.PutUint32(b[len(b)-4:], CRC32C(b[12:len(b)-4]))
			return b
		}, ErrCorrupt},
		// The level (payload offset 40) set to 31, one past
		// cellid.MaxLevel, with the trailer recomputed.
		{"level out of range", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[52:56], 31)
			binary.LittleEndian.PutUint32(b[len(b)-4:], CRC32C(b[12:len(b)-4]))
			return b
		}, ErrCorrupt},
	}
}

// TestFrameCorruption: every mutation of the on-disk bytes must surface
// the right typed error.
func TestFrameCorruption(t *testing.T) {
	frame, info := frameBytes(t)
	for _, tc := range frameCorruptions(info) {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(bytes.Clone(frame))
			_, _, err := DecodeFramed(bytes.NewReader(mutated))
			if err == nil {
				t.Fatal("corrupt frame accepted")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v, want %v", err, tc.wantErr)
			}
		})
	}

	// The pristine frame still decodes after all that.
	if _, _, err := DecodeFramed(bytes.NewReader(frame)); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
}

// reframe wraps payload in a GBF1 frame with a matching length prefix and
// CRC32C trailer.
func reframe(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint64([]byte(frameMagic), uint64(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, CRC32C(payload))
}

// TestReadBlockTypedErrors: behind a valid checksum, the payload
// decoder's own checks fail every committed frame with ErrCorrupt.
func TestReadBlockTypedErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(payload []byte) []byte
	}{
		// numCols sits at payload offset 44, the first name's length
		// at 48.
		{"column count implausible", func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[44:48], 1<<17)
			return p
		}},
		{"name length implausible", func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[48:52], 1<<21)
			return p
		}},
		{"payload cut short", func(p []byte) []byte { return p[:len(p)-8] }},
		{"bytes after the block", func(p []byte) []byte { return append(p, make([]byte, 8)...) }},
	}
	for _, fx := range gbf1Fixtures {
		frame := fx.bytes(t)
		for _, tc := range cases {
			payload := tc.mutate(bytes.Clone(frame[12 : len(frame)-4]))
			if _, _, err := DecodeFramed(bytes.NewReader(reframe(payload))); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s, %s: error %v, want ErrCorrupt", fx.file, tc.name, err)
			}
		}
	}
}

// TestDecodeFramedHugeLengthPrefix pins the untrusted-length guard: a
// plausible-but-false length prefix on a short stream must fail with
// ErrCorrupt after reading only the bytes that exist, not allocate the
// claimed size up front.
func TestDecodeFramedHugeLengthPrefix(t *testing.T) {
	frame, _ := frameBytes(t)
	mutated := bytes.Clone(frame)
	binary.LittleEndian.PutUint64(mutated[4:12], 1<<38) // 256 GiB claim, under the sanity cap
	_, _, err := DecodeFramed(bytes.NewReader(mutated))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", err)
	}
}

// FuzzDecodeFramed feeds arbitrary GBF1 frames to DecodeFramed. When the
// input holds the whole frame its length prefix announces, the CRC32C
// trailer is recomputed over the fuzzed payload first, so the fuzzer
// reaches the payload decoder behind the checksum. A frame must decode to
// a typed error (ErrCorrupt, ErrVersion) or to a block whose EncodeV3
// image maps back through MapBlock to the same arrays, bit for bit; it
// must never panic.
func FuzzDecodeFramed(f *testing.F) {
	frame, info := frameBytes(f)
	f.Add(frame)
	for _, tc := range frameCorruptions(info) {
		f.Add(tc.mutate(bytes.Clone(frame)))
	}
	for _, fx := range gbf1Fixtures[1:] {
		f.Add(fx.bytes(f))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		if len(data) >= 16 {
			if n := binary.LittleEndian.Uint64(data[4:12]); n <= uint64(len(data)-16) {
				binary.LittleEndian.PutUint32(data[12+n:], CRC32C(data[12:12+n]))
			}
		}
		b, _, err := DecodeFramed(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("decode error %v is neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		m, err := MapBlock(b.EncodeV3())
		if err != nil {
			t.Fatalf("the decoded block's v3 image does not map: %v", err)
		}
		m.mapped = false
		requireSameBits(t, "v3 image of the decoded block", m, b)
	})
}

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"geoblocks/internal/cover"
)

// frameBytes encodes the fixture block as one frame and returns the raw
// bytes plus the reported FrameInfo.
func frameBytes(t testing.TB) ([]byte, FrameInfo) {
	t.Helper()
	f := newFixture(t, 4000, 16)
	b := f.build(t, 11, nil)
	var buf bytes.Buffer
	info, err := b.EncodeFramed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), info
}

func TestFrameRoundTrip(t *testing.T) {
	f := newFixture(t, 6000, 16)
	b := f.build(t, 11, nil)
	var buf bytes.Buffer
	info, err := b.EncodeFramed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != info.Bytes {
		t.Fatalf("frame is %d bytes, info says %d", buf.Len(), info.Bytes)
	}
	if info.PayloadBytes != info.Bytes-16 {
		t.Fatalf("payload %d vs frame %d: framing overhead must be 16 bytes", info.PayloadBytes, info.Bytes)
	}

	rb, rinfo, err := DecodeFramed(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rinfo != info {
		t.Fatalf("decode info %+v != encode info %+v", rinfo, info)
	}
	if rb.NumCells() != b.NumCells() || rb.NumTuples() != b.NumTuples() {
		t.Fatalf("round trip mismatch: %d/%d cells, %d/%d tuples",
			rb.NumCells(), b.NumCells(), rb.NumTuples(), b.NumTuples())
	}
	// Query equivalence through the framed round trip.
	cov := cover.MustCoverer(f.dom, cover.DefaultOptions(11)).Cover(testPolygon())
	a, err := b.SelectCovering(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	c, err := rb.SelectCovering(cov.Cells, allSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != c.Count {
		t.Fatalf("counts differ: %d vs %d", a.Count, c.Count)
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

func TestReadBlockTypedErrors(t *testing.T) {
	frame, _ := frameBytes(t)
	payload := frame[12 : len(frame)-4]

	bad := bytes.Clone(payload)
	bad[0] ^= 0xff
	if _, err := ReadBlock(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic error %v, want ErrCorrupt", err)
	}
	bad = bytes.Clone(payload)
	binary.LittleEndian.PutUint32(bad[4:8], 1)
	if _, err := ReadBlock(bytes.NewReader(bad)); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-1 error %v, want ErrVersion", err)
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
// a typed error (ErrCorrupt, ErrVersion) or to a block whose EncodeFramed
// gives the same frame back; it must never panic.
func FuzzDecodeFramed(f *testing.F) {
	frame, info := frameBytes(f)
	f.Add(frame)
	for _, tc := range frameCorruptions(info) {
		f.Add(tc.mutate(bytes.Clone(frame)))
	}
	var small bytes.Buffer
	if _, err := newFixture(f, 40, 3).build(f, 5, nil).EncodeFramed(&small); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		if len(data) >= 16 {
			if n := binary.LittleEndian.Uint64(data[4:12]); n <= uint64(len(data)-16) {
				binary.LittleEndian.PutUint32(data[12+n:], CRC32C(data[12:12+n]))
			}
		}
		b, info, err := DecodeFramed(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("decode error %v is neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		var again bytes.Buffer
		if _, err := b.EncodeFramed(&again); err != nil {
			t.Fatalf("decoded block does not encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data[:info.Bytes]) {
			t.Fatalf("re-encoded frame (%d bytes) differs from the decoded one (%d bytes)", again.Len(), info.Bytes)
		}
	})
}

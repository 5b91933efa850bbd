package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"geoblocks/internal/cover"
	"geoblocks/internal/geom"
)

var wireSpecs = []AggSpec{
	{Func: AggCount},
	{Func: AggSum, Col: 0},
	{Func: AggMin, Col: 1},
	{Func: AggMax, Col: 1},
	{Func: AggAvg, Col: 2},
}

// partialFor runs a covering partial over the fixture's hotspot, giving a
// non-trivial accumulator state to round-trip.
func partialFor(t testing.TB, b *GeoBlock, f *testFixture) *Accumulator {
	t.Helper()
	c := cover.MustCoverer(f.dom, cover.DefaultOptions(12))
	cov := c.CoverRect(geom.Rect{Min: geom.Pt(20, 30), Max: geom.Pt(45, 55)}).Cells
	acc, err := b.SelectCoveringPartial(cov, wireSpecs)
	if err != nil {
		t.Fatalf("partial: %v", err)
	}
	return acc
}

func TestPartialRoundTrip(t *testing.T) {
	f := newFixture(t, 5000, 11)
	b := f.build(t, 12, nil)
	acc := partialFor(t, b, f)

	frame := acc.EncodePartial()
	dec, err := b.DecodePartial(frame, wireSpecs)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.inner.count != acc.inner.count {
		t.Errorf("count = %d, want %d", dec.inner.count, acc.inner.count)
	}
	if dec.visited != acc.visited {
		t.Errorf("visited = %d, want %d", dec.visited, acc.visited)
	}
	for i, v := range dec.inner.vals {
		if math.Float64bits(v) != math.Float64bits(acc.inner.vals[i]) {
			t.Errorf("val[%d] = %v (bits %#x), want %v (bits %#x)",
				i, v, math.Float64bits(v), acc.inner.vals[i], math.Float64bits(acc.inner.vals[i]))
		}
	}

	// A merge of decoded partials must equal the same merge of the
	// originals bit for bit.
	other, err := b.SelectCoveringPartial(nil, wireSpecs)
	if err != nil {
		t.Fatalf("empty partial: %v", err)
	}
	if err := other.MergeFrom(dec); err != nil {
		t.Fatalf("merge: %v", err)
	}
	want := acc.Result()
	got := other.Result()
	if got.Count != want.Count {
		t.Errorf("merged count = %d, want %d", got.Count, want.Count)
	}
	for i := range got.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Errorf("merged value[%d] = %v, want %v", i, got.Values[i], want.Values[i])
		}
	}
}

// TestPartialRoundTripIdentity covers the empty accumulator: ±Inf min/max
// identity elements must survive the wire so merging an empty shard is a
// no-op, exactly as in-process.
func TestPartialRoundTripIdentity(t *testing.T) {
	f := newFixture(t, 200, 3)
	b := f.build(t, 12, nil)
	acc, err := b.SelectCoveringPartial(nil, wireSpecs)
	if err != nil {
		t.Fatalf("empty partial: %v", err)
	}
	dec, err := b.DecodePartial(acc.EncodePartial(), wireSpecs)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.inner.count != 0 {
		t.Errorf("count = %d, want 0", dec.inner.count)
	}
	if !math.IsInf(dec.inner.vals[2], 1) || !math.IsInf(dec.inner.vals[3], -1) {
		t.Errorf("identity min/max = %v/%v, want +Inf/-Inf", dec.inner.vals[2], dec.inner.vals[3])
	}
}

// partialCase is one damaged frame and the typed error its decode must
// return.
type partialCase struct {
	name  string
	frame []byte
	want  error
}

// malformedPartials is the corruption table over a valid frame of
// wireSpecs.
func malformedPartials(frame []byte) []partialCase {
	damage := func(mut func(fr []byte) []byte) []byte {
		cp := append([]byte(nil), frame...)
		return mut(cp)
	}
	refix := func(fr []byte) []byte {
		// Recompute the trailing checksum so the mutation itself, not the
		// CRC, is what the decoder must catch.
		binary.LittleEndian.PutUint32(fr[len(fr)-4:], CRC32C(fr[:len(fr)-4]))
		return fr
	}
	return []partialCase{
		{"empty", nil, ErrCorrupt},
		{"truncated header", frame[:6], ErrCorrupt},
		{"truncated body", frame[:len(frame)-9], ErrCorrupt},
		{"trailing garbage", append(append([]byte(nil), frame...), 0xAB), ErrCorrupt},
		{"bad magic", damage(func(fr []byte) []byte { fr[0] = 'X'; return fr }), ErrCorrupt},
		{"future version", damage(func(fr []byte) []byte {
			binary.LittleEndian.PutUint16(fr[4:], 9)
			return refix(fr)
		}), ErrVersion},
		{"flipped payload bit", damage(func(fr []byte) []byte { fr[len(fr)-7] ^= 0x10; return fr }), ErrCorrupt},
		{"flipped checksum", damage(func(fr []byte) []byte { fr[len(fr)-1] ^= 0xFF; return fr }), ErrCorrupt},
		{"spec func mismatch", damage(func(fr []byte) []byte {
			fr[8] = byte(AggSum) // frame says SUM where decoder expects COUNT
			return refix(fr)
		}), ErrCorrupt},
		{"spec col mismatch", damage(func(fr []byte) []byte {
			binary.LittleEndian.PutUint16(fr[12:], 7)
			return refix(fr)
		}), ErrCorrupt},
	}
}

// TestDecodePartialMalformed is the corruption table: every damaged frame
// must be rejected with a typed error, never decoded into garbage.
func TestDecodePartialMalformed(t *testing.T) {
	f := newFixture(t, 1000, 5)
	b := f.build(t, 12, nil)
	frame := partialFor(t, b, f).EncodePartial()

	for _, tc := range malformedPartials(frame) {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := b.DecodePartial(tc.frame, wireSpecs); !errors.Is(err, tc.want) {
				t.Errorf("decode = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}

	// Spec-count mismatch between caller and frame.
	if _, err := b.DecodePartial(frame, wireSpecs[:3]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short specs decode = %v, want ErrCorrupt", err)
	}
	// Specs invalid for the target block are rejected before parsing.
	if _, err := b.DecodePartial(frame, []AggSpec{{Func: AggSum, Col: 99}}); err == nil {
		t.Error("decode with out-of-range column spec succeeded")
	}
}

// FuzzDecodePartial feeds arbitrary GBP1 frames to the decoder. The
// trailing CRC32C is recomputed over the fuzzed bytes first, so the
// fuzzer reaches the parser behind the checksum. A frame must decode to
// a typed error (ErrCorrupt, ErrVersion) or to an accumulator whose own
// frame decodes back to a bit-identical Result; it must never panic.
func FuzzDecodePartial(f *testing.F) {
	fx := newFixture(f, 1000, 5)
	b := fx.build(f, 12, nil)
	frame := partialFor(f, b, fx).EncodePartial()
	f.Add(frame)
	for _, tc := range malformedPartials(frame) {
		f.Add(tc.frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		if len(data) >= 4 {
			binary.LittleEndian.PutUint32(data[len(data)-4:], CRC32C(data[:len(data)-4]))
		}
		acc, err := b.DecodePartial(data, wireSpecs)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("decode error %v is neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		again, err := b.DecodePartial(acc.EncodePartial(), wireSpecs)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		got, want := again.Result(), acc.Result()
		same := got.Count == want.Count && got.CellsVisited == want.CellsVisited && len(got.Values) == len(want.Values)
		for i := 0; same && i < len(got.Values); i++ {
			same = math.Float64bits(got.Values[i]) == math.Float64bits(want.Values[i])
		}
		if !same {
			t.Fatalf("round trip changed the result: %+v, want %+v", got, want)
		}
	})
}

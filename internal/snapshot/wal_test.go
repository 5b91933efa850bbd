package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"geoblocks/internal/geom"
)

func walBatch(rng *rand.Rand, n, cols int) ([]geom.Point, [][]float64) {
	pts := make([]geom.Point, n)
	cs := make([][]float64, cols)
	for c := range cs {
		cs[c] = make([]float64, n)
	}
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		for c := range cs {
			cs[c][i] = rng.NormFloat64() * 100
		}
	}
	return pts, cs
}

func assertBatches(t *testing.T, got []WALBatch, want []WALBatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d batches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("batch %d: seq %d, want %d", i, got[i].Seq, want[i].Seq)
		}
		if len(got[i].Points) != len(want[i].Points) {
			t.Fatalf("batch %d: %d rows, want %d", i, len(got[i].Points), len(want[i].Points))
		}
		for j := range got[i].Points {
			if got[i].Points[j] != want[i].Points[j] {
				t.Fatalf("batch %d row %d: point %v, want %v", i, j, got[i].Points[j], want[i].Points[j])
			}
		}
		for c := range got[i].Cols {
			for j := range got[i].Cols[c] {
				if got[i].Cols[c][j] != want[i].Cols[c][j] {
					t.Fatalf("batch %d col %d row %d: %v, want %v",
						i, c, j, got[i].Cols[c][j], want[i].Cols[c][j])
				}
			}
		}
	}
}

// TestWALRoundTrip appends batches, reopens, and expects every batch
// back bit-identically, with the handle positioned to keep appending.
func TestWALRoundTrip(t *testing.T) {
	path := WALPath(t.TempDir(), "rt")
	w, replay, err := OpenWAL(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 0 {
		t.Fatalf("fresh wal replayed %d batches", len(replay))
	}
	rng := rand.New(rand.NewSource(1))
	var want []WALBatch
	for seq := uint64(1); seq <= 5; seq++ {
		pts, cols := walBatch(rng, 1+rng.Intn(50), 2)
		if err := w.Append(seq, pts, cols); err != nil {
			t.Fatal(err)
		}
		want = append(want, WALBatch{Seq: seq, Points: pts, Cols: cols})
	}
	if got := w.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	// Out-of-order and duplicate sequence numbers are refused.
	if err := w.Append(5, want[0].Points, want[0].Cols); err == nil {
		t.Fatal("duplicate seq accepted")
	}
	// Wrong column count is refused.
	if err := w.Append(6, want[0].Points, want[0].Cols[:1]); err == nil {
		t.Fatal("wrong column count accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, replay, err := OpenWAL(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertBatches(t, replay, want)
	// The reopened handle appends after the last intact frame.
	pts, cols := walBatch(rng, 7, 2)
	if err := w2.Append(6, pts, cols); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, replay, err = OpenWAL(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertBatches(t, replay, append(want, WALBatch{Seq: 6, Points: pts, Cols: cols}))
}

// TestWALTornTail simulates crashes mid-append: garbage bytes, a
// truncated payload, and a corrupted final frame must all be dropped,
// keeping every frame before them.
func TestWALTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	write := func(t *testing.T, path string, n int) []WALBatch {
		t.Helper()
		w, _, err := OpenWAL(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		var want []WALBatch
		for seq := uint64(1); seq <= uint64(n); seq++ {
			pts, cols := walBatch(rng, 1+rng.Intn(20), 1)
			if err := w.Append(seq, pts, cols); err != nil {
				t.Fatal(err)
			}
			want = append(want, WALBatch{Seq: seq, Points: pts, Cols: cols})
		}
		w.Close()
		return want
	}
	t.Run("garbage tail", func(t *testing.T) {
		path := WALPath(t.TempDir(), "w")
		want := write(t, path, 3)
		f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		f.Write([]byte{0xde, 0xad, 0xbe, 0xef})
		f.Close()
		_, replay, err := OpenWAL(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		assertBatches(t, replay, want)
	})
	t.Run("truncated payload", func(t *testing.T) {
		path := WALPath(t.TempDir(), "w")
		want := write(t, path, 3)
		st, _ := os.Stat(path)
		if err := os.Truncate(path, st.Size()-5); err != nil {
			t.Fatal(err)
		}
		_, replay, err := OpenWAL(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		assertBatches(t, replay, want[:2])
	})
	t.Run("bit flip in last frame", func(t *testing.T) {
		path := WALPath(t.TempDir(), "w")
		want := write(t, path, 3)
		data, _ := os.ReadFile(path)
		data[len(data)-1] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, replay, err := OpenWAL(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		assertBatches(t, replay, want[:2])
		// The truncation is durable: a further reopen sees a clean log.
		_, replay, err = OpenWAL(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		assertBatches(t, replay, want[:2])
	})
	t.Run("header only", func(t *testing.T) {
		path := WALPath(t.TempDir(), "w")
		write(t, path, 0)
		_, replay, err := OpenWAL(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(replay) != 0 {
			t.Fatalf("replayed %d batches from empty log", len(replay))
		}
	})
}

// TestWALCorrupt pins the structural failures that must be loud errors,
// not silent truncation: a foreign file and a column-count mismatch.
func TestWALCorrupt(t *testing.T) {
	t.Run("bad magic", func(t *testing.T) {
		path := WALPath(t.TempDir(), "w")
		if err := os.WriteFile(path, []byte("definitely not a wal file"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenWAL(path, 1); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("err = %v, want ErrWALCorrupt", err)
		}
	})
	t.Run("column mismatch", func(t *testing.T) {
		path := WALPath(t.TempDir(), "w")
		w, _, err := OpenWAL(path, 3)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		if _, _, err := OpenWAL(path, 2); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("err = %v, want ErrWALCorrupt", err)
		}
	})
}

// TestWALTruncateThrough folds a prefix away and expects only the tail
// to replay, across the atomic rewrite and after reopen.
func TestWALTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	path := WALPath(dir, "tt")
	w, _, err := OpenWAL(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var want []WALBatch
	for seq := uint64(1); seq <= 6; seq++ {
		pts, cols := walBatch(rng, 10, 2)
		if err := w.Append(seq, pts, cols); err != nil {
			t.Fatal(err)
		}
		want = append(want, WALBatch{Seq: seq, Points: pts, Cols: cols})
	}
	before := w.SizeBytes()
	if err := w.TruncateThrough(4); err != nil {
		t.Fatal(err)
	}
	if after := w.SizeBytes(); after >= before {
		t.Fatalf("truncate did not shrink the log: %d -> %d", before, after)
	}
	// The handle survives the swap: appends continue with increasing seq.
	pts, cols := walBatch(rng, 10, 2)
	if err := w.Append(7, pts, cols); err != nil {
		t.Fatal(err)
	}
	want = append(want, WALBatch{Seq: 7, Points: pts, Cols: cols})
	w.Close()
	_, replay, err := OpenWAL(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertBatches(t, replay, want[4:])
	// Truncating through everything leaves a header-only log.
	w2, _, err := OpenWAL(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.TruncateThrough(7); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, replay, err = OpenWAL(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 0 {
		t.Fatalf("replayed %d batches after full truncation", len(replay))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("truncate left its temp file behind: %v", err)
	}
}

// TestWALOversizedFrame pins the allocation guard: a frame header
// claiming more rows than walMaxFrameRows reads as a torn tail, not a
// multi-gigabyte allocation.
func TestWALOversizedFrame(t *testing.T) {
	path := WALPath(t.TempDir(), "big")
	w, _, err := OpenWAL(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts, cols := walBatch(rand.New(rand.NewSource(4)), 5, 1)
	if err := w.Append(1, pts, cols); err != nil {
		t.Fatal(err)
	}
	w.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var head [walFrameHead]byte
	binary.LittleEndian.PutUint64(head[0:8], 2)
	binary.LittleEndian.PutUint32(head[8:12], walMaxFrameRows+1)
	f.Write(head[:])
	f.Close()
	_, replay, err := OpenWAL(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 1 || replay[0].Seq != 1 {
		t.Fatalf("replayed %d batches, want the single intact one", len(replay))
	}
}

// TestRemoveWAL removes the sidecar and tolerates a missing file.
func TestRemoveWAL(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(WALPath(dir, "x"), 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := RemoveWAL(dir, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "x.wal")); !os.IsNotExist(err) {
		t.Fatal("wal still present after RemoveWAL")
	}
	if err := RemoveWAL(dir, "x"); err != nil {
		t.Fatalf("missing wal should not error: %v", err)
	}
}

// walImage returns a WAL file image with numCols in its header followed
// by one frame per batch, as Append writes them.
func walImage(numCols int, batches []WALBatch) []byte {
	img := make([]byte, walHeaderSize)
	copy(img, walMagic[:])
	binary.LittleEndian.PutUint32(img[8:12], uint32(numCols))
	for _, b := range batches {
		img = append(img, encodeFrame(b.Seq, b.Points, b.Cols)...)
	}
	return img
}

// FuzzParseWAL feeds arbitrary WAL images to parseWAL. An image must give
// a typed ErrWALCorrupt, or batches whose frames, re-encoded after the
// image's header, are exactly the prefix parseWAL says it consumed. It
// must never panic, and never allocate more than a small multiple of the
// image's size, whatever row count a frame header claims. The seeds are
// the images TestWALTornTail, TestWALCorrupt and TestWALOversizedFrame
// write through OpenWAL.
func FuzzParseWAL(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	var batches []WALBatch
	for seq := uint64(1); seq <= 3; seq++ {
		pts, cols := walBatch(rng, 1+rng.Intn(20), 1)
		batches = append(batches, WALBatch{Seq: seq, Points: pts, Cols: cols})
	}
	clean := walImage(1, batches)
	oversized := binary.LittleEndian.AppendUint64(walImage(1, batches[:1]), 2)
	oversized = binary.LittleEndian.AppendUint32(oversized, walMaxFrameRows+1)
	oversized = binary.LittleEndian.AppendUint32(oversized, 0)
	flipped := bytes.Clone(clean)
	flipped[len(flipped)-1] ^= 0x40
	for _, seed := range []struct {
		data []byte
		cols uint8
	}{
		{clean, 1},
		{append(bytes.Clone(clean), 0xde, 0xad, 0xbe, 0xef), 1}, // garbage tail
		{clean[:len(clean)-5], 1},                               // truncated payload
		{flipped, 1},                                            // bit flip in last frame
		{walImage(1, nil), 1},                                   // header only
		{[]byte("definitely not a wal file"), 1},                // bad magic
		{walImage(3, nil), 2},                                   // column mismatch
		{oversized, 1},
	} {
		f.Add(seed.data, seed.cols)
	}
	f.Fuzz(func(t *testing.T, data []byte, numCols uint8) {
		cols := int(numCols % 4)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, end, err := parseWAL(data, cols)
		runtime.ReadMemStats(&after)
		if err != nil {
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			if got != nil || end != 0 {
				t.Fatalf("rejected image still gave %d batches, end %d", len(got), end)
			}
			return
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<16 {
			t.Fatalf("parsing %d bytes allocated %d", len(data), alloc)
		}
		if end == 0 {
			if len(got) != 0 {
				t.Fatalf("%d batches from an image with no header", len(got))
			}
			return
		}
		if end < walHeaderSize || end > len(data) {
			t.Fatalf("consumed %d of %d bytes", end, len(data))
		}
		again := bytes.Clone(data[:walHeaderSize])
		for _, b := range got {
			if len(b.Cols) != cols {
				t.Fatalf("batch %d has %d columns, want %d", b.Seq, len(b.Cols), cols)
			}
			for _, c := range b.Cols {
				if len(c) != len(b.Points) {
					t.Fatalf("batch %d has a column of %d rows for %d points", b.Seq, len(c), len(b.Points))
				}
			}
			again = append(again, encodeFrame(b.Seq, b.Points, b.Cols)...)
		}
		if !bytes.Equal(again, data[:end]) {
			t.Fatalf("re-encoded batches (%d bytes) differ from the consumed prefix (%d bytes)", len(again), end)
		}
	})
}

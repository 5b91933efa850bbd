package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"geoblocks"
)

// v2demoShard is a GBF1 frame: shard 0 of the format-1 snapshot fixture,
// holding two rows with fare 10 and 20 over the bound (0,0)–(4,4).
var v2demoShard = filepath.Join("..", "..", "internal", "snapshot", "testdata", "v2demo", "shard-00000.gbk")

const taxiPoly = "-74.05,40.7 -73.9,40.68 -73.85,40.8 -74.0,40.85"

// captureStdout runs fn with os.Stdout sent to a file and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// buildTaxi runs the build subcommand into a temporary file.
func buildTaxi(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "taxi.gblk")
	captureStdout(t, func() error {
		return runBuild([]string{"-dataset", "taxi", "-rows", "3000", "-level", "12", "-out", path})
	})
	return path
}

// answeredLevel reads the level a query or join reports it answered at.
func answeredLevel(t *testing.T, out string) int {
	t.Helper()
	m := regexp.MustCompile(`at level (\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no answering level in output:\n%s", out)
	}
	lvl, _ := strconv.Atoi(m[1])
	return lvl
}

func TestBuildWritesV3(t *testing.T) {
	path := buildTaxi(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("GBK3")) {
		t.Fatalf("build wrote a file starting %q, want the v3 magic", data[:4])
	}
	blk, err := openBlock(path)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Level() != 12 || blk.NumTuples() == 0 || blk.Mapped() {
		t.Fatalf("opened level %d with %d tuples (mapped %v), want level 12, some tuples, not mapped",
			blk.Level(), blk.NumTuples(), blk.Mapped())
	}

	info := captureStdout(t, func() error { return runInfo([]string{"-block", path}) })
	if want := "tuples:     " + strconv.FormatUint(blk.NumTuples(), 10); !strings.Contains(info, want) {
		t.Fatalf("info output lacks %q:\n%s", want, info)
	}

	poly, err := parsePolygon(taxiPoly)
	if err != nil {
		t.Fatal(err)
	}
	want, err := blk.Query(poly, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	exact := captureStdout(t, func() error {
		return runQuery([]string{"-block", path, "-poly", taxiPoly, "-agg", "count,avg:fare_amount"})
	})
	if line := "count        " + strconv.FormatUint(want.Count, 10) + "\n"; !strings.Contains(exact, line) {
		t.Fatalf("query output lacks %q:\n%s", line, exact)
	}
	if lvl := answeredLevel(t, exact); lvl != 12 {
		t.Fatalf("exact query answered at level %d, want 12", lvl)
	}
	bounded := captureStdout(t, func() error {
		return runQuery([]string{"-block", path, "-poly", taxiPoly, "-max-error", "0.01"})
	})
	if lvl := answeredLevel(t, bounded); lvl >= 12 {
		t.Fatalf("-max-error 0.01 answered at level %d, want coarser than 12:\n%s", lvl, bounded)
	}

	// -compare fails the join if any region's count differs from its
	// sequential query.
	join := captureStdout(t, func() error {
		return runJoin([]string{"-block", path, "-window", "-74.05,40.6,-73.85,40.85", "-nx", "3", "-ny", "2", "-compare"})
	})
	if n := strings.Count(join, "region "); n != 6 {
		t.Fatalf("join printed %d regions, want 6:\n%s", n, join)
	}
}

// TestOpenLegacyFrame: info, query and join read a GBF1 frame.
func TestOpenLegacyFrame(t *testing.T) {
	blk, err := openBlock(v2demoShard)
	if err != nil {
		t.Fatal(err)
	}
	res, err := blk.QueryRect(geoblocks.Rect{Min: geoblocks.Pt(0, 0), Max: geoblocks.Pt(4, 4)},
		geoblocks.Count(), geoblocks.Sum("fare"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || res.Values[1] != 30 {
		t.Fatalf("whole-domain query answers count %d sum %v, want 2 and 30", res.Count, res.Values[1])
	}

	captureStdout(t, func() error { return runInfo([]string{"-block", v2demoShard}) })
	out := captureStdout(t, func() error {
		return runQuery([]string{"-block", v2demoShard, "-poly", "0,0 4,0 4,4 0,4", "-agg", "count,sum:fare"})
	})
	if !strings.Contains(out, "count        2\n") || !strings.Contains(out, "sum:fare     30\n") {
		t.Fatalf("query output over the whole domain:\n%s", out)
	}
	out = captureStdout(t, func() error {
		return runJoin([]string{"-block", v2demoShard, "-window", "0,0,4,4", "-nx", "1", "-ny", "1"})
	})
	if !strings.Contains(out, "count=2 ") {
		t.Fatalf("join output over the whole domain:\n%s", out)
	}
}

// TestOpenBlockRejectsFlippedByte: one flipped data byte fails the
// checksum in either format.
func TestOpenBlockRejectsFlippedByte(t *testing.T) {
	legacy, err := os.ReadFile(v2demoShard)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(buildTaxi(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		at   int
	}{
		// Mid-payload, past the frame header and the payload's magic
		// and version.
		{"gbf1", legacy, 12 + int(binary.LittleEndian.Uint64(legacy[4:12]))/2},
		// The last byte of the data region.
		{"v3", v3, len(v3) - 1},
	} {
		data := bytes.Clone(tc.data)
		data[tc.at] ^= 0x01
		path := filepath.Join(t.TempDir(), tc.name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openBlock(path); !errors.Is(err, geoblocks.ErrCorruptBlock) {
			t.Fatalf("%s: flipped byte at %d: error %v, want ErrCorruptBlock", tc.name, tc.at, err)
		}
	}
}

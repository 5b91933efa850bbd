package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"geoblocks/internal/geom"
)

// TestAllExperimentsRun executes every registered experiment at Quick
// scale and sanity-checks the produced tables. This is the integration
// test of the whole pipeline: datasets, extract, builds, all baselines,
// covering, cache and measurement plumbing.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	cfg := Quick()
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tables := r.Run(cfg)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("table %q has no rows", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Fatalf("table %q row width %d != header %d", tab.Title, len(row), len(tab.Header))
					}
				}
				var buf bytes.Buffer
				tab.Render(&buf)
				if !strings.Contains(buf.String(), tab.Title) {
					t.Fatal("render lost the title")
				}
			}
		})
	}
}

func TestFindRunner(t *testing.T) {
	if _, ok := Find("fig12"); !ok {
		t.Fatal("fig12 not found")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("bogus id found")
	}
}

func TestDomainLevelCalibration(t *testing.T) {
	nyc := geom.Rect{Min: geom.Pt(-74.30, 40.45), Max: geom.Pt(-73.65, 41.00)}
	us := geom.Rect{Min: geom.Pt(-125.0, 24.5), Max: geom.Pt(-66.5, 49.5)}

	// Paper level 17 over NYC is ~94m cells; our NYC domain diagonal is
	// ~82km, so the equal-size domain level must be ~10.
	if got := DomainLevel(nyc, 17); got < 9 || got > 11 {
		t.Fatalf("NYC paper level 17 -> domain level %d, want ~10", got)
	}
	// Levels translate monotonically.
	prev := -1
	for pl := 13; pl <= 21; pl++ {
		l := DomainLevel(nyc, pl)
		if l < prev {
			t.Fatalf("level translation not monotonic at paper level %d", pl)
		}
		prev = l
	}
	// Paper level 11 over the US (~6km cells): US diagonal ~5600km ->
	// level ~10.
	if got := DomainLevel(us, 11); got < 9 || got > 11 {
		t.Fatalf("US paper level 11 -> domain level %d, want ~10", got)
	}
}

func TestS2DiagonalMeters(t *testing.T) {
	if got := S2DiagonalMeters(13); got != 1500 {
		t.Fatalf("level 13 diag = %g", got)
	}
	if got := S2DiagonalMeters(14); got != 750 {
		t.Fatalf("level 14 diag = %g", got)
	}
	if got := S2DiagonalMeters(11); got != 6000 {
		t.Fatalf("level 11 diag = %g", got)
	}
}

// TestFig16ErrorShrinksWithLevel checks the headline sensitivity result:
// finer levels give lower relative error (paper Fig. 16).
func TestFig16ErrorShrinksWithLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tables := Fig16(Quick())
	tab := tables[0]
	var errs []float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil {
			t.Fatalf("bad error cell %q", row[3])
		}
		errs = append(errs, v)
	}
	if errs[0] <= errs[len(errs)-1] {
		t.Fatalf("error did not shrink from coarsest (%g%%) to finest (%g%%)", errs[0], errs[len(errs)-1])
	}
}

// TestFig18HitRateGrows checks that the skewed workload reaches a high hit
// rate once the cache budget is a few percent (paper Fig. 18).
func TestFig18HitRateGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := Fig18(Quick())[0]
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	// Row 0 is threshold 0: no hits at all.
	if got := parse(tab.Rows[0][4]); got != 0 {
		t.Fatalf("zero budget skewed hit rate = %g", got)
	}
	// The largest budget must give (near-)full skewed hit rate.
	last := tab.Rows[len(tab.Rows)-1]
	if got := parse(last[4]); got < 95 {
		t.Fatalf("full budget skewed hit rate = %g%%, want ~100%%", got)
	}
}

func TestCoveringCellsHelper(t *testing.T) {
	if got := coveringCells(nil); got != 0 {
		t.Fatalf("empty = %d", got)
	}
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 4) on the synthetic stand-in datasets. Each experiment
// is a function from a Config to one or more result Tables that print the
// same rows/series the paper reports; cmd/geobench runs them from the
// command line and the repository-root benchmarks wrap them in testing.B.
//
// Absolute numbers differ from the paper (different hardware, scaled
// datasets, planar decomposition), but the comparisons are set up so the
// paper's qualitative results — who wins, by roughly what factor, where
// crossovers happen — are reproduced; `geobench -list` names the paper
// figure each id stands for.
//
// These experiments measure the paper's data structure in process. The
// serving tier is measured by the benchmark under bench/ (bench/README.md,
// metric names in BENCHMARK.json), not here.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"geoblocks/internal/cellid"
	"geoblocks/internal/geom"
)

// Config scales the experiments. Defaults (via Default) target a laptop:
// the paper's 12M-row taxi dataset is scaled to 1M rows, tweets and OSM
// proportionally. Quick returns a configuration small enough for unit
// tests.
type Config struct {
	// TaxiRows is the NYC taxi dataset size (paper: 12M; scaled).
	TaxiRows int
	// TweetRows is the US tweets dataset size (paper: 8M; scaled).
	TweetRows int
	// OSMRows is the OSM Americas dataset size (paper: 389M; scaled).
	OSMRows int
	// Seed makes all generation and workload selection deterministic.
	Seed int64
}

// Default returns the standard laptop-scale configuration.
func Default() Config {
	return Config{TaxiRows: 1_000_000, TweetRows: 500_000, OSMRows: 1_500_000, Seed: 1}
}

// Quick returns a reduced configuration for tests.
func Quick() Config {
	return Config{TaxiRows: 60_000, TweetRows: 30_000, OSMRows: 50_000, Seed: 1}
}

// S2DiagonalMeters returns the approximate metric cell diagonal of the
// paper's S2 levels (s2geometry.io cell statistics): ~1.5 km at level 13,
// halving per level (level 17 ≈ 94 m, level 21 ≈ 6 m). The paper
// parameterises GeoBlocks by these levels; our quadtree subdivides each
// dataset's bounding box instead of the whole Earth, so experiments
// translate paper levels to domain levels of equal metric cell size via
// DomainLevel.
func S2DiagonalMeters(paperLevel int) float64 {
	return 1500 * math.Pow(2, float64(13-paperLevel))
}

// DomainLevel maps a paper (S2) level to the domain level over bound with
// the closest metric cell diagonal, using a local equirectangular
// approximation at the bound's mid latitude.
func DomainLevel(bound geom.Rect, paperLevel int) int {
	mx, my := metersPerDegree(bound)
	diag := math.Hypot(bound.Width()*mx, bound.Height()*my)
	target := S2DiagonalMeters(paperLevel)
	lvl := int(math.Round(math.Log2(diag / target)))
	if lvl < 0 {
		lvl = 0
	}
	if lvl > cellid.MaxLevel {
		lvl = cellid.MaxLevel
	}
	return lvl
}

// metersPerDegree returns metre-per-degree scales for longitude and
// latitude at the bound's mid latitude.
func metersPerDegree(bound geom.Rect) (mx, my float64) {
	midLat := bound.Center().Y * math.Pi / 180
	return 111_320 * math.Cos(midLat), 110_574
}

// Table is a rendered experiment result.
type Table struct {
	ID     string // experiment id, e.g. "fig12"
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Runner is one registered experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(cfg Config) []*Table
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{ID: "fig10", Desc: "Runtime with increasing number of aggregates", Run: Fig10},
		{ID: "fig11a", Desc: "Build time of GeoBlocks and baselines", Run: Fig11a},
		{ID: "fig11b", Desc: "Size overhead of GeoBlocks and baselines", Run: Fig11b},
		{ID: "fig11c", Desc: "Level influence on GeoBlocks overhead", Run: Fig11c},
		{ID: "fig12", Desc: "Query runtime for varying selectivity", Run: Fig12},
		{ID: "fig13", Desc: "Scaling with increasing input sizes", Run: Fig13},
		{ID: "fig14", Desc: "Runtime and relative error for varying datasets", Run: Fig14},
		{ID: "fig15", Desc: "US states vs generated rectangles (tweets)", Run: Fig15},
		{ID: "fig16", Desc: "Relative error and runtime at varying levels", Run: Fig16},
		{ID: "tab2", Desc: "Index build times at varying levels", Run: Table2},
		{ID: "fig17", Desc: "Query runtime with increasing workload skew", Run: Fig17},
		{ID: "fig18", Desc: "Impact of aggregate threshold on runtime and hit rate", Run: Fig18},
		{ID: "fig19", Desc: "Payoff point of incremental builds", Run: Fig19},
	}
}

// Find returns the runner with the given id.
func Find(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// us formats a duration in microseconds.
func us(d time.Duration) string {
	return fmt.Sprintf("%.0f", float64(d.Nanoseconds())/1000)
}

// pct formats a ratio as a percentage.
func pct(f float64) string {
	return fmt.Sprintf("%.1f%%", 100*f)
}

// speedup formats a ratio like the paper's "64x" annotations.
func speedup(slow, fast time.Duration) string {
	if fast <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0fx", float64(slow)/float64(fast))
}

// Command geoblocks builds and queries GeoBlocks from the command line.
//
// Subcommands:
//
//	build  -dataset taxi|tweets|osm -rows N -level L [-filter "col op val"] -out FILE
//	       generate a synthetic dataset, run extract+build, persist the block
//	       as a format-v3 file (docs/FORMAT.md §8)
//	info   -block FILE
//	       print a block's header and configuration
//	query  -block FILE -poly "x,y x,y x,y ..." [-agg count,sum:col,...]
//	       [-max-error E] [-repeat N]
//	       run a polygon aggregate query against a persisted block;
//	       -max-error > 0 builds a coarsening pyramid and lets the query
//	       planner answer at the coarsest level whose spatial error bound
//	       (cell diagonal, in domain units) stays within E — the output
//	       reports the level actually used and its guaranteed bound
//	join   -block FILE (-polys "..." | -window "minx,miny,maxx,maxy" -nx N -ny N)
//	       [-agg count,sum:col,...] [-max-error E] [-compare]
//	       answer one aggregate query per region with one shared plan
//
// info, query and join also read the legacy GBF1 frame (docs/FORMAT.md
// §3) of older block files and format-1 snapshot shards.
//
// The polygon is given as a space-separated list of comma-separated
// lon,lat vertex pairs. Aggregates default to count.
package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"flag"

	"geoblocks"
	"geoblocks/internal/column"
	"geoblocks/internal/core"
	"geoblocks/internal/dataset"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "join":
		err = runJoin(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "geoblocks: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "geoblocks: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  geoblocks build -dataset taxi|tweets|osm -rows N -level L [-filter "col op val"] -out FILE
  geoblocks info  -block FILE
  geoblocks query -block FILE -poly "x,y x,y x,y ..." [-agg count,sum:col,...] [-max-error E] [-repeat N]
  geoblocks join  -block FILE (-polys "x,y x,y x,y; x,y x,y x,y; ..." | -window "minx,miny,maxx,maxy" -nx N -ny N)
                  [-agg count,sum:col,...] [-max-error E] [-compare]`)
}

func specFor(name string) (dataset.Spec, error) {
	switch name {
	case "taxi":
		return dataset.NYCTaxi(), nil
	case "tweets":
		return dataset.USTweets(), nil
	case "osm":
		return dataset.OSMAmericas(), nil
	}
	return dataset.Spec{}, fmt.Errorf("unknown dataset %q (want taxi, tweets or osm)", name)
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	dsName := fs.String("dataset", "taxi", "dataset: taxi, tweets or osm")
	rows := fs.Int("rows", 100_000, "rows to generate")
	level := fs.Int("level", 10, "block level (domain levels, 0-30)")
	filterStr := fs.String("filter", "", "filter, e.g. \"fare_amount > 20\"")
	seed := fs.Int64("seed", 1, "generation seed")
	out := fs.String("out", "block.gb", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := specFor(*dsName)
	if err != nil {
		return err
	}
	fmt.Printf("generating %d rows of %s...\n", *rows, spec.Name)
	raw := dataset.Generate(spec, *rows, *seed)

	var filter column.Filter
	if *filterStr != "" {
		filter, err = parseFilter(spec.Schema, *filterStr)
		if err != nil {
			return err
		}
	}

	base, stats, err := raw.Extract(*level)
	if err != nil {
		return err
	}
	fmt.Printf("extract: kept %d/%d rows, clean %v, sort %v\n",
		stats.RowsKept, stats.RowsIn, stats.CleanTime.Round(1e6), stats.SortTime.Round(1e6))

	blk, err := core.Build(base, core.BuildOptions{Level: *level, Filter: filter})
	if err != nil {
		return err
	}
	fmt.Printf("built %v\n", blk)

	if err := os.WriteFile(*out, blk.EncodeV3(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	path := fs.String("block", "block.gb", "block file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	blk, err := openBlock(*path)
	if err != nil {
		return err
	}
	inner := blk.Inner()
	h := inner.Header()
	fmt.Printf("file:       %s\n", *path)
	fmt.Printf("domain:     %v\n", inner.Domain().Bound())
	fmt.Printf("level:      %d (error bound %.6f domain units)\n", blk.Level(), blk.ErrorBound())
	fmt.Printf("schema:     %s\n", strings.Join(inner.Schema().Names, ", "))
	fmt.Printf("filter:     %s\n", inner.Filter().Describe(inner.Schema()))
	fmt.Printf("cells:      %d\n", blk.NumCells())
	fmt.Printf("tuples:     %d\n", blk.NumTuples())
	fmt.Printf("size:       %d bytes\n", blk.SizeBytes())
	fmt.Printf("cell range: %v .. %v\n", h.MinCell, h.MaxCell)
	for c, agg := range h.Cols {
		fmt.Printf("col %-16s min=%.3f max=%.3f sum=%.3f\n",
			inner.Schema().Names[c], agg.Min, agg.Max, agg.Sum)
	}
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	path := fs.String("block", "block.gb", "block file")
	polyStr := fs.String("poly", "", "polygon vertices: \"x,y x,y x,y ...\"")
	aggStr := fs.String("agg", "count", "aggregates: count,sum:col,min:col,max:col,avg:col")
	maxError := fs.Float64("max-error", 0, "acceptable spatial error bound in domain units (0 = exact)")
	repeat := fs.Int("repeat", 1, "repeat the query N times (timing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *polyStr == "" {
		return fmt.Errorf("missing -poly")
	}
	blk, err := openBlock(*path)
	if err != nil {
		return err
	}
	poly, err := parsePolygon(*polyStr)
	if err != nil {
		return err
	}
	reqs, names, err := parseAggs(*aggStr)
	if err != nil {
		return err
	}
	opts := geoblocks.QueryOptions{MaxError: *maxError}
	if err := opts.Validate(); err != nil {
		return err
	}
	if *maxError > 0 {
		// A persisted block carries only its base level; derive exactly
		// the coarser levels the requested bound can make use of — the
		// planner never selects below LevelForMaxDiagonal(maxError).
		want := blk.Inner().Domain().LevelForMaxDiagonal(*maxError)
		if n := blk.Level() - want; n > 0 {
			if err := blk.BuildPyramid(n); err != nil {
				return err
			}
		}
	}

	var res geoblocks.Result
	for i := 0; i < max(*repeat, 1); i++ {
		res, err = blk.QueryOpts(poly, opts, reqs...)
		if err != nil {
			return err
		}
	}
	fmt.Printf("answered at level %d (guaranteed error bound %g domain units)\n", res.Level, res.ErrorBound)
	fmt.Printf("covering cells: %d combined aggregates, %d tuples\n", res.CellsVisited, res.Count)
	for i, name := range names {
		fmt.Printf("%-12s %g\n", name, res.Values[i])
	}
	return nil
}

// runJoin answers one aggregate query per region with one shared plan
// over the block — the CLI face of the join operator. Regions come
// either as semicolon-separated polygon rings (-polys) or as an nx-by-ny
// tile grid over a window rect. -compare also runs the same regions as
// sequential queries and reports the speedup.
func runJoin(args []string) error {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	path := fs.String("block", "block.gb", "block file")
	polysStr := fs.String("polys", "", "polygons, ';'-separated: \"x,y x,y x,y; x,y x,y x,y\"")
	windowStr := fs.String("window", "", "window rect \"minx,miny,maxx,maxy\" tiled into -nx by -ny regions")
	nx := fs.Int("nx", 8, "window tiles along x")
	ny := fs.Int("ny", 8, "window tiles along y")
	aggStr := fs.String("agg", "count", "aggregates: count,sum:col,min:col,max:col,avg:col")
	maxError := fs.Float64("max-error", 0, "acceptable spatial error bound in domain units (0 = exact)")
	compare := fs.Bool("compare", false, "also run sequential per-region queries and report the speedup")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*polysStr == "") == (*windowStr == "") {
		return fmt.Errorf("exactly one of -polys or -window must be set")
	}
	blk, err := openBlock(*path)
	if err != nil {
		return err
	}
	reqs, names, err := parseAggs(*aggStr)
	if err != nil {
		return err
	}
	opts := geoblocks.QueryOptions{MaxError: *maxError}
	if err := opts.Validate(); err != nil {
		return err
	}
	if *maxError > 0 {
		want := blk.Inner().Domain().LevelForMaxDiagonal(*maxError)
		if n := blk.Level() - want; n > 0 {
			if err := blk.BuildPyramid(n); err != nil {
				return err
			}
		}
	}

	var polys []*geoblocks.Polygon
	if *polysStr != "" {
		for _, seg := range strings.Split(*polysStr, ";") {
			seg = strings.TrimSpace(seg)
			if seg == "" {
				continue
			}
			poly, err := parsePolygon(seg)
			if err != nil {
				return err
			}
			polys = append(polys, poly)
		}
		if len(polys) == 0 {
			return fmt.Errorf("-polys named no polygons")
		}
	} else {
		polys, err = windowPolys(*windowStr, *nx, *ny)
		if err != nil {
			return err
		}
	}

	start := time.Now()
	results, info, err := blk.JoinOpts(polys, opts, reqs...)
	if err != nil {
		return err
	}
	joinTime := time.Since(start)

	pairs := info.InteriorPairs + info.BoundaryPairs
	interior := 0.0
	if pairs > 0 {
		interior = float64(info.InteriorPairs) / float64(pairs)
	}
	fmt.Printf("joined %d regions at level %d (%.0f%% interior pairs) in %v\n",
		len(polys), info.Level, 100*interior, joinTime.Round(time.Microsecond))
	for i, res := range results {
		fmt.Printf("region %-4d count=%-8d", i, res.Count)
		for k, name := range names {
			if name == "count" {
				continue
			}
			fmt.Printf(" %s=%g", name, res.Values[k])
		}
		fmt.Println()
	}

	if *compare {
		start = time.Now()
		seqOpts := geoblocks.QueryOptions{MaxError: *maxError, DisableCache: true}
		for i, poly := range polys {
			seq, err := blk.QueryOpts(poly, seqOpts, reqs...)
			if err != nil {
				return err
			}
			if seq.Count != results[i].Count {
				return fmt.Errorf("region %d: join count %d != sequential count %d", i, results[i].Count, seq.Count)
			}
		}
		seqTime := time.Since(start)
		fmt.Printf("sequential: %v for %d queries — join speedup %.2fx\n",
			seqTime.Round(time.Microsecond), len(polys), float64(seqTime)/float64(joinTime))
	}
	return nil
}

// windowPolys tiles "minx,miny,maxx,maxy" into an nx-by-ny grid of
// rectangular regions, row-major from the minimum corner.
func windowPolys(s string, nx, ny int) ([]*geoblocks.Polygon, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return nil, fmt.Errorf("window must be \"minx,miny,maxx,maxy\", got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad window coordinate %q: %v", p, err)
		}
		v[i] = f
	}
	if v[0] >= v[2] || v[1] >= v[3] {
		return nil, fmt.Errorf("window min must be below max, got %q", s)
	}
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("window grid must be at least 1x1, got %dx%d", nx, ny)
	}
	dx := (v[2] - v[0]) / float64(nx)
	dy := (v[3] - v[1]) / float64(ny)
	polys := make([]*geoblocks.Polygon, 0, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			x0, y0 := v[0]+float64(ix)*dx, v[1]+float64(iy)*dy
			x1, y1 := v[0]+float64(ix+1)*dx, v[1]+float64(iy+1)*dy
			poly, err := geoblocks.NewPolygon([]geoblocks.Point{
				geoblocks.Pt(x0, y0), geoblocks.Pt(x1, y0), geoblocks.Pt(x1, y1), geoblocks.Pt(x0, y1),
			})
			if err != nil {
				return nil, err
			}
			polys = append(polys, poly)
		}
	}
	return polys, nil
}

// openBlock reads a block file by its magic: a legacy GBF1 frame through
// ReadGeoBlockFramed, anything else as a v3 file. Both formats carry
// CRC32C checksums, so a flipped byte fails with ErrCorruptBlock.
func openBlock(path string) (*geoblocks.GeoBlock, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, []byte("GBF1")) {
		blk, _, err := geoblocks.ReadGeoBlockFramed(bytes.NewReader(data))
		return blk, err
	}
	return geoblocks.MapOwnedGeoBlock(data)
}

func parsePolygon(s string) (*geoblocks.Polygon, error) {
	fields := strings.Fields(s)
	if len(fields) < 3 {
		return nil, fmt.Errorf("polygon needs at least 3 vertices, got %d", len(fields))
	}
	ring := make([]geoblocks.Point, len(fields))
	for i, fstr := range fields {
		parts := strings.Split(fstr, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad vertex %q (want x,y)", fstr)
		}
		x, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("bad x in %q: %v", fstr, err)
		}
		y, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad y in %q: %v", fstr, err)
		}
		ring[i] = geoblocks.Pt(x, y)
	}
	return geoblocks.NewPolygon(ring)
}

func parseAggs(s string) ([]geoblocks.AggRequest, []string, error) {
	var reqs []geoblocks.AggRequest
	var names []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fn, col, _ := strings.Cut(part, ":")
		switch strings.ToLower(fn) {
		case "count":
			reqs = append(reqs, geoblocks.Count())
		case "sum":
			reqs = append(reqs, geoblocks.Sum(col))
		case "min":
			reqs = append(reqs, geoblocks.Min(col))
		case "max":
			reqs = append(reqs, geoblocks.Max(col))
		case "avg":
			reqs = append(reqs, geoblocks.Avg(col))
		default:
			return nil, nil, fmt.Errorf("unknown aggregate %q", fn)
		}
		names = append(names, part)
	}
	if len(reqs) == 0 {
		return nil, nil, fmt.Errorf("no aggregates requested")
	}
	return reqs, names, nil
}

// parseFilter parses "col op value", e.g. "fare_amount > 20".
func parseFilter(schema column.Schema, s string) (column.Filter, error) {
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return nil, fmt.Errorf("filter must be \"col op value\", got %q", s)
	}
	idx := schema.ColIndex(fields[0])
	if idx < 0 {
		return nil, fmt.Errorf("unknown column %q (schema: %s)", fields[0], strings.Join(schema.Names, ", "))
	}
	var op column.Op
	switch fields[1] {
	case "==", "=":
		op = column.OpEq
	case "!=":
		op = column.OpNe
	case "<":
		op = column.OpLt
	case "<=":
		op = column.OpLe
	case ">":
		op = column.OpGt
	case ">=":
		op = column.OpGe
	default:
		return nil, fmt.Errorf("unknown operator %q", fields[1])
	}
	val, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return nil, fmt.Errorf("bad value %q: %v", fields[2], err)
	}
	return column.Filter{{Col: idx, Op: op, Value: val}}, nil
}

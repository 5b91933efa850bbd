// Command geobench regenerates the paper's evaluation tables and figures
// (Figs. 10-19, Table 2).
//
// Usage:
//
//	geobench [-quick] [-taxi-rows N] [-tweet-rows N] [-osm-rows N]
//	         [-seed N] [-o FILE] [experiment ...]
//
// With no experiment arguments every experiment runs in paper order. Each
// experiment prints an aligned text table with the same rows/series the
// paper reports; -list names the paper figure each id stands for.
//
// geobench measures the paper's data structure in process. The serving
// tier (geoblocksd) is measured by the benchmark under bench/: see
// bench/README.md and the metric names in BENCHMARK.json.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"geoblocks/internal/experiments"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "run at reduced dataset sizes")
		taxiRows  = flag.Int("taxi-rows", 0, "override taxi dataset rows")
		tweetRows = flag.Int("tweet-rows", 0, "override tweets dataset rows")
		osmRows   = flag.Int("osm-rows", 0, "override OSM dataset rows")
		seed      = flag.Int64("seed", 1, "generation seed")
		out       = flag.String("o", "", "also write results to this file")
		list      = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: geobench [flags] [experiment ...]\n\nexperiments:\n")
		for _, r := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", r.ID, r.Desc)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Desc)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *taxiRows > 0 {
		cfg.TaxiRows = *taxiRows
	}
	if *tweetRows > 0 {
		cfg.TweetRows = *tweetRows
	}
	if *osmRows > 0 {
		cfg.OSMRows = *osmRows
	}
	cfg.Seed = *seed

	var runners []experiments.Runner
	if flag.NArg() == 0 {
		runners = experiments.All()
	} else {
		for _, id := range flag.Args() {
			r, ok := experiments.Find(strings.ToLower(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "geobench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "geobench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(w, "geobench: taxi=%d tweets=%d osm=%d seed=%d\n\n",
		cfg.TaxiRows, cfg.TweetRows, cfg.OSMRows, cfg.Seed)
	total := time.Now()
	for _, r := range runners {
		start := time.Now()
		tables := r.Run(cfg)
		for _, t := range tables {
			t.Render(w)
		}
		fmt.Fprintf(w, "[%s finished in %v]\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(w, "geobench: all done in %v\n", time.Since(total).Round(time.Millisecond))
}

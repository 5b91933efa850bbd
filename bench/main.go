// Command bench is the repository's benchmark: it builds nothing itself
// (run.sh builds it and cmd/geoblocksd side by side), starts a fresh
// daemon per workload, drives it over HTTP from this one process with at
// most two client connections, checks the answers, and prints every
// metric by name with its unit. README.md is the glossary; BENCHMARK.json
// at the repository root is the contract a driver runs it under.
//
// Usage (through run.sh, from the repository root):
//
//	bash bench/run.sh                          every workload, untraced then traced
//	bash bench/run.sh -workload zipf_hot       one workload
//	bash bench/run.sh -seed 1,2,3              several seeds, one after another
//	bash bench/run.sh -workload zipf_hot -seed 7 -seconds 8 -trace 0
//	                                           one run; the last line is the
//	                                           driver's JSON object
//	bash bench/run.sh -compare a.json b.json   two results.json files, row by row
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"geoblocks/internal/httpapi"
)

// taxiBound is the bound of the synthetic taxi dataset every workload serves.
func taxiBound() box {
	spec, _ := httpapi.SpecByName("taxi")
	b := spec.Bound
	return box{b.Min.X, b.Min.Y, b.Max.X, b.Max.Y}
}

// environment records where the numbers were taken.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	commit := "unknown" // a driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit}
}

// report is the results.json a suite run writes and -compare reads.
type report struct {
	Environment environment `json:"environment"`
	Results     []*result   `json:"results"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all six)")
		seeds        = flag.String("seed", "1", "input seed, or a comma-separated list of seeds to run in turn")
		seconds      = flag.Float64("seconds", defaultSeconds, "length of the timed window; warm-up is a quarter of it")
		trace        = flag.String("trace", "", "0: untraced pass only, 1: traced pass only (default: both)")
		out          = flag.String("out", ".bench_out", "directory for results.json, trace-<workload>.json and daemon data")
		quick        = flag.Bool("quick", false, "smoke scale: 30000 rows, 2 s windows")
		compare      = flag.Bool("compare", false, "compare two results.json files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two results.json files"))
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	rows, replayDiv := defaultRows, 1
	if *quick {
		rows, *seconds, replayDiv = quickRows, quickSeconds, quickReplayDiv
	}
	selected := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []*workload{w}
	}
	var passes []bool
	switch *trace {
	case "":
		passes = []bool{false, true}
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	default:
		fatal(fmt.Errorf("-trace takes 0 or 1, got %q", *trace))
	}
	// run.sh builds geoblocksd next to this binary.
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	daemonBin := filepath.Join(filepath.Dir(self), "geoblocksd")
	if _, err := os.Stat(daemonBin); err != nil {
		fatal(fmt.Errorf("%w: run the benchmark through bench/run.sh, which builds geoblocksd", err))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	rep := report{Environment: currentEnvironment()}
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		rep.Environment.NProc, rep.Environment.GOMAXPROCS, rep.Environment.GoVersion, rep.Environment.Commit)
	for _, s := range strings.Split(*seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -seed %q: %w", s, err))
		}
		cfg := config{seed: seed, rows: rows, seconds: *seconds, replayDiv: replayDiv, outDir: *out, daemonBin: daemonBin}
		for _, w := range selected {
			for _, traced := range passes {
				res, err := runWorkload(cfg, w, traced)
				if err != nil {
					fatal(err)
				}
				rep.Results = append(rep.Results, res)
				printResult(res)
			}
		}
	}
	if err := writeJSON(filepath.Join(*out, "results.json"), rep); err != nil {
		fatal(err)
	}
	if len(rep.Results) == 1 {
		// One workload, one pass: the driver's protocol. Its last line of
		// standard output is the run as one JSON object.
		fmt.Println(driverLine(rep.Results[0]))
	}
	for _, res := range rep.Results {
		if !res.Correct {
			fatal(fmt.Errorf("%s: %d of %d operations failed: %s", res.Workload, res.Failed, res.Attempted, strings.Join(res.Problems, "; ")))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// passMetrics names the metrics a pass reports to the driver: the
// bounded end-to-end set untraced, everything else traced.
func passMetrics(traced bool) []string {
	if traced {
		return perLayer()
	}
	return endToEnd
}

func printResult(res *result) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %gs): %d attempted, %d failed\n", res.Workload, pass, res.Seed, res.Seconds, res.Attempted, res.Failed)
	if res.Suspect != "" {
		fmt.Printf("   suspect: %s\n", res.Suspect)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("   %-28s %14.6g %s\n", name, res.Metrics[name], units[name])
	}
}

// driverLine renders one run as the JSON object the driver reads. Every
// metric of the pass is present: a layer the workload never entered
// reports 0.
func driverLine(res *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, name := range passMetrics(res.Traced) {
		line.Metrics[name] = value{res.Metrics[name], units[name]}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err) // a NaN or Inf metric: a bug in the bench
	}
	return string(data)
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs: which way
// each bounded metric is better and by what share of the first file's
// median it may worsen.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the quartiles of values as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), which is what the driver uses. It needs two values or more.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	cut := func(i int) float64 {
		m := len(x) + 1
		j := min(max(i*m/4, 1), len(x)-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summary is one metric on one workload over a file's runs.
type summary struct {
	median float64
	spread float64 // (q3 - q1) / median; 0 when a single run gives no spread
	runs   int
}

func summarize(values []float64) summary {
	if len(values) == 1 {
		return summary{median: values[0], runs: 1}
	}
	q1, q2, q3 := quartiles(values)
	return summary{median: q2, spread: (q3 - q1) / q2, runs: len(values)}
}

// loadRuns groups a results.json file's untraced runs: workload, then
// metric, then one value per run.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, res := range rep.Results {
		if res.Traced {
			continue
		}
		if out[res.Workload] == nil {
			out[res.Workload] = map[string][]float64{}
		}
		for name, v := range res.Metrics {
			out[res.Workload][name] = append(out[res.Workload][name], v)
		}
	}
	return out, nil
}

// verdict classifies the change of one bounded metric from a to b.
func verdict(a, b summary, lowerIsBetter bool, bound float64) string {
	if max(a.spread, b.spread) > bound {
		// The runs of one side disagree by more than the bound: a
		// difference inside it cannot be told from noise.
		return "unresolved"
	}
	worse := (b.median - a.median) / a.median
	if !lowerIsBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "regressed"
	case worse < -bound:
		return "improved"
	}
	return "unchanged"
}

// compareFiles prints one row per bounded metric and workload present in
// both files: the two medians, their spreads, the bound and the verdict.
func compareFiles(w io.Writer, benchmarkPath, pathA, pathB string) error {
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-8s %12s %7s %12s %7s %6s  %s\n", "workload", "metric", "a median", "spread", "b median", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[wl.name][m.Name], b[wl.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			fmt.Fprintf(w, "%-18s %-8s %12.5g %6.1f%% %12.5g %6.1f%% %5.0f%%  %s\n",
				wl.name, m.Name, sa.median, 100*sa.spread, sb.median, 100*sb.spread, 100*m.Bound,
				verdict(sa, sb, m.Better == "lower", m.Bound))
		}
	}
	return nil
}

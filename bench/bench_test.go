package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 40, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestHistPercentilesAndMerge(t *testing.T) {
	var a, b hist
	for us := 1; us <= 1000; us++ {
		h := &a
		if us%2 == 0 {
			h = &b
		}
		h.record(time.Duration(us) * time.Microsecond)
	}
	a.merge(&b)
	if a.n != 1000 {
		t.Fatalf("merged count %d, want 1000", a.n)
	}
	for _, q := range []float64{50, 90, 99, 100} {
		want := q * 10 * 1e3 // the q-th percentile of 1..1000 us, in ns
		if got := a.percentile(q); math.Abs(got-want) > 0.01*want {
			t.Errorf("p%v = %v ns, want %v within 1%%", q, got, want)
		}
	}
	var empty hist
	if got := empty.percentile(99); got != 0 {
		t.Errorf("percentile of an empty histogram = %v, want 0", got)
	}
}

// atLeast counts the samples of h that are d or longer, to bucket precision.
func atLeast(h *hist, d time.Duration) (n uint64) {
	for i := histIndex(uint64(d)); i < histBuckets; i++ {
		n += h.count[i]
	}
	return n
}

// An open loop times each request from when it was due, so one stalled
// request delays, and is seen to delay, every request scheduled behind
// it. A closed loop would have recorded a single slow sample.
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	const stall = 80 * time.Millisecond
	var next atomic.Uint64
	res := runOpen(1, 500, 400*time.Millisecond, &next, func(_ int, i uint64) error {
		if i == 10 {
			time.Sleep(stall)
		}
		return nil
	})
	if res.attempted != 200 || res.lat.n != 200 || res.failed != 0 {
		t.Fatalf("attempted %d, recorded %d, failed %d; want 200, 200, 0", res.attempted, res.lat.n, res.failed)
	}
	// 80 ms at one request per 2 ms queues 40 requests; half of them wait
	// 40 ms or more.
	if n := atLeast(&res.lat, stall/2); n < 15 {
		t.Errorf("%d requests show a latency of %v or more, want the ~20 queued behind the stall", n, stall/2)
	}
	if n := atLeast(&res.lag, stall/2); n < 14 {
		t.Errorf("%d sends are reported %v or more late, want the ~19 behind the stall", n, stall/2)
	}
	// The stall sits in the first quarter of the schedule and has drained
	// by the last: the backlog did not grow.
	if res.lagLate > res.lagEarly+backlogSlackMS {
		t.Errorf("lateness grew from %.2f to %.2f ms although the stall had drained", res.lagEarly, res.lagLate)
	}
	if res.elapsed < 390*time.Millisecond {
		t.Errorf("the phase took %v, want the full 400 ms schedule", res.elapsed)
	}
}

func TestClosedLoopCountsEveryRequest(t *testing.T) {
	var next atomic.Uint64
	boom := errors.New("boom")
	res := runClosed(2, 50*time.Millisecond, &next, func(_ int, i uint64) error {
		time.Sleep(time.Millisecond)
		if i%5 == 0 {
			return boom
		}
		return nil
	})
	if res.attempted != next.Load() || res.lat.n != res.attempted {
		t.Errorf("attempted %d, recorded %d, handed out %d: want all equal", res.attempted, res.lat.n, next.Load())
	}
	if want := (res.attempted + 4) / 5; res.failed != want {
		t.Errorf("failed %d of %d, want %d", res.failed, res.attempted, want)
	}
	if res.qps() <= 0 {
		t.Errorf("qps %v, want positive", res.qps())
	}
}

// The same seed must give the same inputs, byte for byte, whichever
// goroutine asks and in whatever order; another seed must not.
func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	a, b, other := newGen(7, taxiBound()), newGen(7, taxiBound()), newGen(8, taxiBound())
	streams := map[string]func(g *gen, i uint64) request{
		"sweep":  (*gen).sweep,
		"ingest": (*gen).ingest,
	}
	for _, w := range workloads {
		streams[w.name] = w.stream
	}
	for name, stream := range streams {
		differs := false
		for _, i := range []uint64{63, 0, 17, 5, 40} {
			ra, rb, ro := stream(a, i), stream(b, i), stream(other, i)
			if ra.path != rb.path || !bytes.Equal(ra.body, rb.body) {
				t.Errorf("%s: request %d differs between two generators of one seed", name, i)
			}
			differs = differs || !bytes.Equal(ra.body, ro.body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same requests", name)
		}
	}
	for _, w := range workloads {
		pa, pb := w.probes(a), w.probes(b)
		if len(pa) != probeCount {
			t.Errorf("%s: %d probes, want %d", w.name, len(pa), probeCount)
		}
		if !bytes.Equal(appendRing(nil, pa[len(pa)-1]), appendRing(nil, pb[len(pb)-1])) {
			t.Errorf("%s: probe sets of one seed differ", w.name)
		}
	}
}

func TestGeneratedPolygonsMatchTheirDefinition(t *testing.T) {
	g := newGen(3, taxiBound())
	for i := uint64(0); i < 500; i++ {
		rg := g.explore(i).rings[0]
		if len(rg) < 12 || len(rg) > 24 {
			t.Fatalf("polygon %d has %d vertices, want 12..24", i, len(rg))
		}
		minX, maxX := math.Inf(1), math.Inf(-1)
		for _, v := range rg {
			minX, maxX = min(minX, v[0]), max(maxX, v[0])
			if v[0] < g.bound[0] || v[0] > g.bound[2] || v[1] < g.bound[1] || v[1] > g.bound[3] {
				t.Fatalf("polygon %d leaves the bound at %v", i, v)
			}
		}
		if w := maxX - minX; w > 0.02*g.side || w < 0.25*0.005*g.side {
			t.Fatalf("polygon %d is %g wide, want between a fraction of 0.5%% and 2%% of the side %g", i, w, g.side)
		}
		if _, err := toPolygon(rg); err != nil {
			t.Fatalf("polygon %d: %v", i, err)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	tight := func(m float64) summary { return summary{median: m, spread: 0.02, runs: 10} }
	for _, c := range []struct {
		a, b  summary
		lower bool
		want  string
	}{
		{tight(100), tight(104), true, "unchanged"},
		{tight(100), tight(115), true, "regressed"},
		{tight(100), tight(85), true, "improved"},
		{tight(100), tight(115), false, "improved"},
		{tight(100), tight(85), false, "regressed"},
		{tight(100), summary{median: 104, spread: 0.3, runs: 10}, true, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("verdict(%v -> %v, lower better %v) = %s, want %s", c.a.median, c.b.median, c.lower, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is the contract the driver reads; the lists in this
// package are what the bench emits. They must say the same.
func TestBenchmarkJSONMatchesTheBench(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, but the bench's default window is %v", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the bench", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the bench has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.Name)
		}
	}
	var e2e []string
	setup := false
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the bench", m.Name, m.Unit, units[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end is %v, the bench emits %v", e2e, endToEnd)
	}
	var layers []string
	for _, m := range bf.PerLayer {
		layers = append(layers, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the bench", m.Name, m.Unit, units[m.Name])
		}
		if !nameRE.MatchString(m.Name) {
			t.Errorf("bad metric name %q", m.Name)
		}
	}
	sort.Strings(layers)
	if !slices.Equal(layers, perLayer()) {
		t.Errorf("per_layer is %v, the bench emits %v", layers, perLayer())
	}
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// The smoke pass: every workload once at -quick scale against a real
// daemon, traced, so that every metric is produced; then the schema of
// what a driver would read.
func TestQuickPassEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and runs for about half a minute")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(dir, "geoblocksd"), "geoblocks/cmd/geoblocksd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building geoblocksd: %v\n%s", err, out)
	}
	cfg := config{seed: 1, rows: quickRows, seconds: quickSeconds, replayDiv: quickReplayDiv, outDir: dir, daemonBin: filepath.Join(dir, "geoblocksd")}
	for _, w := range workloads {
		res, err := runWorkload(cfg, w, true)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", w.name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		for name, v := range res.Metrics {
			if !nameRE.MatchString(name) || !unitRE.MatchString(units[name]) {
				t.Errorf("%s: metric %q has a bad name or unit %q", w.name, name, units[name])
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name, name, v)
			}
		}
		for _, name := range endToEnd {
			if res.Metrics[name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want positive", w.name, name, res.Metrics[name])
			}
		}
		for _, traced := range []bool{false, true} {
			res.Traced = traced
			var line struct {
				Correct   *bool
				Attempted *uint64
				Failed    *uint64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(bytes.NewReader([]byte(driverLine(res))))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: driver line: %v", w.name, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(passMetrics(traced)) {
				t.Errorf("%s: driver line lacks a key or has %d metrics, want %d", w.name, len(line.Metrics), len(passMetrics(traced)))
			}
			for _, name := range passMetrics(traced) {
				if m, ok := line.Metrics[name]; !ok || m.Value == nil || m.Unit != units[name] {
					t.Errorf("%s: driver line lacks %s", w.name, name)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"geoblocks/internal/snapshot"
	"geoblocks/internal/store"
)

// The common set-up of every workload: the synthetic taxi dataset at
// block level 14 with a four-level pyramid, daemon defaults otherwise.
const (
	blockLevel    = 14
	pyramidLevels = 4
	// The daemon's cache defaults, repeated here because the in-process
	// dataset of the answer checks and the traced pass must be built with
	// the same store.Options the daemon's flags default to.
	cacheThreshold   = 0.10
	cacheAutoRefresh = 2000
	resultCacheBytes = 64 << 20
	resultCacheHits  = 2

	defaultRows    = 300_000
	defaultSeconds = 8
	// The -quick smoke scale: a tenth of the rows and of the traced
	// pass's requests, two-second windows.
	quickRows      = 30_000
	quickSeconds   = 2
	quickReplayDiv = 10
	// setupReps is how often a run starts the daemon to report the median
	// set-up time; the last start serves the run.
	setupReps = 3
	// sloP99MS is open_mix's latency limit.
	sloP99MS = 20.0
	// backlogSlackMS is how much later than its first quarter an open
	// loop's last quarter may send before the backlog counts as growing.
	backlogSlackMS = 5.0
	maxClients     = 2 // the box has two cores: never more requests in flight
	maxProblems    = 5 // failures a report quotes
)

// openMixRates is open_mix's ladder in requests per second: about 25,
// 50, 75 and 100 % of the mix's closed-loop throughput with two clients
// on the commit that added the benchmark (CALIBRATION.md). The rates are
// absolute and frozen, so a faster server later meets the same offered
// load with lower latency instead of being handed more.
var openMixRates = [4]float64{750, 1500, 2250, 3000}

type config struct {
	seed      int64
	rows      int
	seconds   float64
	replayDiv int // divides the traced pass's request counts
	outDir    string
	daemonBin string
}

func (c config) timed() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }
func (c config) warm() time.Duration  { return c.timed() / 4 }

// workload is one named traffic shape. why is the line BENCHMARK.json and
// the README carry.
type workload struct {
	name string
	why  string
	// shardLevel is the daemon's -shard-level; maxError the max_error of
	// the workload's answer-check probes.
	shardLevel int
	maxError   float64
	// probes picks the 64 polygons answered before and after the run;
	// joinProbes sends them as one /v1/join instead of 64 queries.
	probes     func(g *gen) []ring
	joinProbes bool
	// mapped marks the workload whose daemon serves a snapshot through
	// mmap, ingests the one that writes: the traced pass follows suit.
	mapped  bool
	ingests bool
	// stream is the request sequence the traced pass replays: replayN
	// requests, after replayWarm untraced ones where the workload's steady
	// state has warm caches.
	stream     func(g *gen, i uint64) request
	replayN    int
	replayWarm int
	// drive starts the daemon(s), runs warm-up and timed traffic, and
	// leaves latency metrics and the timed window's stats in the run.
	drive func(r *run) error
	// guard reports why the run did not exercise what the workload is
	// for; numbers from such a run would be about something else.
	guard func(r *run) error
}

func hotProbes(g *gen) []ring { return g.pool[:probeCount] }

var workloads = []*workload{
	{
		name:       "explore_uniform",
		why:        "Every polygon new: result cache useless, each request pays cover, cached SELECT and merge.",
		shardLevel: 2,
		probes:     (*gen).probes,
		stream:     (*gen).explore,
		replayN:    2000,
		drive:      func(r *run) error { return r.driveClosed(maxClients, r.g.explore) },
		guard: func(r *run) error {
			if hr := r.hitRatio(); hr >= 0.05 {
				return fmt.Errorf("result-cache hit ratio %.3f, want < 0.05", hr)
			}
			return nil
		},
	},
	{
		name:       "zipf_hot",
		why:        "Zipf 1.3 over 256 cached polygons: requests are HTTP decode/encode plus a result-cache hit.",
		shardLevel: 2,
		probes:     hotProbes,
		stream:     (*gen).hot,
		replayN:    2000,
		replayWarm: 8000,
		drive:      func(r *run) error { return r.driveClosed(maxClients, r.g.hot) },
		guard: func(r *run) error {
			if hr := r.hitRatio(); hr <= 0.95 {
				return fmt.Errorf("result-cache hit ratio %.3f, want > 0.95", hr)
			}
			return nil
		},
	},
	{
		name:       "join_tiles",
		why:        "64-polygon joins, no cache: content dedup, shared-grid cover, multi-region SELECT, planner level.",
		shardLevel: 2,
		maxError:   joinMaxError,
		probes:     hotProbes,
		joinProbes: true,
		stream:     (*gen).join,
		replayN:    200,
		// One client: the join fans out across shards inside the daemon.
		drive: func(r *run) error { return r.driveClosed(1, r.g.join) },
		guard: func(r *run) error {
			if u, p := r.joinUnique.Load(), r.joinPolys.Load(); u >= p {
				return fmt.Errorf("joins carried %d unique of %d polygons, want fewer unique", u, p)
			}
			if f := r.joinInteriorFrac(); f <= 0 {
				return fmt.Errorf("shared-grid interior fraction %.3f, want > 0", f)
			}
			return nil
		},
	},
	{
		name:       "read_under_ingest",
		why:        "Hot reads beside 5000 rows/s of fsynced ingest and folds: invalidation, delta merge, compaction.",
		shardLevel: 2,
		probes:     hotProbes,
		stream:     (*gen).hot,
		replayN:    2000,
		replayWarm: 8000,
		ingests:    true,
		drive:      (*run).driveIngest,
		guard: func(r *run) error {
			want := uint64(max(2, int(r.cfg.seconds/3)))
			if n := r.after.Ingest.Compactions - r.before.Ingest.Compactions; n < want {
				return fmt.Errorf("%d compactions completed in the timed window, want >= %d", n, want)
			}
			if r.rejected503.Load() > 0 {
				return fmt.Errorf("%d ingest batches were refused with 503", r.rejected503.Load())
			}
			return nil
		},
	},
	{
		name:       "mapped_cold",
		why:        "64 mmap-served shards under half their memory: restart, first-touch faults, eviction churn.",
		shardLevel: 3,
		probes:     sweepRings,
		stream:     (*gen).churn,
		replayN:    500,
		mapped:     true,
		drive:      (*run).driveMapped,
		guard: func(r *run) error {
			if r.sweepFaults != uint64(r.after.NumShards) {
				return fmt.Errorf("the sweep faulted %d shards in, want %d (each once)", r.sweepFaults, r.after.NumShards)
			}
			if r.resAfter.Evictions <= r.resBefore.Evictions {
				return errors.New("no shard was evicted in the churn phase")
			}
			return nil
		},
	},
	{
		name:       "open_mix",
		why:        "Open loop, 80% hot / 18% new / 2% joins at four fixed rates: what independent users see.",
		shardLevel: 2,
		probes:     hotProbes,
		stream:     (*gen).mix,
		replayN:    2000,
		replayWarm: 2000,
		drive:      (*run).driveOpenMix,
		guard: func(r *run) error {
			top := openMixRates[len(openMixRates)-1]
			if r.topStepQPS < 0.8*top {
				return fmt.Errorf("top step completed %.0f requests/s of the %.0f offered, want within 20%%", r.topStepQPS, top)
			}
			return nil
		},
	},
}

func sweepRings(g *gen) []ring {
	out := make([]ring, sweepGrid*sweepGrid)
	for j := range out {
		out[j] = g.sweep(uint64(j)).rings[0]
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// run is the state of one workload run.
type run struct {
	cfg    config
	w      *workload
	g      *gen
	hc     *http.Client
	d      *daemon
	o      *oracle
	dir    string // scratch directory of this run (daemon data dir below it)
	m      map[string]float64
	setups []float64 // seconds, one per timed daemon start

	attempted, failed uint64
	mu                sync.Mutex // guards problems while load is running
	problems          []string   // first few failures, for the report

	// Stats of the live daemon at the start and end of the timed window.
	before, after       store.DatasetStats
	resBefore, resAfter store.ResidencyStats
	cpuBefore           time.Duration
	windowStart         time.Time

	joinPolys, joinUnique atomic.Uint64
	rejected503           atomic.Uint64
	deltaRowsMax          atomic.Int64
	sweepFaults           uint64
	topStepQPS            float64
	ingestBatches         uint64 // batches acknowledged so far
}

// daemonArgs are the flags every workload's daemon gets.
func (r *run) daemonArgs(extra ...string) []string {
	return append([]string{
		"-load", "taxi:" + strconv.Itoa(r.cfg.rows),
		"-seed", strconv.FormatInt(r.cfg.seed, 10),
		"-level", strconv.Itoa(blockLevel),
		"-shard-level", strconv.Itoa(r.w.shardLevel),
		"-pyramid-levels", strconv.Itoa(pyramidLevels),
	}, extra...)
}

// storeOptions mirrors daemonArgs for the in-process dataset.
func (r *run) storeOptions() store.Options {
	return store.Options{
		Level:              blockLevel,
		ShardLevel:         r.w.shardLevel,
		CacheThreshold:     cacheThreshold,
		CacheAutoRefresh:   cacheAutoRefresh,
		PyramidLevels:      pyramidLevels,
		ResultCacheBytes:   resultCacheBytes,
		ResultCacheMinHits: resultCacheHits,
	}
}

// startTimed starts the daemon setupReps times with the same arguments,
// recording each set-up time, and keeps the last one running.
func (r *run) startTimed(args []string) error {
	for i := 0; i < setupReps; i++ {
		if r.d != nil {
			r.d.stop()
			r.d = nil
		}
		d, took, err := startDaemon(r.hc, r.cfg.daemonBin, args...)
		if err != nil {
			return err
		}
		r.d = d
		r.setups = append(r.setups, took.Seconds())
	}
	return nil
}

// fail counts one failed operation and keeps the first few reasons.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// do adapts a request stream to the drivers: send request i on the
// client's own connection, accept only a 200 that carries an answer. The
// returned function closes the connections.
func (r *run) do(stream func(uint64) request) (doFunc, func()) {
	conns := make([]conn, maxClients)
	for c := range conns {
		conns[c].addr = strings.TrimPrefix(r.d.base, "http://")
	}
	closeAll := func() {
		for c := range conns {
			conns[c].close()
		}
	}
	return r.noteFailures(func(client int, i uint64) error {
		req := stream(i)
		status, body, err := conns[client].post(req.path, req.ctype, req.body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			if status == http.StatusServiceUnavailable && req.kind == kindIngest {
				r.rejected503.Add(1)
			}
			return fmt.Errorf("status %d", status)
		}
		switch req.kind {
		case kindQuery:
			if !bytes.Contains(body, []byte(`"count"`)) {
				return errors.New("response carries no result")
			}
		case kindJoin:
			var resp queryResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			if len(resp.Results) != len(req.rings) {
				return fmt.Errorf("join answered %d of %d polygons", len(resp.Results), len(req.rings))
			}
			r.joinPolys.Add(uint64(resp.Stats.Polygons))
			r.joinUnique.Add(uint64(resp.Stats.UniquePolygons))
		case kindIngest:
			var ack struct {
				DeltaRows int64 `json:"delta_rows"`
			}
			if err := json.Unmarshal(body, &ack); err != nil {
				return err
			}
			storeMax(&r.deltaRowsMax, ack.DeltaRows)
		}
		return nil
	}), closeAll
}

// noteFailures keeps the first few failures of the load for the report.
func (r *run) noteFailures(do doFunc) doFunc {
	return func(client int, i uint64) error {
		err := do(client, i)
		if err != nil {
			r.mu.Lock()
			if len(r.problems) < maxProblems {
				r.problems = append(r.problems, fmt.Sprintf("request %d: %v", i, err))
			}
			r.mu.Unlock()
		}
		return err
	}
}

// selfCPU returns the CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// openWindow records the daemon's counters and this process's CPU time
// at the start of the timed window.
func (r *run) openWindow() (err error) {
	r.before, r.resBefore, err = fetchStats(r.hc, r.d.base)
	r.cpuBefore, r.windowStart = selfCPU(), time.Now()
	return err
}

// closeWindow records the same at its end, with the daemon's peak RSS.
func (r *run) closeWindow() (err error) {
	wall := time.Since(r.windowStart)
	r.m["bench.client_cpu_frac"] = float64(selfCPU()-r.cpuBefore) / float64(wall)
	if r.after, r.resAfter, err = fetchStats(r.hc, r.d.base); err != nil {
		return err
	}
	r.m["rss_mb"], err = r.d.peakRSSMB()
	return err
}

// latencyMetrics reports a timed phase's throughput and percentiles,
// each as the median over equal parts of the phase (loopResult.steadyMS).
// bench.tail_pct is the highest percentile the whole phase supports:
// where it is below 99, p99_ms (or even p95_ms) reports that one instead.
func (r *run) latencyMetrics(res *loopResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	r.m["qps"] = res.steadyQPS()
	r.m["p50_ms"] = res.steadyMS(50)
	r.m["p95_ms"] = res.steadyMS(95)
	r.m["p99_ms"] = res.steadyMS(99)
	r.m["bench.samples"] = float64(res.lat.n)
	r.m["bench.tail_pct"] = tailPercentile(res.lat.n)
}

// lagMetrics reports how late an open loop sent. On the calibration box
// a sleeping goroutine wakes about 0.6 ms after its timer, so the median
// is not 0 even on an idle system; latency from scheduled send time
// includes it.
func (r *run) lagMetrics(res *loopResult) {
	r.m["bench.gen_lag_p50_ms"] = res.lag.ms(50)
	r.m["bench.gen_lag_p99_ms"] = res.lag.ms(min(99, tailPercentile(res.lag.n)))
}

// driveClosed is the closed-loop shape: start the daemon, check answers,
// warm up, time the window.
func (r *run) driveClosed(clients int, stream func(uint64) request) error {
	if err := r.startTimed(r.daemonArgs()); err != nil {
		return err
	}
	if err := r.checkProbes(); err != nil {
		return err
	}
	var next atomic.Uint64
	do, closeConns := r.do(stream)
	defer closeConns()
	runClosed(clients, r.cfg.warm(), &next, do)
	if err := r.openWindow(); err != nil {
		return err
	}
	res := runClosed(clients, r.cfg.timed(), &next, do)
	r.latencyMetrics(res)
	return r.closeWindow()
}

// compactInterval is read_under_ingest's fold period, a fifteenth of the
// window: 2 s in a 30 s window.
func (r *run) compactInterval() time.Duration { return r.cfg.timed() / 15 }

// driveIngest is read_under_ingest: one closed-loop reader on the
// zipf_hot stream beside one open-loop writer, against a daemon that
// fsyncs every batch to its WAL before the ack and folds on a timer.
func (r *run) driveIngest() error {
	args := r.daemonArgs("-data-dir", r.dataDir(), "-compact-interval", r.compactInterval().String())
	if err := r.startTimed(args); err != nil {
		return err
	}
	// A fresh -load supersedes a WAL of the same name at start-up, so a
	// restart can only replay the log on top of a snapshot: take one now.
	if err := callJSON(r.hc, r.d.base+"/v1/datasets/taxi/snapshot", ctypeJSON, nil, &struct{}{}); err != nil {
		return fmt.Errorf("snapshotting before ingest: %w", err)
	}
	if err := r.checkProbes(); err != nil {
		return err
	}
	var nextRead, nextWrite atomic.Uint64
	read, closeRead := r.do(r.g.hot)
	defer closeRead()
	write, closeWrite := r.do(r.g.ingest)
	defer closeWrite()
	phase := func(d time.Duration) (reads, writes *loopResult) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = runOpen(1, ingestRate, d, &nextWrite, write)
		}()
		reads = runClosed(1, d, &nextRead, read)
		wg.Wait()
		return
	}
	phase(r.cfg.warm())
	if err := r.openWindow(); err != nil {
		return err
	}
	reads, writes := phase(r.cfg.timed())
	r.latencyMetrics(reads)
	r.attempted += writes.attempted
	r.failed += writes.failed
	r.m["ingest_ack_p50_ms"] = writes.lat.ms(50)
	r.m["ingest_ack_p95_ms"] = writes.lat.ms(min(95, tailPercentile(writes.lat.n)))
	r.lagMetrics(writes)
	if err := r.closeWindow(); err != nil {
		return err
	}

	// Every batch sent was acknowledged (a refusal fails the run), so the
	// references take the same batches in the same order.
	r.ingestBatches = nextWrite.Load()
	for k := uint64(0); k < r.ingestBatches; k++ {
		if err := r.o.ingest(r.g.ingestRows(k)); err != nil {
			return fmt.Errorf("ingesting batch %d in process: %w", k, err)
		}
	}
	if err := r.checkTotal("after the run"); err != nil {
		return err
	}
	if err := r.checkProbes(); err != nil {
		return err
	}
	// kill -9 and restart: the snapshot plus the WAL's replay must bring
	// back every acknowledged row and no other. The caller's closing
	// answer check then runs against the recovered daemon.
	r.d.kill()
	d, _, err := startDaemon(r.hc, r.cfg.daemonBin, args...)
	if err != nil {
		return fmt.Errorf("restarting after kill -9: %w", err)
	}
	r.d = d
	return r.checkTotal("after kill -9 and WAL replay")
}

// checkTotal verifies COUNT over the whole bound equals the seed tuples
// plus every acknowledged row.
func (r *run) checkTotal(when string) error {
	b := r.g.bound
	body := fmt.Sprintf(`{"dataset":"taxi","rect":[%g,%g,%g,%g],"aggs":[{"func":"count"}]}`, b[0], b[1], b[2], b[3])
	var resp queryResponse
	if err := callJSON(r.hc, r.d.base+queryPath, ctypeJSON, []byte(body), &resp); err != nil {
		return err
	}
	r.attempted++
	if resp.Result == nil || resp.Result.Count != uint64(len(r.o.centers)) {
		r.fail("%s: COUNT over the bound is %+v, want %d (seed tuples + acknowledged rows)", when, resp.Result, len(r.o.centers))
	}
	return nil
}

// driveMapped is mapped_cold: build and snapshot once (untimed), then
// time the mmap restart, sweep every shard once, and churn under a
// resident budget of half the dataset.
func (r *run) driveMapped() error {
	dir := r.dataDir()
	prep, _, err := startDaemon(r.hc, r.cfg.daemonBin, r.daemonArgs("-mmap", "-data-dir", dir)...)
	if err != nil {
		return err
	}
	var snap struct {
		FormatVersion int   `json:"format_version"`
		Bytes         int64 `json:"bytes"`
	}
	err = callJSON(r.hc, prep.base+"/v1/datasets/taxi/snapshot", ctypeJSON, nil, &snap)
	built, _, serr := fetchStats(r.hc, prep.base)
	prep.stop()
	if err = errors.Join(err, serr); err != nil {
		return fmt.Errorf("building the snapshot: %w", err)
	}
	if snap.FormatVersion != snapshot.FormatVersionV3 {
		return fmt.Errorf("snapshot has manifest format %d, want the mappable %d", snap.FormatVersion, snapshot.FormatVersionV3)
	}
	disk, err := dirBytes(filepath.Join(dir, "taxi"))
	if err != nil {
		return err
	}
	r.m["disk_bytes_per_row"] = float64(disk) / float64(built.Tuples)

	// Half of what the shards cost once materialised: block plus pyramid.
	budget := int64(built.SizeBytes+built.PyramidBytes) / 2
	if err := r.startTimed([]string{"-mmap", "-resident-budget", strconv.FormatInt(budget, 10), "-data-dir", dir}); err != nil {
		return err
	}

	// The sweep is both the first-touch measurement and the "before"
	// answer check: one fixed polygon per shard, one client, fixed order.
	// Only the requests are timed; checking the answers comes after.
	_, res0, err := fetchStats(r.hc, r.d.base)
	if err != nil {
		return err
	}
	sweepStart := time.Now()
	answers, err := r.fetchProbes()
	if err != nil {
		return err
	}
	r.m["cold_sweep_s"] = time.Since(sweepStart).Seconds()
	_, res1, err := fetchStats(r.hc, r.d.base)
	if err != nil {
		return err
	}
	r.sweepFaults = res1.Faults - res0.Faults
	r.verifyProbes(answers)

	var next atomic.Uint64
	do, closeConns := r.do(r.g.churn)
	defer closeConns()
	runClosed(maxClients, r.cfg.warm(), &next, do)
	if err := r.openWindow(); err != nil {
		return err
	}
	res := runClosed(maxClients, r.cfg.timed(), &next, do)
	r.latencyMetrics(res)
	return r.closeWindow()
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		total += info.Size()
		return err
	})
	return total, err
}

// driveOpenMix is open_mix: after a closed-loop warm-up, four open-loop
// steps at the frozen rates over two connections. The 50 % step, the
// one whose latency the workload reports (loaded, but not near
// saturation on the calibration commit), takes half the timed window so
// that its tail rests on enough requests; the others share the rest and
// only decide slo_rate_qps.
func (r *run) driveOpenMix() error {
	if err := r.startTimed(r.daemonArgs()); err != nil {
		return err
	}
	if err := r.checkProbes(); err != nil {
		return err
	}
	var next atomic.Uint64
	do, closeConns := r.do(r.g.mix)
	defer closeConns()
	runClosed(maxClients, r.cfg.warm(), &next, do)
	if err := r.openWindow(); err != nil {
		return err
	}
	const reported = 1 // index of the 50 % step
	var completed float64
	var elapsed time.Duration
	for i, rate := range openMixRates {
		d := r.cfg.timed() / (2 * time.Duration(len(openMixRates)-1))
		if i == reported {
			d = r.cfg.timed() / 2
		}
		step := runOpen(maxClients, rate, d, &next, do)
		completed += float64(step.attempted - step.failed)
		elapsed += step.elapsed
		p99 := step.lat.ms(min(99, tailPercentile(step.lat.n)))
		if p99 <= sloP99MS && step.failed == 0 && step.lagLate <= step.lagEarly+backlogSlackMS {
			r.m["slo_rate_qps"] = rate
		}
		if i == reported {
			r.latencyMetrics(step)
			r.lagMetrics(step)
			continue
		}
		r.attempted += step.attempted
		r.failed += step.failed
		r.topStepQPS = step.qps() // the last assignment is the top step's
	}
	r.m["qps"] = completed / elapsed.Seconds()
	return r.closeWindow()
}

// checkProbes answers the workload's probe set over HTTP and checks each
// answer against the in-process dataset and the brute-force envelope.
// Failed checks count as failed operations; only a transport failure is
// an error.
func (r *run) checkProbes() error {
	answers, err := r.fetchProbes()
	if err != nil {
		return err
	}
	r.verifyProbes(answers)
	return nil
}

// fetchProbes is the HTTP half of checkProbes: one answer per probe, in
// probe order, over one connection.
func (r *run) fetchProbes() ([]answer, error) {
	rings := r.w.probes(r.g)
	if r.w.joinProbes {
		enc := make([][]byte, len(rings))
		for i, rg := range rings {
			enc[i] = appendRing(nil, rg)
		}
		var resp queryResponse
		if err := callJSON(r.hc, r.d.base+joinPath, ctypeJSON, joinBody(enc, probeAggs, r.w.maxError), &resp); err != nil {
			return nil, fmt.Errorf("probe join: %w", err)
		}
		if len(resp.Results) != len(rings) {
			return nil, fmt.Errorf("probe join answered %d of %d polygons", len(resp.Results), len(rings))
		}
		return resp.Results, nil
	}
	answers := make([]answer, 0, len(rings))
	for i, rg := range rings {
		var resp queryResponse
		if err := callJSON(r.hc, r.d.base+queryPath, ctypeJSON, queryBody(rg, probeAggs, r.w.maxError), &resp); err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
		if resp.Result == nil {
			return nil, fmt.Errorf("probe %d: response carries no result", i)
		}
		answers = append(answers, *resp.Result)
	}
	return answers, nil
}

// verifyProbes is the checking half: this process's own CPU, no request.
func (r *run) verifyProbes(answers []answer) {
	rings := r.w.probes(r.g)
	for i, a := range answers {
		r.attempted++
		if err := r.o.check(rings[i], r.w.maxError, a); err != nil {
			r.fail("probe %d: %v", i, err)
		}
	}
}

func (r *run) dataDir() string { return filepath.Join(r.dir, "data") }

// hitRatio is the result cache's hit ratio over the timed window.
func (r *run) hitRatio() float64 {
	b, a := r.before.ResultCache, r.after.ResultCache
	if b == nil || a == nil {
		return 0
	}
	return ratio(a.Hits-b.Hits, a.Hits-b.Hits+a.Misses-b.Misses)
}

// joinDelta is the join operator's counters over the timed window.
func (r *run) joinDelta() (d store.JoinCounters) {
	if a := r.after.Join; a != nil {
		d = *a
	}
	if b := r.before.Join; b != nil {
		d.InteriorPairs -= b.InteriorPairs
		d.BoundaryPairs -= b.BoundaryPairs
		d.Fallbacks -= b.Fallbacks
	}
	return d
}

// joinInteriorFrac is the share of (polygon, grid cell) pairs the shared
// coverer answered whole over the timed window.
func (r *run) joinInteriorFrac() float64 {
	d := r.joinDelta()
	return ratio(d.InteriorPairs, d.InteriorPairs+d.BoundaryPairs)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterMetrics turns the live daemon's counter deltas over the timed
// window into per-layer metrics.
func (r *run) counterMetrics() {
	m := r.m
	if b, a := r.before.ResultCache, r.after.ResultCache; b != nil && a != nil {
		m["resultcache.hit_ratio"] = r.hitRatio()
		m["resultcache.admissions"] = float64(a.Admissions - b.Admissions)
		m["resultcache.evictions"] = float64(a.Evictions - b.Evictions)
		m["resultcache.stale_misses"] = float64(a.StaleMisses - b.StaleMisses)
		m["resultcache.bytes"] = float64(a.Bytes)
	}
	// Under -mmap an evicted shard takes its cache counters with it, so
	// the dataset's sums can fall; a negative delta reads as no probes.
	if bc, ac := r.before.Cache, r.after.Cache; ac.Probes >= bc.Probes && ac.FullHits >= bc.FullHits && ac.PartialHits >= bc.PartialHits {
		probes := ac.Probes - bc.Probes
		m["aggtrie.probes"] = float64(probes)
		m["aggtrie.full_hit_ratio"] = ratio(ac.FullHits-bc.FullHits, probes)
		m["aggtrie.partial_hit_ratio"] = ratio(ac.PartialHits-bc.PartialHits, probes)
	}
	m["aggtrie.bytes"] = float64(r.after.CacheBytes)
	m["cover.shared_interior_frac"] = r.joinInteriorFrac()
	m["cover.shared_fallbacks"] = float64(r.joinDelta().Fallbacks)
	if b, a := r.before.Ingest, r.after.Ingest; b != nil && a != nil {
		m["ingest.rejected_503"] = float64(r.rejected503.Load())
		m["ingest.delta_rows_max"] = float64(r.deltaRowsMax.Load())
		m["compact.runs"] = float64(a.Compactions - b.Compactions)
		m["compact.rows"] = float64(a.CompactedRows - b.CompactedRows)
		if rows := a.Rows - b.Rows; rows > 0 && a.WALBytes > b.WALBytes {
			m["ingest.wal_bytes_per_row"] = float64(a.WALBytes-b.WALBytes) / float64(rows)
		}
	}
	m["residency.shard_faults"] = float64(r.resAfter.Faults - r.resBefore.Faults)
	m["residency.evictions"] = float64(r.resAfter.Evictions - r.resBefore.Evictions)
	m["residency.resident_bytes"] = float64(r.resAfter.ResidentBytes)
	m["residency.mapped_bytes"] = float64(r.resAfter.MappedBytes)
}

// result is one workload run's report.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Correct   bool     `json:"correct"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Suspect is set when the generator itself may have shaped the
	// numbers: it ran late or used more than half a core.
	Suspect string             `json:"suspect,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// runWorkload performs one run of one workload: untraced it measures
// the end-to-end metrics; traced it adds the in-process replay that
// produces the per-layer numbers.
func runWorkload(cfg config, w *workload, traced bool) (*result, error) {
	dir, err := os.MkdirTemp(cfg.outDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{cfg: cfg, w: w, g: newGen(cfg.seed, taxiBound()), hc: &http.Client{Timeout: requestTimeout}, dir: dir, m: map[string]float64{}}
	if r.o, err = newOracle(cfg.rows, cfg.seed, r.storeOptions()); err != nil {
		return nil, err
	}
	defer func() {
		if r.d != nil {
			r.d.stop()
		}
	}()
	if err := w.drive(r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	// The "after" answer check: the same probes against the daemon as
	// the run left it (caches warm, rows ingested, shards evicted).
	if err := r.checkProbes(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := w.guard(r); err != nil {
		return nil, fmt.Errorf("workload invalid: %s: %w", w.name, err)
	}
	r.m["setup_s"] = median(r.setups)
	r.m["error_rate"] = float64(r.failed) / float64(r.attempted)
	r.counterMetrics()
	if traced {
		if err := r.replay(); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
	}
	res := &result{
		Workload: w.name, Traced: traced, Seed: cfg.seed, Seconds: cfg.seconds,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Problems: r.problems, Metrics: r.m,
	}
	switch {
	case r.m["bench.client_cpu_frac"] > 0.5:
		res.Suspect = fmt.Sprintf("generator used %.2f of a core", r.m["bench.client_cpu_frac"])
	case r.m["bench.gen_lag_p99_ms"] > sloP99MS:
		// An open loop over two connections sends late whenever both are
		// busy; that wait is the system's. Lateness beyond the latency
		// limit itself means the schedule was not kept in any useful sense.
		res.Suspect = fmt.Sprintf("generator sent %.2f ms late at p99", r.m["bench.gen_lag_p99_ms"])
	}
	return res, nil
}

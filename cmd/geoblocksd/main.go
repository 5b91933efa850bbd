// Command geoblocksd serves spatially sharded GeoBlock datasets over
// HTTP/JSON: the serving daemon on top of internal/store.
//
// Usage:
//
//	geoblocksd [-addr :8080] [-load spec[:rows]]... [-level N]
//	           [-shard-level N] [-pyramid-levels N] [-result-cache-bytes N]
//	           [-result-cache-min-hits N] [-seed N] [-drain D]
//	           [-data-dir DIR] [-snapshot-on-exit]
//	           [-compact-interval D] [-delta-max-rows N]
//	           [-mmap] [-resident-budget BYTES]
//	           [-cluster-config FILE] [-coordinator] [-peer-addr ADDR]
//
// Each -load builds one synthetic dataset at startup (spec taxi, tweets
// or osm; default 100000 rows), registered under the spec name. More
// datasets — with per-dataset level, sharding, result-cache and pyramid
// configuration — can be created at runtime via POST /v1/datasets.
// Served datasets carry no per-shard AggregateTrie: the dataset-level
// result cache answers repeated queries instead (the trie stays an
// in-process feature of the geoblocks package).
//
// -pyramid-levels derives that many coarser grid levels per shard; the
// query planner then answers /v1/query requests carrying "max_error" at
// the coarsest level satisfying the bound (responses report the achieved
// level and bound, /v1/stats the pyramid memory cost).
//
// -result-cache-bytes attaches the dataset-level result cache to every
// -load dataset with that byte budget (0 disables it);
// -result-cache-min-hits is its admission floor. Restored snapshots keep
// the configuration recorded in their manifest instead. /v1/stats
// reports hit/miss/hotness counters, /metrics the
// geoblocks_resultcache_* series; docs/OPERATIONS.md has the tuning
// runbook.
//
// With -data-dir the daemon is durable: every snapshot directory under
// DIR is restored at startup (corrupt or version-mismatched snapshots
// are skipped with an error log and register nothing), the snapshot
// endpoint defaults to DIR/<name>, and -snapshot-on-exit snapshots every
// registered dataset into DIR after the graceful drain, so the next
// start resumes with the same data. docs/FORMAT.md specifies the on-disk
// artifacts; docs/OPERATIONS.md has the runbook.
//
// Streaming ingest (POST /v1/datasets/{name}/rows) appends rows into
// per-shard delta blocks served alongside the immutable base; a
// background compactor folds them into the base every -compact-interval
// (and immediately when the pending backlog passes half of
// -delta-max-rows; at the full cap ingest returns 503 until the fold
// catches up). With -data-dir every acknowledged batch is fsynced to
// DIR/<name>.wal before the ack and replayed after a crash or restart,
// so no acknowledged row is lost and none is double-counted
// (docs/FORMAT.md Sec. 9; docs/OPERATIONS.md "Streaming ingest" is the
// runbook).
//
// -mmap serves format-v3 snapshots in place: restore validates only
// manifests and shard metadata (startup cost independent of data
// volume), each shard's data is mmap'd, checksummed and pyramid-derived
// on its first query, and -resident-budget bounds the total materialised
// memory with LRU eviction (0 = unlimited; evicted shards re-fault on
// demand). Mapped datasets are read-only — updates need an eager
// restart, which restores the same v3 snapshot into writable heap
// blocks. Every snapshot the daemon writes is format v3; legacy
// version-1 snapshots still restore eagerly. /v1/stats and /metrics
// report mapped vs resident bytes, shard faults and evictions.
// docs/OPERATIONS.md Sec. "Serving snapshots from disk" is the runbook.
//
// Cluster mode (-cluster-config FILE) makes the node a member of a
// geoblocksd cluster: FILE is the shard→node assignment (a JSON map of
// named nodes, a replication factor and an epoch — docs/OPERATIONS.md
// "Cluster serving" specifies it), -peer-addr names which entry this
// process is (matched against node name or addr; defaults to the single
// entry whose addr matches -addr), and the node serves the internal
// partial-query endpoint peers scatter to. With -coordinator, /v1/query
// additionally routes through the cluster scatter-gather: shards this
// node owns answer in process, remote shards are fetched from their
// replica chains (per-request timeouts, bounded retries with backoff,
// hedged requests, failover) and merged in global shard order — answers
// are bit-identical to single-node for COUNT/MIN/MAX, SUM within the
// documented bound. SIGHUP reloads the assignment file (epoch must
// change); a shard with no live replica fails the query with a typed
// 503 naming the shard, never a silently partial answer.
//
// Endpoints (full reference with curl examples in docs/OPERATIONS.md):
//
//	GET    /v1/datasets                 list datasets
//	POST   /v1/datasets                 create a dataset (synthetic or from snapshot)
//	DELETE /v1/datasets/{name}          drop a dataset (?purge=1 also removes its snapshot and WAL)
//	POST   /v1/datasets/{name}/rows     ingest a batch of rows (JSON or NDJSON)
//	POST   /v1/datasets/{name}/compact  fold pending delta rows into the base
//	POST   /v1/datasets/{name}/snapshot write a durable snapshot
//	POST   /v1/query                    polygon / rect / batch aggregate query
//	POST   /internal/v1/partial         peer partial query (cluster mode only)
//	GET    /v1/stats                    detailed statistics (?dataset=NAME)
//	GET    /metrics                     Prometheus-style counters
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener closes
// immediately, in-flight requests get -drain (default 5s) to finish.
// A request must arrive whole within 60 s, its headers within 10 s; a
// client that stalls mid-body is disconnected.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"geoblocks/internal/cluster"
	"geoblocks/internal/httpapi"
	"geoblocks/internal/resultcache"
	"geoblocks/internal/snapshot"
	"geoblocks/internal/store"
)

// loadSpec is one -load argument: a synthetic dataset to build at startup.
type loadSpec struct {
	spec string
	rows int
}

func parseLoad(arg string) (loadSpec, error) {
	ls := loadSpec{rows: 100_000}
	name, rows, ok := strings.Cut(arg, ":")
	ls.spec = name
	if ok {
		n, err := strconv.Atoi(rows)
		if err != nil || n <= 0 {
			return ls, fmt.Errorf("bad -load row count %q", rows)
		}
		ls.rows = n
	}
	if _, known := httpapi.SpecByName(ls.spec); !known {
		return ls, fmt.Errorf("unknown -load spec %q (taxi, tweets, osm)", ls.spec)
	}
	return ls, nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		level        = flag.Int("level", httpapi.DefaultLevel, "block grid level for -load datasets")
		shardLevel   = flag.Int("shard-level", 2, "shard prefix level for -load datasets (0 = unsharded)")
		pyramid      = flag.Int("pyramid-levels", 4, "coarser pyramid levels per shard for -load datasets (0 = full resolution only)")
		rcBytes      = flag.Int64("result-cache-bytes", 64<<20, "result cache byte budget for -load datasets (0 = no result cache)")
		rcMinHits    = flag.Int("result-cache-min-hits", resultcache.DefaultMinHits, "result cache admission floor for -load datasets (0 = admit on first miss)")
		seed         = flag.Int64("seed", 1, "generation seed for -load datasets")
		drain        = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
		dataDir      = flag.String("data-dir", "", "snapshot directory: restore all snapshots at startup, default target for the snapshot endpoint")
		snapOnExit   = flag.Bool("snapshot-on-exit", false, "snapshot every dataset into -data-dir after the graceful drain")
		compactEvery = flag.Duration("compact-interval", 5*time.Second, "background delta compaction cadence (0 folds only on backpressure kicks)")
		deltaMaxRows = flag.Int64("delta-max-rows", 2_000_000, "ingest backpressure cap on pending delta rows per dataset (0 = uncapped)")
		mmapServe    = flag.Bool("mmap", false, "serve format-v3 snapshots in place via mmap: metadata-only restore, shards fault in on first query")
		residentMax  = flag.Int64("resident-budget", 0, "resident-memory budget in bytes for mmap-served shards, LRU-evicted above it (0 = unlimited; needs -mmap)")
		clusterCfg   = flag.String("cluster-config", "", "cluster assignment file (JSON; see docs/OPERATIONS.md): join a geoblocksd cluster and serve the internal partial endpoint; SIGHUP reloads it")
		coordinator  = flag.Bool("coordinator", false, "route /v1/query through the cluster scatter-gather (needs -cluster-config)")
		peerAddr     = flag.String("peer-addr", "", "this node's identity in the assignment, matched against node name or addr (default: the node whose addr matches -addr)")
	)
	var loads []loadSpec
	flag.Func("load", "synthetic dataset to serve, spec[:rows] (taxi, tweets, osm); repeatable", func(arg string) error {
		ls, err := parseLoad(arg)
		if err != nil {
			return err
		}
		loads = append(loads, ls)
		return nil
	})
	flag.Parse()
	if *snapOnExit && *dataDir == "" {
		log.Fatalf("geoblocksd: -snapshot-on-exit requires -data-dir")
	}
	if *coordinator && *clusterCfg == "" {
		log.Fatalf("geoblocksd: -coordinator requires -cluster-config")
	}
	if *peerAddr != "" && *clusterCfg == "" {
		log.Fatalf("geoblocksd: -peer-addr requires -cluster-config")
	}
	if *residentMax != 0 && !*mmapServe {
		log.Fatalf("geoblocksd: -resident-budget requires -mmap")
	}
	if *residentMax < 0 {
		log.Fatalf("geoblocksd: -resident-budget must be >= 0, got %d", *residentMax)
	}

	if *deltaMaxRows < 0 {
		log.Fatalf("geoblocksd: -delta-max-rows must be >= 0, got %d", *deltaMaxRows)
	}

	st := store.New()
	// The ingest policy must be in place before any dataset registers:
	// restores replay their WAL inside Add, -load datasets get their
	// compactor there too. With -data-dir, acknowledged ingests are
	// durable (fsynced to <data-dir>/<name>.wal before the ack); without
	// it, ingest works but is volatile.
	st.EnableIngest(store.IngestConfig{
		WALDir:          *dataDir,
		DeltaMaxRows:    *deltaMaxRows,
		CompactInterval: *compactEvery,
		OnError:         func(err error) { log.Printf("ERROR: background compaction: %v", err) },
	})
	if *mmapServe {
		st.EnableMmap(*residentMax)
		if *residentMax > 0 {
			log.Printf("mmap serving enabled, resident budget %.1f MiB", float64(*residentMax)/(1<<20))
		} else {
			log.Printf("mmap serving enabled, unlimited resident budget")
		}
	}
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatalf("geoblocksd: %v", err)
		}
		if err := restoreDataDir(st, *dataDir, log.Printf); err != nil {
			log.Fatalf("geoblocksd: %v", err)
		}
	}
	for _, ls := range loads {
		if _, ok := st.Get(ls.spec); ok {
			log.Printf("skipping -load %s: already registered (restored from snapshot, or duplicate -load)", ls.spec)
			continue
		}
		start := time.Now()
		d, err := httpapi.BuildSynthetic(ls.spec, ls.spec, ls.rows, *seed, store.Options{
			Level:              *level,
			ShardLevel:         *shardLevel,
			PyramidLevels:      *pyramid,
			ResultCacheBytes:   *rcBytes,
			ResultCacheMinHits: *rcMinHits,
		})
		if err != nil {
			log.Fatalf("geoblocksd: loading %s: %v", ls.spec, err)
		}
		if err := st.Add(d); err != nil {
			log.Fatalf("geoblocksd: %v", err)
		}
		s := d.Stats()
		log.Printf("loaded %s: %d tuples, %d shards at level %d (block level %d) in %v",
			s.Name, s.Tuples, s.NumShards, s.ShardLevel, s.Level, time.Since(start).Round(time.Millisecond))
	}

	var co *cluster.Coordinator
	if *clusterCfg != "" {
		cfg, err := cluster.LoadFile(*clusterCfg)
		if err != nil {
			log.Fatalf("geoblocksd: %v", err)
		}
		self, err := resolveSelf(cfg, *peerAddr, *addr)
		if err != nil {
			log.Fatalf("geoblocksd: %v", err)
		}
		co, err = cluster.New(st, cfg, self)
		if err != nil {
			log.Fatalf("geoblocksd: %v", err)
		}
		role := "peer"
		if *coordinator {
			role = "coordinator"
		}
		if self == "" {
			log.Printf("cluster mode: not in the assignment's node list; acting as a pure router")
		}
		log.Printf("cluster mode (%s): self %q, epoch %d, %d node(s), replication %d",
			role, self, co.Epoch(), len(cfg.Nodes), co.Assignment().Replication())
		// SIGHUP reloads the assignment file: placement, epoch and client
		// tuning swap in for subsequent queries; a bad file is rejected
		// and the running assignment stays.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				cfg, err := cluster.LoadFile(*clusterCfg)
				if err != nil {
					log.Printf("ERROR: reloading cluster config: %v", err)
					continue
				}
				if err := co.Reload(cfg); err != nil {
					log.Printf("ERROR: reloading cluster config: %v", err)
					continue
				}
				log.Printf("cluster assignment reloaded: epoch %d, %d node(s)", cfg.Epoch, len(cfg.Nodes))
			}
		}()
	}

	handler := httpapi.NewHandler(st, httpapi.Config{
		DataDir:     *dataDir,
		Cluster:     co,
		Coordinator: *coordinator,
	})
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("geoblocksd: %v", err)
	}
	log.Printf("serving %d dataset(s) on %s", len(st.Names()), l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, l, handler, *drain); err != nil {
		log.Fatalf("geoblocksd: %v", err)
	}
	if *snapOnExit {
		// Before the compactors stop: the snapshot path folds pending
		// deltas itself and truncates each dataset's WAL to the
		// un-snapshotted tail.
		if err := snapshotAll(st, *dataDir, log.Printf); err != nil {
			log.Fatalf("geoblocksd: %v", err)
		}
	}
	st.Close()
	log.Printf("shut down cleanly")
}

// resolveSelf identifies this process in the assignment's node list:
// by -peer-addr (matched against node name, then addr; a mismatch is
// fatal — a mis-identified node would answer shards it doesn't own the
// stats for), or by the listen address. No match without an explicit
// -peer-addr means the node runs as a pure router (empty self): it
// coordinates but owns no shards.
func resolveSelf(cfg *cluster.Config, peerAddr, listenAddr string) (string, error) {
	if peerAddr != "" {
		for _, n := range cfg.Nodes {
			if n.Name == peerAddr || n.Addr == peerAddr {
				return n.Name, nil
			}
		}
		return "", fmt.Errorf("-peer-addr %q matches no assignment node (by name or addr)", peerAddr)
	}
	for _, n := range cfg.Nodes {
		if n.Addr == listenAddr {
			return n.Name, nil
		}
	}
	return "", nil
}

// restoreDataDir sweeps crash remnants of interrupted saves
// (snapshot.Recover), then restores every snapshot directory found under
// dataDir. Each snapshot registers under its *directory* name — the
// name the snapshot endpoint writes to and purge removes — so a copied
// or renamed snapshot directory becomes a dataset of that name instead
// of colliding with the original. A corrupt, version-mismatched or
// otherwise unloadable snapshot is skipped with an error log — it
// registers nothing (fail closed) but does not take down the datasets
// that do load.
func restoreDataDir(st *store.Store, dataDir string, logf func(string, ...any)) error {
	sweepStart := time.Now()
	actions, err := snapshot.Recover(dataDir)
	for _, a := range actions {
		logf("snapshot sweep: %s", a)
	}
	if err != nil {
		return err
	}
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return err
	}
	res := st.Residency()
	var datasets, shards, mapped int
	var tuples uint64
	var bytes int64
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		dir := filepath.Join(dataDir, e.Name())
		if _, err := os.Stat(filepath.Join(dir, snapshot.ManifestFile)); err != nil {
			logf("skipping %s: no snapshot manifest", dir)
			continue
		}
		start := time.Now()
		var d *store.Dataset
		if res != nil {
			d, err = store.OpenMapped(dir, e.Name(), res)
		} else {
			d, err = store.Open(dir, e.Name())
		}
		if err != nil {
			logf("ERROR: skipping snapshot %s: %v", dir, err)
			continue
		}
		if err := st.Add(d); err != nil {
			logf("ERROR: skipping snapshot %s: %v", dir, err)
			continue
		}
		s := d.Stats()
		mode := "restored"
		if s.Mapped {
			mode = "mapped"
			mapped++
		}
		logf("%s %s: %d tuples, %d shards at level %d (block level %d) in %v",
			mode, s.Name, s.Tuples, s.NumShards, s.ShardLevel, s.Level, time.Since(start).Round(time.Millisecond))
		datasets++
		shards += s.NumShards
		tuples += s.Tuples
		bytes += int64(s.SizeBytes)
	}
	// One aggregate line at completion: how long the whole data
	// directory took to come up and how much it holds — the number to
	// watch when tuning startup (eager decode vs -mmap).
	logf("restore complete: %d dataset(s) (%d mapped), %d shards, %d tuples, %.1f MiB in %v",
		datasets, mapped, shards, tuples, float64(bytes)/(1<<20), time.Since(sweepStart).Round(time.Millisecond))
	return nil
}

// snapshotAll writes one snapshot per registered dataset into dataDir,
// replacing previous snapshots atomically. Datasets whose names are not
// safe path elements are skipped with a log line (the HTTP API refuses
// to create such names; -load specs are always safe).
func snapshotAll(st *store.Store, dataDir string, logf func(string, ...any)) error {
	var firstErr error
	for _, name := range st.Names() {
		d, ok := st.Get(name)
		if !ok {
			continue
		}
		if !httpapi.ValidDatasetName(name) {
			logf("not snapshotting %q: unsafe name", name)
			continue
		}
		start := time.Now()
		m, err := d.Snapshot(filepath.Join(dataDir, name))
		if err != nil {
			logf("ERROR: snapshotting %s: %v", name, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var total int64
		for _, sh := range m.Shards {
			total += sh.Bytes
		}
		logf("snapshotted %s: %d shards, %.1f MiB in %v",
			name, len(m.Shards), float64(total)/(1<<20), time.Since(start).Round(time.Millisecond))
	}
	return firstErr
}

// readTimeout bounds reading one whole request, headers and body: a
// client that stops sending mid-body is dropped when it expires. It
// leaves room for the largest body the API takes (the 32 MiB ingest cap)
// at about 1 MB/s. A handler that is still running when it expires sees
// its request context cancelled. A variable only so tests can shorten it.
var readTimeout = 60 * time.Second

// serve runs an HTTP server on l until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get
// drainTimeout to complete. It returns nil on a clean (signal-initiated)
// shutdown and the serve error otherwise.
func serve(ctx context.Context, l net.Listener, h http.Handler, drainTimeout time.Duration) error {
	srv := &http.Server{
		Handler: h,
		// Bound slow clients so trickled headers, stalled bodies and
		// abandoned idle connections cannot pin goroutines and fds
		// forever; request body sizes are separately capped by the
		// handler (httpapi).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       readTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return srv.Shutdown(shutCtx)
}

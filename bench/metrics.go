package main

import "sort"

// endToEnd lists the metrics BENCHMARK.json bounds: every workload emits
// each of them, none is ever zero, and ten runs of one commit agree on
// them within a third of the bound (CALIBRATION.md). README.md has the
// glossary. p99_ms is reported but not bounded: an 8 s window on two
// cores does not pin it down on read_under_ingest.
var endToEnd = []string{"qps", "p50_ms", "p95_ms", "rss_mb", "setup_s"}

// units names the unit of every metric the bench can emit. The metrics
// not in endToEnd are BENCHMARK.json's per_layer list: the per-layer
// numbers of the traced pass, and the end-to-end numbers that exist on
// one workload only or are too coarse to bound (an error rate that is 0,
// a ladder step).
var units = map[string]string{
	"qps":     "1/s",
	"p50_ms":  "ms",
	"p95_ms":  "ms",
	"rss_mb":  "MiB",
	"setup_s": "s",

	"p99_ms":              "ms",
	"error_rate":          "ratio",
	"ingest_ack_p50_ms":   "ms",
	"ingest_ack_p95_ms":   "ms",
	"cold_sweep_s":        "s",
	"disk_bytes_per_row":  "B/row",
	"slo_rate_qps":        "1/s",
	"trace_overhead_frac": "ratio",

	"bench.samples":         "count",
	"bench.tail_pct":        "%",
	"bench.gen_lag_p50_ms":  "ms",
	"bench.gen_lag_p99_ms":  "ms",
	"bench.client_cpu_frac": "ratio",

	"httpapi.handler_ns": "ns",
	"httpapi.self_ns":    "ns",
	"httpapi.req_bytes":  "B",
	"httpapi.resp_bytes": "B",

	"store.query_ns":             "ns",
	"store.accounted_frac":       "ratio",
	"store.plan_cover_ns":        "ns",
	"store.route_ns":             "ns",
	"store.shard_partial_ns":     "ns",
	"store.shard_partial_max_ns": "ns",
	"store.merge_ns":             "ns",
	"store.plan_level":           "level",
	"store.shards_touched":       "count",

	"cover.cover_ns":             "ns",
	"cover.cells_per_covering":   "count",
	"cover.ns_per_cell":          "ns",
	"cover.shared_ns":            "ns",
	"cover.shared_interior_frac": "ratio",
	"cover.shared_fallbacks":     "count",

	"core.select_ns":          "ns",
	"core.select_ns_per_cell": "ns",
	"core.wire_encode_ns":     "ns",
	"core.wire_decode_ns":     "ns",
	"core.wire_bytes":         "B",

	"resultcache.hit_ratio":    "ratio",
	"resultcache.lookup_ns":    "ns",
	"resultcache.admissions":   "count",
	"resultcache.evictions":    "count",
	"resultcache.stale_misses": "count",
	"resultcache.bytes":        "B",

	"aggtrie.probes":            "count",
	"aggtrie.full_hit_ratio":    "ratio",
	"aggtrie.partial_hit_ratio": "ratio",
	"aggtrie.bytes":             "B",
	"aggtrie.delta_ns":          "ns",

	"ingest.call_ns":           "ns",
	"ingest.wal_bytes_per_row": "B/row",
	"ingest.rejected_503":      "count",
	"ingest.delta_rows_max":    "count",
	"compact.runs":             "count",
	"compact.fold_ns":          "ns",
	"compact.rows":             "count",

	"snapshot.open_mapped_ns":  "ns",
	"residency.shard_faults":   "count",
	"residency.fault_ns":       "ns",
	"residency.evictions":      "count",
	"residency.resident_bytes": "B",
	"residency.mapped_bytes":   "B",
}

// perLayer returns the metric names outside endToEnd, sorted.
func perLayer() []string {
	bounded := make(map[string]bool, len(endToEnd))
	for _, n := range endToEnd {
		bounded[n] = true
	}
	var out []string
	for n := range units {
		if !bounded[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

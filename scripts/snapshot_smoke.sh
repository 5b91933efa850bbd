#!/bin/sh
# snapshot_smoke.sh — end-to-end snapshot round trip against a real
# geoblocksd: build the daemon, create a dataset, query it, snapshot it
# (format v3), kill the daemon, restart it with the same -data-dir, and
# verify the eagerly restored dataset answers the query identically.
# Then the mmap leg: restart with -mmap on the same snapshot (mapped
# serving, shards faulted on demand) and re-snapshot it, which clones
# the mapped files — the answers must be byte-identical across all
# three runs. Finally the ingest leg: acknowledge row batches over the
# WAL, SIGKILL the daemon (no graceful shutdown, no snapshot), restart,
# verify every acked row survived exactly once, and keep ingesting,
# compacting and snapshotting on the eagerly restored v3 dataset.
# Legacy v2 snapshots are covered by the Go tests' committed fixture
# (internal/snapshot/testdata). Run from anywhere inside the repository:
#
#   scripts/snapshot_smoke.sh [port]
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
port=${1:-18080}
base="http://127.0.0.1:$port"
work=$(mktemp -d)
pid=""

cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	wait 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

fail() {
	echo "snapshot_smoke: FAIL: $*" >&2
	[ -f "$work/daemon.log" ] && sed 's/^/  daemon: /' "$work/daemon.log" >&2
	exit 1
}

wait_ready() {
	i=0
	until curl -sf "$base/v1/datasets" >/dev/null 2>&1; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && fail "daemon did not become ready"
		sleep 0.1
	done
}

# The query used before and after the restart; elapsed_us is stripped
# before diffing (it is the only legitimately nondeterministic field).
query() {
	curl -sf "$base/v1/query" -d '{
	  "dataset": "taxi", "rect": [-74.05, 40.60, -73.85, 40.85],
	  "aggs": [{"func":"count"},{"func":"sum","col":"fare_amount"},
	           {"func":"min","col":"fare_amount"},{"func":"max","col":"fare_amount"}]
	}' | grep -v elapsed_us
}

echo "snapshot_smoke: building geoblocksd"
go build -o "$work/geoblocksd" "$root/cmd/geoblocksd"

echo "snapshot_smoke: first run (build dataset, snapshot, SIGTERM)"
"$work/geoblocksd" -addr "127.0.0.1:$port" -data-dir "$work/data" \
	-load taxi:30000 -shard-level 2 >"$work/daemon.log" 2>&1 &
pid=$!
wait_ready

query >"$work/before.json"
grep -q '"count"' "$work/before.json" || fail "query before snapshot returned no count"

curl -sf -X POST "$base/v1/datasets/taxi/snapshot" >"$work/snap.json" ||
	fail "snapshot endpoint failed"
[ -f "$work/data/taxi/manifest.json" ] || fail "no manifest written"
[ -f "$work/data/taxi/manifest.crc32c" ] || fail "no manifest sidecar written"
grep -q '"format_version": *2' "$work/snap.json" || fail "snapshot did not report format_version 2"
ls "$work/data/taxi/" | grep -q '\.gb3$' || fail "no .gb3 shard files written"

kill -TERM "$pid"
wait "$pid" || fail "daemon did not exit cleanly"
pid=""

echo "snapshot_smoke: second run (restore from -data-dir, re-query)"
"$work/geoblocksd" -addr "127.0.0.1:$port" -data-dir "$work/data" \
	>"$work/daemon.log" 2>&1 &
pid=$!
wait_ready
grep -q "restored taxi" "$work/daemon.log" || fail "daemon did not restore from snapshot"

query >"$work/after.json"
diff -u "$work/before.json" "$work/after.json" ||
	fail "restored dataset answers differently"

kill -TERM "$pid"
wait "$pid" || fail "second daemon did not exit cleanly"
pid=""

echo "snapshot_smoke: third run (-mmap against the same snapshot: mapped serving, re-snapshot by clone)"
"$work/geoblocksd" -addr "127.0.0.1:$port" -data-dir "$work/data" -mmap \
	>"$work/daemon.log" 2>&1 &
pid=$!
wait_ready
grep -q "mapped taxi" "$work/daemon.log" || fail "daemon did not serve the v3 snapshot mapped"

query >"$work/mmap.json"
diff -u "$work/before.json" "$work/mmap.json" ||
	fail "mapped dataset answers differently"

# The query above faulted shards in; the residency counters must show it.
curl -sf "$base/v1/stats" | grep -q '"faults": *[1-9]' ||
	fail "mapped serving reported no shard faults"

# A mapped dataset snapshots by cloning the files it serves.
curl -sf -X POST "$base/v1/datasets/taxi/snapshot" \
	-d "{\"path\": \"$work/clone/taxi\"}" >"$work/snap-clone.json" ||
	fail "mapped snapshot endpoint failed"
grep -q '"format_version": *2' "$work/snap-clone.json" || fail "mapped snapshot did not report format_version 2"
cmp "$work/data/taxi/manifest.json" "$work/clone/taxi/manifest.json" ||
	fail "mapped snapshot is not a clone of the served snapshot"

kill -TERM "$pid"
wait "$pid" || fail "third daemon did not exit cleanly"
pid=""

# --- Ingest leg: acked batches must survive a SIGKILL exactly once. ---

# count runs the smoke query and extracts the COUNT aggregate.
count() {
	curl -sf "$base/v1/query" -d '{
	  "dataset": "taxi", "rect": [-74.05, 40.60, -73.85, 40.85],
	  "aggs": [{"func":"count"}]
	}' | sed -n 's/.*"count":[[:space:]]*\([0-9]*\).*/\1/p'
}

# ingest_batch posts one 5-row batch (all rows inside the smoke query
# rect) and fails unless the daemon acknowledges it with a sequence.
ingest_batch() {
	curl -sf "$base/v1/datasets/taxi/rows" -d '{"rows": [
	  [-73.98, 40.75, 12.5, 3.1, 2.0, 0.16, 1, 14, 1],
	  [-73.97, 40.74, 8.0, 1.2, 1.0, 0.12, 2, 9, 1],
	  [-73.96, 40.73, 22.5, 7.9, 4.5, 0.20, 1, 18, 2],
	  [-73.95, 40.76, 6.5, 0.8, 0.0, 0.00, 3, 23, 2],
	  [-73.99, 40.77, 15.0, 4.4, 3.0, 0.20, 1, 7, 1]
	]}' | grep -q '"seq"'
}

echo "snapshot_smoke: fourth run (ingest over the WAL, then SIGKILL)"
ingdir="$work/ingest-data"
"$work/geoblocksd" -addr "127.0.0.1:$port" -data-dir "$ingdir" \
	-load taxi:30000 -shard-level 2 -compact-interval 500ms >"$work/daemon.log" 2>&1 &
pid=$!
wait_ready

# The snapshot is the recovery base; everything acked after it lives
# only in the write-ahead log until the crash.
curl -sf -X POST "$base/v1/datasets/taxi/snapshot" >/dev/null ||
	fail "ingest-leg snapshot failed"
base_count=$(count)
[ -n "$base_count" ] || fail "ingest-leg baseline query returned no count"

ingest_batch || fail "ingest batch 1 not acknowledged"
ingest_batch || fail "ingest batch 2 not acknowledged"
# Fold the first two batches into the in-memory base: after the kill,
# recovery must replay them from the WAL without double-counting the
# fold. The third batch stays in the delta across the crash.
curl -sf -X POST "$base/v1/datasets/taxi/compact" >/dev/null ||
	fail "ingest-leg compact failed"
ingest_batch || fail "ingest batch 3 not acknowledged"
[ -f "$ingdir/taxi.wal" ] || fail "no write-ahead log written"

live_count=$(count)
[ "$live_count" = "$((base_count + 15))" ] ||
	fail "pre-crash count $live_count, want $((base_count + 15))"

kill -KILL "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "snapshot_smoke: fifth run (recover acked rows from the WAL, keep writing)"
"$work/geoblocksd" -addr "127.0.0.1:$port" -data-dir "$ingdir" \
	>"$work/daemon.log" 2>&1 &
pid=$!
wait_ready
grep -q "restored taxi" "$work/daemon.log" || fail "daemon did not restore after SIGKILL"

recovered=$(count)
[ "$recovered" = "$((base_count + 15))" ] ||
	fail "post-crash count $recovered, want $((base_count + 15)): acked rows lost or double-counted"

# The restore is an eager load of a v3 snapshot: ingest keeps working,
# folding changes nothing, and the folded dataset snapshots again.
ingest_batch || fail "post-recovery ingest batch not acknowledged"
curl -sf -X POST "$base/v1/datasets/taxi/compact" >/dev/null ||
	fail "post-recovery compact failed"
final=$(count)
[ "$final" = "$((base_count + 20))" ] ||
	fail "post-recovery count $final, want $((base_count + 20))"
curl -sf -X POST "$base/v1/datasets/taxi/snapshot" >/dev/null ||
	fail "post-recovery snapshot failed"

kill -TERM "$pid"
wait "$pid" || fail "fifth daemon did not exit cleanly"
pid=""

echo "snapshot_smoke: OK (restored and mapped answers identical; acked ingest survived SIGKILL exactly once; the restored v3 dataset took writes)"

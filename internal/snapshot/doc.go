// Package snapshot implements durable, versioned, checksummed dataset
// snapshots for the sharded store: the persistence layer that turns the
// in-memory serving tier into an operable service that survives
// restarts.
//
// # Layout
//
// A snapshot is one directory holding a JSON manifest plus one format-v3
// GeoBlock file per shard:
//
//	<dir>/
//	  manifest.json     dataset metadata + per-shard entries
//	  manifest.crc32c   CRC32C of manifest.json (hex sidecar)
//	  shard-00000.gb3   v3 file: header | section table | meta | data
//	  shard-00001.gb3   ...
//
// The manifest records the snapshot format version, the dataset's name,
// block level, shard level and cache configuration (the AggregateTrie
// keys are kept but ignored on restore), and for every shard
// its prefix cell, row count, byte length and data CRC32C — enough to
// rebuild the serving dataset exactly and to verify every byte read
// back. Directories of the legacy format (FormatVersion: one
// "GBF1"-framed v2 payload per shard, shard-%05d.gbk) still load; nothing
// writes them. docs/FORMAT.md specifies every artifact kind byte by byte.
//
// # Atomicity and durability
//
// Save stages the whole snapshot in a hidden temp directory next to the
// target, fsyncs every file and the directory, then renames it into
// place (replacing a previous snapshot, if any, with a second rename).
// A reader therefore never observes a half-written snapshot under the
// target path. A crash mid-save leaves at worst a hidden ".snap-"
// staging directory, or — in the window between the two replacement
// renames — the previous snapshot parked under a ".snap-*.old" name;
// Recover sweeps a data directory of both, restoring an orphaned
// previous snapshot into place. Save refuses to replace a non-empty
// target that is not itself a snapshot, so a wrong path cannot destroy
// unrelated data.
//
// # Fail-closed reads
//
// Load validates before it trusts: the manifest checksum and format
// version, then — in parallel across shards — each file's magic,
// declared length, version and checksums, and finally the block's
// level, row count, schema and domain against the manifest. Any
// mismatch fails the whole load with a typed error — ErrCorrupt or
// ErrVersion — and no partial result: the store layer registers a
// restored dataset only after every shard verified.
//
// Shard payload files are written and read with the worker-pool fan-out
// used elsewhere in the store, so snapshot save/restore of a many-shard
// dataset scales with the disks and cores available.
package snapshot

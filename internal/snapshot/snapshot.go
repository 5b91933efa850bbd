package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/core"
	"geoblocks/internal/geom"
)

// FormatVersionV3 marks a directory whose shards are format-v3
// random-access files (see core.EncodeV3): Save writes it, Load reads it
// eagerly and OpenLazy serves it via mmap without decoding.
// FormatVersion is the legacy layout of version-2 framed shard payloads,
// which Load still reads but nothing writes. Bump on incompatible
// manifest or layout changes; docs/FORMAT.md records the policy.
const (
	FormatVersion   = 1
	FormatVersionV3 = 2
)

// Artifact file names inside a snapshot directory.
const (
	// ManifestFile is the JSON manifest.
	ManifestFile = "manifest.json"
	// ManifestChecksumFile is the hex CRC32C sidecar covering the exact
	// bytes of ManifestFile.
	ManifestChecksumFile = "manifest.crc32c"
)

// Typed load failures. Every Load error that stems from the artifact
// content (rather than plain filesystem trouble like a missing
// directory) wraps one of these.
var (
	// ErrCorrupt reports an artifact whose bytes fail validation:
	// checksum mismatch, truncation, bad magic, or manifest entries
	// contradicting the decoded payloads.
	ErrCorrupt = errors.New("snapshot: corrupt snapshot")
	// ErrVersion reports a snapshot written in a format version this
	// build does not read — the artifact may be perfectly intact.
	ErrVersion = errors.New("snapshot: unsupported snapshot version")
)

// ShardEntry is one shard's manifest record.
type ShardEntry struct {
	// Cell is the shard's prefix cell as a human-readable level-tagged
	// token (cellid.ID.String()); informational only.
	Cell string `json:"cell"`
	// CellID is the raw cell id as 16 lower-case hex digits — the
	// machine-readable form Load parses.
	CellID string `json:"cell_id"`
	// File is the shard payload's file name within the snapshot
	// directory (always a bare name, never a path).
	File string `json:"file"`
	// Rows is the shard block's tuple count.
	Rows uint64 `json:"rows"`
	// Bytes is the shard file's size in bytes.
	Bytes int64 `json:"bytes"`
	// CRC32C is the Castagnoli checksum of a v3 file's data region (its
	// header's dataCRC), or of a legacy frame's payload (its trailer).
	CRC32C uint32 `json:"crc32c"`
}

// Manifest is the snapshot's metadata document, serialized as
// manifest.json. All fields are required; unknown fields are ignored on
// read (additive evolution within one format version).
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	Dataset       string `json:"dataset"`
	// Level is the block grid level of every shard.
	Level int `json:"level"`
	// ShardLevel is the cell level of the spatial partition.
	ShardLevel int `json:"shard_level"`
	// CacheThreshold and CacheAutoRefresh record the writer's per-shard
	// AggregateTrie configuration. Restores read and ignore them: no
	// restored dataset carries a trie.
	CacheThreshold   float64 `json:"cache_threshold"`
	CacheAutoRefresh int     `json:"cache_auto_refresh"`
	// PyramidLevels is the dataset's pyramid configuration (the number of
	// coarser levels each shard serves). Pyramid aggregates are never
	// persisted — only the base-level payloads are — so restore re-derives
	// the levels from this count. Absent in pre-pyramid snapshots, which
	// read as 0 (no pyramid) within the same format version.
	PyramidLevels int `json:"pyramid_levels,omitempty"`
	// ResultCacheBytes and ResultCacheMinHits are the dataset's
	// result-cache configuration (internal/resultcache); result-cache
	// contents are never persisted — restore starts a cold cache from
	// this configuration. Absent in older snapshots, which read as 0 (no
	// result cache) within the same format version.
	ResultCacheBytes   int64 `json:"result_cache_bytes,omitempty"`
	ResultCacheMinHits int   `json:"result_cache_min_hits,omitempty"`
	// IngestSeq is the highest streaming-ingest batch sequence number
	// whose rows are folded into the snapshotted base blocks. A restore
	// replays only WAL batches with seq > IngestSeq (see wal.go), so a
	// snapshot plus its ingest WAL is a complete recovery point with no
	// row lost or double-counted. Absent in pre-ingest snapshots, which
	// read as 0 (replay the whole WAL) within the same format version.
	IngestSeq uint64 `json:"ingest_seq,omitempty"`
	// AssignmentEpoch is the epoch of the cluster shard→node assignment
	// the serving node held when the snapshot was taken (cmd/geoblocksd
	// -cluster-config). Purely informational for single-node restores;
	// a cluster operator uses it to tell which assignment generation a
	// snapshot was serving under. Absent (0) outside cluster mode and in
	// pre-cluster snapshots within the same format version.
	AssignmentEpoch uint64 `json:"assignment_epoch,omitempty"`
	// Bound is the dataset domain as [minX, minY, maxX, maxY].
	Bound [4]float64 `json:"bound"`
	// Columns are the value-column names, in schema order.
	Columns []string `json:"columns"`
	// Shards lists every shard in ascending cell order.
	Shards []ShardEntry `json:"shards"`
}

// Shard pairs a shard's prefix cell with its block: Save's input and
// Load's output (Load returns blocks without caches, and the store
// layer attaches no AggregateTrie to them).
type Shard struct {
	Cell  cellid.ID
	Block *geoblocks.GeoBlock
}

// Save writes an atomic snapshot of the shards under dir, replacing any
// previous snapshot there, in format FormatVersionV3: one mappable
// format-v3 file per shard, named shard-%05d.gb3. The metadata fields of
// m (everything but FormatVersion and Shards) must be filled by the
// caller. Save computes the per-shard entries while writing the shard
// files in parallel, stages everything in a temp directory with fsync,
// and renames it into place. It returns the completed manifest.
func Save(dir string, m Manifest, shards []Shard) (Manifest, error) {
	if m.Dataset == "" {
		return Manifest{}, fmt.Errorf("snapshot: dataset name must not be empty")
	}
	if len(shards) == 0 {
		return Manifest{}, fmt.Errorf("snapshot: no shards to save")
	}
	m.FormatVersion = FormatVersionV3
	m.Shards = make([]ShardEntry, len(shards))

	err := stageAndSwap(dir, func(tmp string) error {
		if err := forEachShard(len(shards), func(i int) error {
			name := fmt.Sprintf("shard-%05d.gb3", i)
			entry, err := writeShard(filepath.Join(tmp, name), shards[i])
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			entry.File = name
			m.Shards[i] = entry
			return nil
		}); err != nil {
			return err
		}
		return writeManifestFiles(tmp, m)
	})
	if err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// Clone copies a complete snapshot byte-for-byte from srcDir to dstDir
// with the same staging, fsync and atomic-swap discipline as Save. It is
// how a mapped (read-only) dataset snapshots itself without faulting
// every shard back into memory: the artifacts it serves from ARE the
// snapshot. The source manifest is checksum-verified first; shard bytes
// are trusted as-is (their checksums travel with them).
func Clone(srcDir, dstDir string) (Manifest, error) {
	m, err := readManifest(srcDir)
	if err != nil {
		return Manifest{}, err
	}
	if err := validateManifest(&m); err != nil {
		return Manifest{}, err
	}
	if sAbs, err1 := filepath.Abs(srcDir); err1 == nil {
		if dAbs, err2 := filepath.Abs(dstDir); err2 == nil && sAbs == dAbs {
			return m, nil // snapshotting onto itself is a durable no-op
		}
	}
	err = stageAndSwap(dstDir, func(tmp string) error {
		for i := range m.Shards {
			e := &m.Shards[i]
			data, err := os.ReadFile(filepath.Join(srcDir, e.File))
			if err != nil {
				return fmt.Errorf("%w: shard file %s: %v", ErrCorrupt, e.File, err)
			}
			if int64(len(data)) != e.Bytes {
				return fmt.Errorf("%w: shard file %s is %d bytes, manifest says %d", ErrCorrupt, e.File, len(data), e.Bytes)
			}
			if err := writeFileSync(filepath.Join(tmp, e.File), data); err != nil {
				return err
			}
		}
		return writeManifestFiles(tmp, m)
	})
	if err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// writeManifestFiles writes manifest.json plus its checksum sidecar into
// dir (staging space; files are fsynced).
func writeManifestFiles(dir string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := writeFileSync(filepath.Join(dir, ManifestFile), data); err != nil {
		return err
	}
	sum := fmt.Sprintf("%08x\n", core.CRC32C(data))
	return writeFileSync(filepath.Join(dir, ManifestChecksumFile), []byte(sum))
}

// stageAndSwap runs fill over a fresh temp directory next to dir, fsyncs
// it, and atomically swaps it into place, replacing any previous
// snapshot at dir. Shared by Save and Clone.
func stageAndSwap(dir string, fill func(tmp string) error) error {
	dir = filepath.Clean(dir)
	// Only ever replace a previous snapshot (or an empty directory):
	// the swap moves the existing target aside and deletes it, and that
	// must never be able to destroy an unrelated directory handed in by
	// a caller (the HTTP snapshot endpoint accepts client paths).
	if st, err := os.Stat(dir); err == nil {
		if !st.IsDir() {
			return fmt.Errorf("snapshot: target %s exists and is not a directory", dir)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if len(entries) > 0 {
			if _, err := os.Stat(filepath.Join(dir, ManifestFile)); err != nil {
				return fmt.Errorf("snapshot: refusing to replace %s: non-empty directory without a snapshot manifest", dir)
			}
		}
	}
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp, err := os.MkdirTemp(parent, ".snap-")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.RemoveAll(tmp)

	if err := fill(tmp); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := syncDir(tmp); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}

	// Swap the staged directory into place. A previous snapshot is moved
	// aside first so the target path atomically transitions between two
	// complete snapshots (never a partial one).
	old := tmp + ".old"
	replaced := false
	if _, err := os.Stat(dir); err == nil {
		if err := os.Rename(dir, old); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		replaced = true
	}
	if err := os.Rename(tmp, dir); err != nil {
		if replaced {
			_ = os.Rename(old, dir) // best-effort restore of the previous snapshot
		}
		return fmt.Errorf("snapshot: %w", err)
	}
	if replaced {
		if err := os.RemoveAll(old); err != nil {
			return fmt.Errorf("snapshot: removing previous snapshot: %w", err)
		}
	}
	if err := syncDir(parent); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Load reads and fully validates a snapshot directory, returning the
// manifest and one Shard per manifest entry, in manifest (ascending
// cell) order. Content-level failures wrap ErrCorrupt or ErrVersion; a
// path that simply holds no snapshot surfaces the underlying fs error.
func Load(dir string) (Manifest, []Shard, error) {
	m, err := readManifest(dir)
	if err != nil {
		return Manifest{}, nil, err
	}
	if err := validateManifest(&m); err != nil {
		return Manifest{}, nil, err
	}

	shards := make([]Shard, len(m.Shards))
	if err := forEachShard(len(m.Shards), func(i int) error {
		sh, err := loadShard(dir, &m, i)
		if err != nil {
			return err
		}
		shards[i] = sh
		return nil
	}); err != nil {
		return Manifest{}, nil, err
	}
	return m, shards, nil
}

// readManifest reads and checksum-verifies manifest.json, returning the
// parsed document after the format-version gate (but before the deeper
// validateManifest invariants).
func readManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("snapshot: %w", err)
	}
	sumData, err := os.ReadFile(filepath.Join(dir, ManifestChecksumFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest checksum sidecar: %v", ErrCorrupt, err)
	}
	want, err := strconv.ParseUint(strings.TrimSpace(string(sumData)), 16, 32)
	if err != nil {
		return Manifest{}, fmt.Errorf("%w: malformed manifest checksum sidecar", ErrCorrupt)
	}
	if got := core.CRC32C(data); got != uint32(want) {
		return Manifest{}, fmt.Errorf("%w: manifest CRC32C %08x does not match sidecar %08x", ErrCorrupt, got, uint32(want))
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.FormatVersion != FormatVersion && m.FormatVersion != FormatVersionV3 {
		return Manifest{}, fmt.Errorf("%w: format version %d (this build reads versions %d and %d)", ErrVersion, m.FormatVersion, FormatVersion, FormatVersionV3)
	}
	return m, nil
}

// Recover sweeps the crash remnants of interrupted Saves under dataDir
// and returns one human-readable line per action taken. Three cases:
//
//   - A ".snap-*.old" directory holding a verifiable snapshot whose
//     target (dataDir/<dataset name>) is missing is the previous
//     snapshot of a Save that crashed between its two renames — it is
//     moved back into place (recovered).
//   - A ".snap-*.old" whose target exists is a superseded previous
//     snapshot whose cleanup was interrupted — it is deleted.
//   - Any other ".snap-*" entry is dead staging space — deleted.
//
// An .old remnant whose manifest cannot be read, or whose dataset name
// is not a safe path element, is left on disk and reported rather than
// guessed about. Callers (geoblocksd startup) run this before scanning
// dataDir for snapshots.
func Recover(dataDir string) ([]string, error) {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var actions []string
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), ".snap-") {
			continue
		}
		path := filepath.Join(dataDir, e.Name())
		if !strings.HasSuffix(e.Name(), ".old") {
			if err := os.RemoveAll(path); err != nil {
				return actions, fmt.Errorf("snapshot: %w", err)
			}
			actions = append(actions, fmt.Sprintf("removed dead staging directory %s", e.Name()))
			continue
		}
		m, err := readManifest(path)
		if err != nil {
			actions = append(actions, fmt.Sprintf("leaving %s alone: %v", e.Name(), err))
			continue
		}
		if m.Dataset == "" || m.Dataset != filepath.Base(m.Dataset) || strings.HasPrefix(m.Dataset, ".") {
			actions = append(actions, fmt.Sprintf("leaving %s alone: unsafe dataset name %q", e.Name(), m.Dataset))
			continue
		}
		target := filepath.Join(dataDir, m.Dataset)
		if _, err := os.Stat(target); err == nil {
			if err := os.RemoveAll(path); err != nil {
				return actions, fmt.Errorf("snapshot: %w", err)
			}
			actions = append(actions, fmt.Sprintf("removed superseded snapshot %s (current %s exists)", e.Name(), m.Dataset))
			continue
		}
		if err := os.Rename(path, target); err != nil {
			return actions, fmt.Errorf("snapshot: recovering %s: %w", e.Name(), err)
		}
		actions = append(actions, fmt.Sprintf("recovered snapshot %s from interrupted save (%s)", m.Dataset, e.Name()))
	}
	return actions, nil
}

// validateManifest checks the metadata and entry invariants that do not
// need the payloads: plausible levels and bound, safe file names,
// strictly ascending shard cells at the shard level.
func validateManifest(m *Manifest) error {
	if m.Dataset == "" {
		return fmt.Errorf("%w: manifest has no dataset name", ErrCorrupt)
	}
	if m.Level < 0 || m.Level > cellid.MaxLevel {
		return fmt.Errorf("%w: block level %d out of range", ErrCorrupt, m.Level)
	}
	if m.ShardLevel < 0 || m.ShardLevel > m.Level {
		return fmt.Errorf("%w: shard level %d out of range [0,%d]", ErrCorrupt, m.ShardLevel, m.Level)
	}
	bound := geom.Rect{Min: geom.Pt(m.Bound[0], m.Bound[1]), Max: geom.Pt(m.Bound[2], m.Bound[3])}
	if !bound.IsValid() {
		return fmt.Errorf("%w: invalid domain bound %v", ErrCorrupt, m.Bound)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("%w: manifest lists no shards", ErrCorrupt)
	}
	var prev cellid.ID
	for i := range m.Shards {
		e := &m.Shards[i]
		if e.File == "" || e.File != filepath.Base(e.File) || strings.HasPrefix(e.File, ".") {
			return fmt.Errorf("%w: shard %d has unsafe file name %q", ErrCorrupt, i, e.File)
		}
		cell, err := parseCellID(e.CellID)
		if err != nil {
			return fmt.Errorf("%w: shard %d: %v", ErrCorrupt, i, err)
		}
		if cell.Level() != m.ShardLevel {
			return fmt.Errorf("%w: shard %d cell %v is at level %d, want shard level %d", ErrCorrupt, i, cell, cell.Level(), m.ShardLevel)
		}
		if i > 0 && cell <= prev {
			return fmt.Errorf("%w: shard cells not strictly ascending at entry %d", ErrCorrupt, i)
		}
		prev = cell
	}
	return nil
}

// loadShard reads, verifies and decodes one shard payload, cross-checking
// it against the manifest entry. Both payload formats give ordinary
// writable in-memory shards here (a v3 block owns the heap copy its views
// alias) — this is the eager path; OpenLazy is the one that defers v3
// payload reads.
func loadShard(dir string, m *Manifest, i int) (Shard, error) {
	e := &m.Shards[i]
	path := filepath.Join(dir, e.File)
	var blk *geoblocks.GeoBlock
	if m.FormatVersion == FormatVersionV3 {
		data, err := os.ReadFile(path)
		if err != nil {
			return Shard{}, fmt.Errorf("%w: shard file %s: %v", ErrCorrupt, e.File, err)
		}
		if int64(len(data)) != e.Bytes {
			return Shard{}, fmt.Errorf("%w: shard file %s is %d bytes, manifest says %d", ErrCorrupt, e.File, len(data), e.Bytes)
		}
		info, err := core.ProbeV3(data, int64(len(data)))
		if err != nil {
			return Shard{}, wrapShardErr(e.File, err)
		}
		if info.DataCRC != e.CRC32C {
			return Shard{}, fmt.Errorf("%w: shard file %s data CRC32C %08x, manifest says %08x", ErrCorrupt, e.File, info.DataCRC, e.CRC32C)
		}
		blk, err = geoblocks.MapOwnedGeoBlock(data)
		if err != nil {
			return Shard{}, wrapShardErr(e.File, err)
		}
	} else {
		f, err := os.Open(path)
		if err != nil {
			return Shard{}, fmt.Errorf("%w: shard file %s: %v", ErrCorrupt, e.File, err)
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return Shard{}, fmt.Errorf("%w: shard file %s: %v", ErrCorrupt, e.File, err)
		}
		if st.Size() != e.Bytes {
			return Shard{}, fmt.Errorf("%w: shard file %s is %d bytes, manifest says %d", ErrCorrupt, e.File, st.Size(), e.Bytes)
		}
		var info geoblocks.FrameInfo
		blk, info, err = geoblocks.ReadGeoBlockFramed(f)
		if err != nil {
			return Shard{}, wrapShardErr(e.File, err)
		}
		if info.CRC32C != e.CRC32C {
			return Shard{}, fmt.Errorf("%w: shard file %s payload CRC32C %08x, manifest says %08x", ErrCorrupt, e.File, info.CRC32C, e.CRC32C)
		}
		if info.Bytes != e.Bytes {
			return Shard{}, fmt.Errorf("%w: shard file %s frame is %d bytes, manifest says %d", ErrCorrupt, e.File, info.Bytes, e.Bytes)
		}
	}
	if err := checkShardBlock(blk, m, e); err != nil {
		return Shard{}, err
	}
	cell, err := parseCellID(e.CellID)
	if err != nil {
		return Shard{}, fmt.Errorf("%w: shard file %s: %v", ErrCorrupt, e.File, err)
	}
	return Shard{Cell: cell, Block: blk}, nil
}

// checkShardBlock cross-checks a decoded block against its manifest
// entry and the dataset-wide manifest fields.
func checkShardBlock(blk *geoblocks.GeoBlock, m *Manifest, e *ShardEntry) error {
	if blk.Level() != m.Level {
		return fmt.Errorf("%w: shard file %s block level %d, manifest says %d", ErrCorrupt, e.File, blk.Level(), m.Level)
	}
	if blk.NumTuples() != e.Rows {
		return fmt.Errorf("%w: shard file %s has %d rows, manifest says %d", ErrCorrupt, e.File, blk.NumTuples(), e.Rows)
	}
	if got := blk.Schema().Names; !equalStrings(got, m.Columns) {
		return fmt.Errorf("%w: shard file %s schema %v, manifest says %v", ErrCorrupt, e.File, got, m.Columns)
	}
	bound := blk.Inner().Domain().Bound()
	if [4]float64{bound.Min.X, bound.Min.Y, bound.Max.X, bound.Max.Y} != m.Bound {
		return fmt.Errorf("%w: shard file %s domain bound disagrees with manifest", ErrCorrupt, e.File)
	}
	return nil
}

// wrapShardErr maps a core decode failure onto the snapshot-level
// sentinels with the shard file named.
func wrapShardErr(file string, err error) error {
	if errors.Is(err, core.ErrVersion) {
		return fmt.Errorf("%w: shard file %s: %v", ErrVersion, file, err)
	}
	return fmt.Errorf("%w: shard file %s: %v", ErrCorrupt, file, err)
}

// writeShard persists one shard block into path as a format-v3 file,
// fsyncs it and returns the manifest entry (File is filled by the
// caller). The entry checksum is the file's data-region CRC32C.
func writeShard(path string, sh Shard) (ShardEntry, error) {
	data := sh.Block.EncodeV3()
	info, err := core.ProbeV3(data, int64(len(data)))
	if err != nil {
		return ShardEntry{}, err
	}
	if err := writeFileSync(path, data); err != nil {
		return ShardEntry{}, err
	}
	return ShardEntry{
		Cell:   sh.Cell.String(),
		CellID: fmt.Sprintf("%016x", uint64(sh.Cell)),
		Rows:   sh.Block.NumTuples(),
		Bytes:  int64(len(data)),
		CRC32C: info.DataCRC,
	}, nil
}

// parseCellID decodes the manifest's 16-hex-digit cell id.
func parseCellID(s string) (cellid.ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed cell id %q", s)
	}
	id := cellid.ID(v)
	if !id.IsValid() {
		return 0, fmt.Errorf("invalid cell id %q", s)
	}
	return id, nil
}

// forEachShard runs fn(i) for every shard index on a bounded worker
// pool and returns the first error. Unlike the store's CPU-bound query
// fan-out, shard IO spends most of its time blocked in read/write/fsync,
// so the pool floor is 4 regardless of GOMAXPROCS — on a 1-CPU container
// a GOMAXPROCS-sized pool would serialize the IO and leave the disk
// idle between syscalls.
func forEachShard(n int, fn func(i int) error) error {
	workers := min(max(runtime.GOMAXPROCS(0), 4), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so the entries created in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// equalStrings reports whether two string slices are element-wise equal.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

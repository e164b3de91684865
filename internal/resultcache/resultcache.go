// Package resultcache is the persistent, content-addressed memoization
// store for measurement cells, and the one resolver (Resolve) through
// which every CLI serves them. Every cell of a campaign is a pure,
// deterministic function of its content-addressed identity (the
// checkpoint.CellKey over scenario content × agent × engine × effective
// options × heap spec × scale/runs/warmup), so any two invocations with
// equal keys are interchangeable: the cache stores each cell's canonical
// JSON payload once on disk and serves every later invocation — a second
// Table I run, an overlapping sweep, a CI re-run — at near-pure-render
// cost.
//
// Layout (see docs/caching.md):
//
//	<dir>/VERSION        layout stamp ("jvmsim-resultcache-v1")
//	<dir>/ab/<64 hex>    one entry per cell key, sharded by the key's
//	                     first two hex digits
//
// Each entry holds one JSON object {"key": <hex>, "payload": <raw>},
// written to a temp file and renamed into place, so concurrent writers
// (two processes sharing a cache directory) can never expose a torn
// entry, and a killed run leaves every finished cell stored: rerunning
// on the same directory is how a campaign resumes. Reads treat any
// unreadable, truncated or key-mismatched entry as a miss, never a
// crash: a corrupted cache costs re-execution, not correctness.
//
// Eviction is a size-capped LRU pass over entry mtimes (Get touches its
// entry), run by Close when a cap is configured. Failed cells are never
// stored — Put is only reached with a complete, successful payload.
package resultcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// LayoutVersion is the on-disk layout stamp. A directory carrying a
// different stamp (or entries but no stamp at all) belongs to another
// layout generation and is refused with a remediation message instead of
// being misread.
const LayoutVersion = "jvmsim-resultcache-v1"

// versionFile is the stamp's file name inside the cache directory.
const versionFile = "VERSION"

// TempPrefix starts the name of every in-flight Put temp file in the
// cache root. A process killed between CreateTemp and Rename leaves one
// behind; Orphans lists them for the doctor's census.
const TempPrefix = ".put-"

// Mode selects how a cache participates in a run.
type Mode int

const (
	// ModeOff disables the cache entirely (Open returns nil).
	ModeOff Mode = iota
	// ModeRO serves hits but never writes: no entries, no version stamp,
	// no eviction. A missing directory is an empty cache, not an error.
	ModeRO
	// ModeRW serves hits and stores every successful cell.
	ModeRW
)

// String names the mode the way the -cache flag spells it.
func (m Mode) String() string {
	switch m {
	case ModeRO:
		return "ro"
	case ModeRW:
		return "rw"
	default:
		return "off"
	}
}

// ParseMode parses the -cache flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "ro":
		return ModeRO, nil
	case "rw":
		return ModeRW, nil
	}
	return ModeOff, fmt.Errorf("resultcache: unknown cache mode %q (want off, ro or rw)", s)
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Deduped   uint64 `json:"deduped"`
	Evictions uint64 `json:"evictions"`
	Verified  uint64 `json:"verified"`
}

// HitRate is the fraction of lookups served from disk, in percent.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total) * 100
}

// String renders the stats trailer the CLIs print after a cached run.
func (s Stats) String() string {
	return fmt.Sprintf("cache: %d hits, %d misses, %d deduped, %d evicted, %d verified (%.1f%% hit rate)",
		s.Hits, s.Misses, s.Deduped, s.Evictions, s.Verified, s.HitRate())
}

// Finish is the CLIs' end-of-run cache work: the size-capped eviction
// pass, then the stats trailer on stderr through sum (stdout stays
// byte-identical whether the run was cold or warm). A nil cache prints
// nothing.
func (c *Cache) Finish(sum *telemetry.Summary) {
	if c == nil {
		return
	}
	if err := c.Close(); err != nil {
		sum.Error(err)
	}
	sum.Stat(c.Stats())
}

// Cache is a persistent content-addressed result store rooted at one
// directory. All methods are safe for concurrent use, nil-safe (a nil
// *Cache behaves as ModeOff: every Get misses without counting, every
// Put is a no-op), and safe against concurrent use of the same directory
// by other processes.
type Cache struct {
	dir  string
	mode Mode
	// MaxBytes caps the total entry size; Close (or an explicit Evict)
	// deletes least-recently-used entries until the cap holds. Zero means
	// unbounded.
	MaxBytes int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	deduped   atomic.Uint64
	evictions atomic.Uint64
	verified  atomic.Uint64

	// tel mirrors the counters into a telemetry registry's process
	// family as they happen; nil (the default) costs one comparison.
	tel *telemetry.Recorder
}

// record is one entry file's content.
type record struct {
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// Open opens (and in rw mode initializes) the cache at dir. ModeOff
// returns a nil cache, which every method accepts. A directory stamped
// with a different layout version — or holding entries without any stamp
// — is a descriptive error telling the user how to recover, not a store
// to be misread.
func Open(dir string, mode Mode) (*Cache, error) {
	if mode == ModeOff {
		return nil, nil
	}
	if dir == "" {
		return nil, fmt.Errorf("resultcache: mode %s needs a cache directory (set -cache-dir or JVMSIM_CACHE)", mode)
	}
	if err := CheckLayout(dir); err != nil {
		return nil, err
	}
	if mode == ModeRW {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
		// Published like an entry, so a process opening the directory
		// meanwhile sees either no stamp or the whole one. Not synced: the
		// first fsync in a fresh directory costs milliseconds, which made
		// filling a fresh cache measurably slower.
		stamp := filepath.Join(dir, versionFile)
		if _, err := os.Stat(stamp); os.IsNotExist(err) {
			if err := publish(dir, stamp, []byte(LayoutVersion+"\n"), false); err != nil {
				return nil, fmt.Errorf("resultcache: stamping layout: %w", err)
			}
		}
	}
	return &Cache{dir: dir, mode: mode}, nil
}

// publish writes data to a temp file in dir (synced when sync is set)
// and renames it to dst, so a reader — in this process or another one
// sharing the directory — observes either no file or the complete one.
func publish(dir, dst string, data []byte, sync bool) error {
	tmp, err := os.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil && sync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// CheckLayout verifies dir is usable as a cache root: either absent,
// empty, or stamped with the current LayoutVersion. It is shared with
// the doctor's cache check.
func CheckLayout(dir string) error {
	if stamped, err := readStamp(dir); stamped || err != nil {
		return err
	}
	// No stamp: acceptable only while the directory holds no entries —
	// an unstamped populated directory is a pre-versioning (or foreign)
	// layout. In-flight temp files are not entries.
	list, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	entries := 0
	for _, e := range list {
		if e.Name() != versionFile && !strings.HasPrefix(e.Name(), TempPrefix) {
			entries++
		}
	}
	if entries == 0 {
		return nil
	}
	// A process creating the directory stamps it before storing anything,
	// so entries listed after a missing stamp may just mean the stamp
	// landed in between: look again before refusing.
	if stamped, err := readStamp(dir); stamped || err != nil {
		return err
	}
	return fmt.Errorf("resultcache: %s holds %d entries but no layout stamp (pre-versioning or foreign layout); delete the directory or point -cache-dir at a fresh one",
		dir, entries)
}

// readStamp reports whether dir carries a layout stamp, and an error when
// it cannot be read or names another layout generation.
func readStamp(dir string) (bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, versionFile))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return true, fmt.Errorf("resultcache: reading layout stamp: %w", err)
	}
	if got := strings.TrimSpace(string(data)); got != LayoutVersion {
		return true, fmt.Errorf("resultcache: %s holds stale cache layout %q (this build writes %q); delete the directory or point -cache-dir at a fresh one",
			dir, got, LayoutVersion)
	}
	return true, nil
}

// SetTelemetry attaches a telemetry recorder: every counter the cache
// bumps from here on is mirrored into the recorder's process family
// (the cache is shared across scenario families and cannot attribute
// finer). Nil-safe on both sides.
func (c *Cache) SetTelemetry(r *telemetry.Recorder) {
	if c != nil {
		c.tel = r
	}
}

// Dir reports the cache root ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Mode reports the cache mode (ModeOff for a nil cache).
func (c *Cache) Mode() Mode {
	if c == nil {
		return ModeOff
	}
	return c.mode
}

// entryPath shards an entry under its key's first two hex digits, the
// fanout that keeps directory listings short at millions of entries.
func (c *Cache) entryPath(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(c.dir, shard, key)
}

// Get returns the stored canonical payload for key. Every failure mode —
// absent entry, unreadable file, truncated or otherwise corrupt JSON, a
// record whose embedded key does not match — is a miss; the cache never
// turns its own damage into a caller's crash. A hit touches the entry's
// mtime so the LRU eviction pass sees recency, not just insertion order.
// Get counts nothing: whether a found record serves the cell is known
// only once the resolver has decoded it (see countLookup).
func (c *Cache) Get(key string) (json.RawMessage, bool) {
	if c == nil {
		return nil, false
	}
	path := c.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil || rec.Key != key || len(rec.Payload) == 0 {
		return nil, false
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best effort: LRU recency only
	return rec.Payload, true
}

// countLookup counts one resolved lookup as a hit or a miss, in the
// stats trailer and the telemetry process family. Nil-safe: with the
// cache off there are no lookups to count.
func (c *Cache) countLookup(hit bool) {
	if c == nil {
		return
	}
	if hit {
		c.hits.Add(1)
		c.tel.Count(telemetry.ProcessFamily, telemetry.MetricProcCacheHits, 1)
		return
	}
	c.misses.Add(1)
	c.tel.Count(telemetry.ProcessFamily, telemetry.MetricProcCacheMisses, 1)
}

// Put stores payload (a canonical JSON encoding, e.g. from
// checkpoint.CanonicalPayload) under key: the record is written to a
// temp file in the cache root and renamed into its shard, so a reader —
// in this process or another one sharing the directory — observes either
// no entry or a complete one. In ro (or off) mode Put is a no-op.
func (c *Cache) Put(key string, payload json.RawMessage) error {
	if c == nil || c.mode != ModeRW {
		return nil
	}
	line, err := json.Marshal(record{Key: key, Payload: payload})
	if err != nil {
		return fmt.Errorf("resultcache: encoding entry %s: %w", key, err)
	}
	dir := filepath.Dir(c.entryPath(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := publish(c.dir, c.entryPath(key), line, true); err != nil {
		return fmt.Errorf("resultcache: writing entry %s: %w", key, err)
	}
	c.puts.Add(1)
	c.tel.Count(telemetry.ProcessFamily, telemetry.MetricProcCachePuts, 1)
	return nil
}

// addDeduped counts singleflight/memo dedups into the cache's stats
// trailer; the dedup machinery itself lives in memo. Nil-safe so dedup
// still works (uncounted) with the cache off.
func (c *Cache) addDeduped(n uint64) {
	if c != nil {
		c.deduped.Add(n)
		c.tel.Count(telemetry.ProcessFamily, telemetry.MetricProcCacheDeduped, n)
	}
}

// addVerified counts -cache-verify re-executions that matched.
func (c *Cache) addVerified(n uint64) {
	if c != nil {
		c.verified.Add(n)
		c.tel.Count(telemetry.ProcessFamily, telemetry.MetricProcCacheVerified, n)
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Deduped:   c.deduped.Load(),
		Evictions: c.evictions.Load(),
		Verified:  c.verified.Load(),
	}
}

// entryInfo is one entry the eviction pass considers.
type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// walkEntries lists every entry file (shard depth only, never the
// version stamp or in-flight temp files — see Orphans for those).
func (c *Cache) walkEntries() ([]entryInfo, error) {
	var out []entryInfo
	shards, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(c.dir, sh.Name()))
		if err != nil {
			continue // a shard deleted underneath us is fine
		}
		for _, f := range files {
			info, err := f.Info()
			if err != nil {
				continue
			}
			out = append(out, entryInfo{
				path:  filepath.Join(c.dir, sh.Name(), f.Name()),
				size:  info.Size(),
				mtime: info.ModTime(),
			})
		}
	}
	return out, nil
}

// Evict runs the size-capped LRU pass: while the summed entry size
// exceeds MaxBytes, the least-recently-used entry (oldest mtime; Get
// touches entries) is deleted. No-op when MaxBytes is zero or the mode
// is not rw. Returns the number of entries evicted.
func (c *Cache) Evict() (int, error) {
	if c == nil || c.mode != ModeRW || c.MaxBytes <= 0 {
		return 0, nil
	}
	entries, err := c.walkEntries()
	if err != nil {
		return 0, fmt.Errorf("resultcache: evicting: %w", err)
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	if total <= c.MaxBytes {
		return 0, nil
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path // deterministic tie-break
	})
	evicted := 0
	for _, e := range entries {
		if total <= c.MaxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil {
			if os.IsNotExist(err) {
				continue // another process got there first
			}
			return evicted, fmt.Errorf("resultcache: evicting %s: %w", e.path, err)
		}
		total -= e.size
		evicted++
	}
	c.evictions.Add(uint64(evicted))
	c.tel.Count(telemetry.ProcessFamily, telemetry.MetricProcCacheEvicted, uint64(evicted))
	return evicted, nil
}

// Len walks the store and reports entry count and summed size —
// diagnostic use (doctor, tests, the stats trailer's eviction decision).
func (c *Cache) Len() (count int, bytes int64, err error) {
	if c == nil {
		return 0, 0, nil
	}
	entries, err := c.walkEntries()
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		bytes += e.size
	}
	return len(entries), bytes, nil
}

// Orphans counts the temp files Put left in the cache root of dir and
// their summed size: each is a write whose process died between creating
// the temp file and renaming it into its shard. They hold no entry — the
// cell re-runs and stores itself — and Len, eviction and -cache-max-mb
// never count them, so only this census sees the space they take.
// Deleting them is safe whenever no process is writing to the cache.
func Orphans(dir string) (count int, bytes int64, err error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, fmt.Errorf("resultcache: %w", err)
	}
	for _, f := range files {
		if f.IsDir() || !strings.HasPrefix(f.Name(), TempPrefix) {
			continue
		}
		count++
		if info, err := f.Info(); err == nil {
			bytes += info.Size()
		}
	}
	return count, bytes, nil
}

// Close runs the eviction pass (when a cap is set). The cache holds no
// file handles between calls, so Close is about shrinking to cap, not
// releasing resources.
func (c *Cache) Close() error {
	_, err := c.Evict()
	return err
}

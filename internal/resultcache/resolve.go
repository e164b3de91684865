package resultcache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// Cell names one unit of work for Resolve.
type Cell struct {
	// Key is the cell's checkpoint.CellKey. Each caller derives it from
	// everything that shapes the result, including a payload-kind
	// discriminator when the result type differs between callers
	// sharing a directory.
	Key string
	// Name ("scenario/agent") and Family label the cell span, the
	// per-family metrics and decode errors.
	Name, Family string
}

// Resolver serves cells through the result layers. Build one per
// campaign or CLI invocation and share it across the worker pool: the
// in-process memo it carries is what makes identical cells execute once.
// The zero value resolves with no cache and no telemetry.
type Resolver struct {
	// Cache is the persistent store; nil resolves every cell by
	// execution (still deduplicated in-process).
	Cache *Cache
	// VerifyN re-executes a deterministic 1-in-N sample of cache hits
	// and fails on a byte mismatch; 0 disables (see -cache-verify).
	VerifyN int
	// Tel records the cell span, the per-family cell_wall_ns and
	// cell_alloc_bytes histograms and the per-family source counter. Nil
	// (telemetry off) starts no span and reads no clock.
	Tel *telemetry.Recorder

	memo memo
}

// The sources a cell can be served from, recorded as the cell span's
// "source" arg and counted per family under sourceMetric.
const (
	sourceRun    = "run"
	sourceCache  = "cache"
	sourceVerify = "verify"
	sourceDedup  = "dedup"
)

var sourceMetric = map[string]string{
	sourceRun:    telemetry.MetricRuns,
	sourceCache:  telemetry.MetricCacheHits,
	sourceVerify: telemetry.MetricVerified,
	sourceDedup:  telemetry.MetricDedupHits,
}

// Resolve produces one cell's result, cheapest source first:
//
//  1. the cache — a hit skips execution entirely, except for the
//     deterministic -cache-verify sample, which re-executes and fails
//     loudly on any byte mismatch;
//  2. the in-process memo — identical cells execute once, whether they
//     arrive together (singleflight) or in sequence; a follower whose
//     leader failed runs its own attempt, so fault injection and retry
//     accounting stay cell-local;
//  3. exec, run under the context Resolve hands it (which carries the
//     cell span), then Put of its result's canonical JSON payload.
//
// Every caller — executing leader, dedup follower, cache hit — decodes
// its T from the same canonical JSON bytes, so output is byte-identical
// no matter which source served the cell. A cache record that does not
// decode into T is a miss, and the stats count it as one: hits and misses
// are counted here, after the decode, never by Cache.Get. Only
// successful payloads reach Put, and a Put failure is runner.Transient:
// an unwritable cache directory spends retries instead of failing the
// measurement outright.
//
// exec is a separate argument, not a field of Cell, so that it is only
// ever called: a closure that cannot escape keeps what it captures (a
// campaign's Config, say) off the heap on the cache-hit path.
func Resolve[T any](ctx context.Context, r *Resolver, c Cell, exec func(context.Context) (T, error)) (T, error) {
	if r.Tel == nil {
		v, _, err := resolve(ctx, r, c, exec)
		return v, err
	}
	ctx, span := r.Tel.StartSpan(ctx, telemetry.CatCampaign, "cell")
	start, alloc0 := sampleHost()
	v, source, err := resolve(ctx, r, c, exec)
	end, alloc1 := sampleHost()
	var alloc uint64
	if alloc1 > alloc0 {
		alloc = alloc1 - alloc0
	}
	r.Tel.Observe(c.Family, telemetry.MetricCellWallNanos, float64(end.Sub(start).Nanoseconds()))
	r.Tel.Observe(c.Family, telemetry.MetricCellAllocBytes, float64(alloc))
	if err == nil {
		r.Tel.Count(c.Family, sourceMetric[source], 1)
	}
	if span != nil {
		span.Arg("cell", c.Name).Arg("family", c.Family).Arg("alloc_bytes", alloc)
		if err == nil {
			span.Arg("source", source)
		}
		span.End()
	}
	return v, err
}

// resolve is Resolve without telemetry; the returned source names the
// layer that served the cell and is meaningful only on success.
func resolve[T any](ctx context.Context, r *Resolver, c Cell, exec func(context.Context) (T, error)) (T, string, error) {
	var zero T
	execute := func() (json.RawMessage, error) {
		v, err := exec(ctx)
		if err != nil {
			return nil, err
		}
		return checkpoint.CanonicalPayload(v)
	}
	publish := func() (json.RawMessage, error) {
		raw, err := execute()
		if err != nil {
			return nil, err
		}
		if err := r.Cache.Put(c.Key, raw); err != nil {
			return nil, runner.Transient(err)
		}
		return raw, nil
	}

	if raw, ok := r.Cache.Get(c.Key); ok {
		if verifySample(c.Key, r.VerifyN) {
			r.Cache.countLookup(true)
			fresh, err := execute()
			if err != nil {
				return zero, "", err
			}
			if err := r.Cache.verify(c.Key, raw, fresh); err != nil {
				return zero, "", err
			}
			v, err := decode[T](fresh, c.Name, sourceVerify)
			return v, sourceVerify, err
		}
		if v, err := decode[T](raw, c.Name, sourceCache); err == nil {
			r.Cache.countLookup(true)
			return v, sourceCache, nil
		}
	}
	// Absent, damaged, or not a T: the cell executes, so it is a miss.
	r.Cache.countLookup(false)

	raw, shared, err := r.memo.do(c.Key, publish)
	if shared && err != nil {
		// The identical in-flight cell failed; its error belongs to it,
		// not to this one.
		raw, err = publish()
		shared = false
	}
	if err != nil {
		return zero, "", err
	}
	source := sourceRun
	if shared {
		r.Cache.addDeduped(1)
		source = sourceDedup
	}
	v, err := decode[T](raw, c.Name, source)
	return v, source, err
}

// decode unmarshals a canonical payload into a fresh T. A JSON null is
// refused like any other damage: no cell's payload encodes to null, and
// decoding one would hand the caller a nil result without an error.
func decode[T any](raw json.RawMessage, name, source string) (T, error) {
	var v T
	if bytes.Equal(raw, []byte("null")) {
		return v, fmt.Errorf("resultcache: empty %s payload for %s", source, name)
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, fmt.Errorf("resultcache: corrupt %s payload for %s: %w", source, name, err)
	}
	return v, nil
}

// sampleHost reads the host clock and the process-wide Go-heap
// allocation counter (runtime/metrics, no stop-the-world). Cells measured
// concurrently attribute each other's allocations to whichever cell
// reads the delta, so cell_alloc_bytes is exact at -parallel 1 and an
// upper bound above. A variable so tests can prove the telemetry-off
// path never calls it.
var sampleHost = func() (time.Time, uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var alloc uint64
	if s[0].Value.Kind() == metrics.KindUint64 {
		alloc = s[0].Value.Uint64()
	}
	return time.Now(), alloc
}

// VerifyError is the loud failure of a -cache-verify re-execution: the
// cached payload and the fresh execution's canonical bytes differ, which
// means either the store was tampered with or a supposedly deterministic
// cell is not. It is never swallowed into a miss.
type VerifyError struct {
	Key    string
	Cached json.RawMessage
	Fresh  json.RawMessage
}

// Error renders the mismatch with both payload sizes; the payloads
// themselves can be large, so the message carries lengths, not bodies.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("resultcache: verify mismatch for %s: cached payload (%d bytes) != re-executed payload (%d bytes); the cache entry is wrong or the cell is nondeterministic — delete the cache directory and re-run",
		e.Key, len(e.Cached), len(e.Fresh))
}

// verifySample reports whether a hit on key falls in the deterministic
// 1-in-n verification sample: the FNV-64a hash of the key modulo n.
// Sampling by key (not by arrival order) makes the sample identical
// across runs, parallelism levels and engines. n <= 0 disables, n == 1
// verifies every hit.
func verifySample(key string, n int) bool {
	if n <= 0 {
		return false
	}
	if n == 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()%uint64(n) == 0
}

// verify compares a cached payload against a fresh canonical encoding,
// counting a match and returning a *VerifyError on mismatch.
func (c *Cache) verify(key string, cached, fresh json.RawMessage) error {
	if !bytes.Equal(cached, fresh) {
		return &VerifyError{Key: key, Cached: cached, Fresh: fresh}
	}
	c.addVerified(1)
	return nil
}

// memo is the per-process dedup layer: the first do for a key runs fn
// exactly once; concurrent callers with the same key wait for that
// in-flight execution (singleflight), and later callers are served from
// the completed result without re-running — so identical cells appearing
// more than once in one campaign (overlapping sweeps, duplicated
// scenario × agent pairs) execute exactly once per process whether they
// arrive together or in sequence.
//
// Failures are never memoized: a leader's error is returned to every
// waiter of that flight, the key is forgotten, and the next do runs fn
// again — one attempt's transient failure (an injected fault, a briefly
// unwritable cache) must not poison an identical later cell.
type memo struct {
	mu sync.Mutex
	m  map[string]*flight
}

// flight is one in-flight or completed execution.
type flight struct {
	done    chan struct{}
	payload json.RawMessage
	err     error
}

// do runs fn once per key. The returned payload is the canonical JSON
// produced by fn; shared reports whether this call was served by another
// execution (waited on it or read its memoized result) rather than
// running fn itself. Callers must treat a shared payload as read-only
// and decode their own copy.
func (g *memo) do(key string, fn func() (json.RawMessage, error)) (payload json.RawMessage, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.payload, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	completed := false
	defer func() {
		// A panicking fn (a simulated-VM trap escaping a cell) must not
		// strand waiters on a never-closed channel: publish an error,
		// forget the flight, and let the panic propagate to the runner's
		// isolation layer. Waiters re-execute on their own.
		if !completed {
			f.err = fmt.Errorf("resultcache: deduplicated execution for %s panicked", key)
		}
		if f.err != nil {
			// Forget failed flights before waking waiters: an identical
			// later cell deserves its own attempt.
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
		}
		close(f.done)
	}()
	f.payload, f.err = fn()
	completed = true
	return f.payload, false, f.err
}

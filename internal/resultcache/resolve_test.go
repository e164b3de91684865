package resultcache

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

// returning is an execution that returns v and counts its calls.
func returning(v int, calls *atomic.Int64) func(context.Context) (int, error) {
	return func(context.Context) (int, error) {
		calls.Add(1)
		return v, nil
	}
}

// testCell names a cell of the resolver tests.
func testCell(key string) Cell { return Cell{Key: key, Name: "test/cell", Family: "test"} }

// followLeader resolves follower while a leader with the same key is in
// flight, then fails the leader with leaderErr. The leader holds its
// flight open until the follower has missed the cache (its Get is
// counted) and has had time to queue on the flight. Returns both errors
// and the follower's value.
func followLeader(t *testing.T, r *Resolver, key string, follower func(context.Context) (int, error), leaderErr error) (int, error, error) {
	t.Helper()
	leader := func(context.Context) (int, error) {
		deadline := time.Now().Add(5 * time.Second)
		for r.Cache.Stats().Misses < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // from the follower's Get to its wait on the flight
		return 0, leaderErr
	}
	leaderDone := make(chan error, 1)
	go func() {
		_, err := Resolve(context.Background(), r, testCell(key), leader)
		leaderDone <- err
	}()
	for r.Cache.Stats().Misses < 1 {
		time.Sleep(time.Millisecond)
	}
	v, err := Resolve(context.Background(), r, testCell(key), follower)
	return v, <-leaderDone, err
}

// TestResolvePutErrorIsTransient pins that an unwritable cache fails a
// cell transiently — so the runner retries it — on both publish paths:
// the leader's, and the re-execution of a follower whose leader failed.
func TestResolvePutErrorIsTransient(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "unwritable")
	// A plain file where the key's shard directory belongs makes every
	// Put of the key fail, even for root.
	if err := os.WriteFile(filepath.Join(dir, key[:2]), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64

	_, err = Resolve(context.Background(), &Resolver{Cache: c}, testCell(key), returning(1, &calls))
	if err == nil || !runner.IsTransient(err) {
		t.Fatalf("leader Put failure returned %v, want a transient error", err)
	}

	c, _ = Open(dir, ModeRW) // fresh counters for followLeader
	boom := errors.New("leader failed")
	_, leaderErr, err := followLeader(t, &Resolver{Cache: c}, key, returning(2, &calls), boom)
	if !errors.Is(leaderErr, boom) {
		t.Fatalf("leader returned %v, want its own failure", leaderErr)
	}
	if err == nil || !runner.IsTransient(err) {
		t.Fatalf("follower re-execution's Put failure returned %v, want a transient error", err)
	}
}

// TestResolveFollowerPublishesOnce pins that a follower re-executing
// after its leader failed stores its payload, exactly once, so the next
// run is served from the cache.
func TestResolveFollowerPublishesOnce(t *testing.T) {
	c, err := Open(t.TempDir(), ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "follower")
	var calls atomic.Int64
	v, leaderErr, err := followLeader(t, &Resolver{Cache: c}, key, returning(42, &calls), errors.New("leader failed"))
	if err != nil || v != 42 {
		t.Fatalf("follower got %d, %v; want 42, nil", v, err)
	}
	if leaderErr == nil {
		t.Fatal("leader's failure was lost")
	}
	if calls.Load() != 1 {
		t.Fatalf("follower executed %d times, want 1", calls.Load())
	}
	if s := c.Stats(); s.Puts != 1 {
		t.Fatalf("%d puts, want exactly 1", s.Puts)
	}
	v, err = Resolve(context.Background(), &Resolver{Cache: c}, testCell(key), returning(-1, &calls))
	if err != nil || v != 42 || calls.Load() != 1 {
		t.Fatalf("rerun got %d, %v after %d executions; want the stored 42 without executing", v, err, calls.Load())
	}
}

// TestResolveUndecodableRecordIsMiss pins that a well-formed record whose
// payload does not decode into the cell's type — or is a bare null — is
// re-executed and overwritten, never returned.
func TestResolveUndecodableRecordIsMiss(t *testing.T) {
	c, err := Open(t.TempDir(), ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	for i, payload := range []string{`"text"`, `null`} {
		key := testKey(t, i)
		if err := c.Put(key, json.RawMessage(payload)); err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		v, err := Resolve(context.Background(), &Resolver{Cache: c}, testCell(key), returning(7, &calls))
		if err != nil || v != 7 || calls.Load() != 1 {
			t.Fatalf("payload %s: got %d, %v after %d executions; want 7 from one execution", payload, v, err, calls.Load())
		}
		if raw, _ := c.Get(key); string(raw) != "7" {
			t.Fatalf("payload %s: entry now %s, want the re-executed 7", payload, raw)
		}
	}
}

// TestResolveHitAccounting pins that a lookup counts as a hit only when
// its record decodes into the cell's type: a planted record that does
// not is re-executed and re-stored, and the stats trailer and the
// telemetry process family both report it as a miss.
func TestResolveHitAccounting(t *testing.T) {
	dir := t.TempDir()
	planter, err := Open(dir, ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "accounting")
	if err := planter.Put(key, json.RawMessage(`"text"`)); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(false)
	c.SetTelemetry(tel)
	var calls atomic.Int64
	if v, err := Resolve(context.Background(), &Resolver{Cache: c}, testCell(key), returning(7, &calls)); err != nil || v != 7 {
		t.Fatalf("got %d, %v; want 7", v, err)
	}
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 1 || s.Puts != 1 {
		t.Fatalf("stats %+v, want 0 hits / 1 miss / 1 put", s)
	}
	if got := s.String(); !strings.HasPrefix(got, "cache: 0 hits, 1 misses,") {
		t.Fatalf("trailer %q", got)
	}
	m := tel.Metrics()
	if h, ms := m.Counter(telemetry.ProcessFamily, telemetry.MetricProcCacheHits), m.Counter(telemetry.ProcessFamily, telemetry.MetricProcCacheMisses); h != 0 || ms != 1 {
		t.Fatalf("process counters: %d hits, %d misses; want 0, 1", h, ms)
	}
	// The re-stored record now serves the cell, and counts as the hit.
	if v, err := Resolve(context.Background(), &Resolver{Cache: c}, testCell(key), returning(-1, &calls)); err != nil || v != 7 || calls.Load() != 1 {
		t.Fatalf("rerun got %d, %v after %d executions", v, err, calls.Load())
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after rerun stats %+v, want 1 hit / 1 miss", s)
	}
}

// TestResolveQuietPath pins that with telemetry off the resolver starts
// no span and never samples the host clock or runtime/metrics: serving a
// memoized cell allocates exactly what the bare resolution does (its
// JSON decode), so observability adds 0 allocs/op when off — the same
// contract telemetry's own disabled fast path keeps.
func TestResolveQuietPath(t *testing.T) {
	old := sampleHost
	defer func() { sampleHost = old }()
	var samples atomic.Int64
	sampleHost = func() (time.Time, uint64) {
		samples.Add(1)
		return time.Time{}, 0
	}
	r := &Resolver{}
	cell := testCell("quiet")
	exec := func(context.Context) (struct{}, error) { return struct{}{}, nil }
	ctx := context.Background()
	if _, err := Resolve(ctx, r, cell, exec); err != nil {
		t.Fatal(err)
	}
	bare := testing.AllocsPerRun(100, func() {
		if _, _, err := resolve(ctx, r, cell, exec); err != nil {
			t.Fatal(err)
		}
	})
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Resolve(ctx, r, cell, exec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != bare {
		t.Errorf("memoized resolve with telemetry off: %.1f allocs/op, want the bare resolution's %.1f", allocs, bare)
	}
	if n := samples.Load(); n != 0 {
		t.Errorf("telemetry-off resolver sampled the host %d times", n)
	}
}

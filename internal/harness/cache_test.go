package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/jit"
	"repro/internal/resultcache"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
)

// openTestCache opens a fresh rw cache under t's temp directory.
func openTestCache(t *testing.T, dir string) *resultcache.Cache {
	t.Helper()
	c, err := resultcache.Open(dir, resultcache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runCachedCampaign runs the given scenarios through a campaign backed
// by cache and returns the result with its rendered text.
func runCachedCampaign(t *testing.T, suite []scenarios.Scenario, cfg Config) (*CampaignResult, string) {
	t.Helper()
	camp := Campaign{Scenarios: suite, Config: cfg}
	res, err := camp.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	text, err := RenderCampaign(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, text
}

// TestCampaignCacheColdWarmByteIdentical is the core cache contract at
// scale 8: a warm run serves every cell from disk with zero misses and
// renders byte-identically to the cold run — per engine, sequential and
// parallel, with and without the verify sample.
func TestCampaignCacheColdWarmByteIdentical(t *testing.T) {
	suite := robustScenarios(t)
	for _, engine := range []jit.Engine{jit.EngineInterp, jit.EngineJIT} {
		for _, parallelism := range []int{1, 4} {
			t.Run(engine.String()+"-par"+string(rune('0'+parallelism)), func(t *testing.T) {
				dir := t.TempDir()
				cfg := DefaultConfig()
				cfg.Runs = 1
				cfg.Scale = 8
				cfg.Parallelism = parallelism
				cfg.Opts.Tier = engine
				cfg.Cache = openTestCache(t, dir)
				coldRes, coldText := runCachedCampaign(t, suite, cfg)
				coldStats := cfg.Cache.Stats()
				cells := len(coldRes.Rows)
				if coldStats.Puts != uint64(cells) || coldStats.Hits != 0 {
					t.Fatalf("cold stats %+v, want %d puts and 0 hits", coldStats, cells)
				}

				cfg.Cache = openTestCache(t, dir)
				warmRes, warmText := runCachedCampaign(t, suite, cfg)
				warmStats := cfg.Cache.Stats()
				if warmStats.Hits != uint64(cells) || warmStats.Misses != 0 {
					t.Fatalf("warm stats %+v, want %d hits and 0 misses", warmStats, cells)
				}
				if warmText != coldText {
					t.Fatalf("warm output diverged from cold:\n--- cold ---\n%s--- warm ---\n%s", coldText, warmText)
				}
				if !reflect.DeepEqual(coldRes.Rows, warmRes.Rows) {
					t.Fatal("warm rows diverged from cold beyond rendering")
				}

				// A full verify pass re-executes every hit and still renders
				// identically.
				cfg.Cache = openTestCache(t, dir)
				cfg.CacheVerify = 1
				_, verifyText := runCachedCampaign(t, suite, cfg)
				if verifyText != coldText {
					t.Fatal("verified warm output diverged from cold")
				}
				if vs := cfg.Cache.Stats(); vs.Verified != uint64(cells) {
					t.Fatalf("verify stats %+v, want %d verified", vs, cells)
				}
			})
		}
	}
}

// TestPaperTablesGoldenWithCache pins the warm path against the
// pre-refactor golden: the paper tables rendered from a cold cache and
// again from the warm cache are both byte-identical to the golden.
func TestPaperTablesGoldenWithCache(t *testing.T) {
	golden, err := os.ReadFile("testdata/paper_tables_scale8.golden")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	render := func() string {
		cfg := DefaultConfig()
		cfg.Runs = 1
		cfg.Scale = 8
		cfg.Cache = openTestCache(t, dir)
		rows1, err := TableI(cfg)
		if err != nil {
			t.Fatal(err)
		}
		geo, err := GeoMeanRow(rows1)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := RenderTableI(rows1, geo)
		if err != nil {
			t.Fatal(err)
		}
		rows2, err := TableII(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := RenderTableII(rows2)
		if err != nil {
			t.Fatal(err)
		}
		return t1 + "\n" + t2
	}
	cold := render()
	if cold != string(golden) {
		t.Fatalf("cold cached tables diverged from golden:\n%s", cold)
	}
	warm := render()
	if warm != string(golden) {
		t.Fatalf("warm cached tables diverged from golden:\n%s", warm)
	}
}

// TestCampaignCacheVerifyDetectsTamper proves -cache-verify is loud: a
// cache entry rewritten with a plausible but wrong payload fails its
// cell with a VerifyError instead of silently serving the tampered row.
func TestCampaignCacheVerifyDetectsTamper(t *testing.T) {
	suite := robustScenarios(t)[:1]
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Runs = 1
	cfg.Scale = 8
	cfg.Cache = openTestCache(t, dir)
	if _, err := (Campaign{Scenarios: suite, Config: cfg}).Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}

	// Tamper every entry: bump a Measurement field but keep the record
	// (and its embedded key) valid, so plain warm runs would happily
	// serve the forgery.
	tampered := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "VERSION" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec struct {
			Key     string          `json:"key"`
			Payload json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		var m Measurement
		if err := json.Unmarshal(rec.Payload, &m); err != nil {
			return err
		}
		m.MedianCycles += 1
		forged, err := json.Marshal(m)
		if err != nil {
			return err
		}
		rec.Payload = forged
		out, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		tampered++
		return os.WriteFile(path, out, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if tampered == 0 {
		t.Fatal("no cache entries to tamper with")
	}

	cfg.Cache = openTestCache(t, dir)
	cfg.CacheVerify = 1
	res, err := (Campaign{Scenarios: suite, Config: cfg}).Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != len(res.Rows) {
		t.Fatalf("%d of %d tampered cells failed, want all", res.Failed, len(res.Rows))
	}
	for _, r := range res.Rows {
		var ve *resultcache.VerifyError
		if !asVerifyError(r.Err, &ve) {
			t.Fatalf("row %s/%s failed with %v, want *VerifyError", r.Scenario.Name(), r.AgentName, r.Err)
		}
	}
	// Without verification the tampered rows would have been served: the
	// forgery is detectable only because -cache-verify re-executed.
	cfg.Cache = openTestCache(t, dir)
	cfg.CacheVerify = 0
	res2, err := (Campaign{Scenarios: suite, Config: cfg}).Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Failed != 0 {
		t.Fatalf("unverified run failed %d cells; tampering should be invisible without -cache-verify", res2.Failed)
	}
}

// asVerifyError unwraps r's error chain looking for a *VerifyError;
// errors.As via a helper keeps the call sites readable.
func asVerifyError(err error, target **resultcache.VerifyError) bool {
	for err != nil {
		if ve, ok := err.(*resultcache.VerifyError); ok {
			*target = ve
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestCampaignCacheTransientRetryCachesOnce proves retried transient
// failures never publish partial state: the cell is stored exactly once,
// after its successful attempt, and a warm rerun is byte-identical.
func TestCampaignCacheTransientRetryCachesOnce(t *testing.T) {
	suite := robustScenarios(t)
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Runs = 1
	cfg.Scale = 8
	cfg.MaxRetries = 3
	cfg.Hook = faultinject.New(1, faultinject.Fault{
		Kind: faultinject.Transient, Match: suite[0].Name(), Attempts: 2,
	}).Hook()
	cfg.Cache = openTestCache(t, dir)
	coldRes, coldText := runCachedCampaign(t, suite, cfg)
	if coldRes.Failed != 0 {
		t.Fatalf("%d cells failed despite retries", coldRes.Failed)
	}
	if s := cfg.Cache.Stats(); s.Puts != uint64(len(coldRes.Rows)) {
		t.Fatalf("stats %+v, want exactly %d puts (one per cell, retries excluded)", s, len(coldRes.Rows))
	}

	cfg.Cache = openTestCache(t, dir)
	cfg.Hook = nil
	_, warmText := runCachedCampaign(t, suite, cfg)
	if warmText != coldText {
		t.Fatal("warm output diverged from the retried cold run")
	}
	if s := cfg.Cache.Stats(); s.Misses != 0 {
		t.Fatalf("warm stats %+v, want 0 misses", s)
	}
}

// TestCampaignCacheFailedRowsNeverCached proves an EmitFailed row leaves
// no cache entry behind: rerunning with the fault still active fails
// again (a cached forgery would have masked it), and rerunning without
// the fault misses — then measures — exactly that cell.
func TestCampaignCacheFailedRowsNeverCached(t *testing.T) {
	suite := robustScenarios(t)
	badKey := suite[0].Name() + "/ipa"
	dir := t.TempDir()
	newCfg := func(inject bool) Config {
		cfg := DefaultConfig()
		cfg.Runs = 1
		cfg.Scale = 8
		if inject {
			cfg.Hook = faultinject.New(1, faultinject.Fault{Kind: faultinject.Panic, Match: badKey}).Hook()
		}
		cfg.Cache = openTestCache(t, dir)
		return cfg
	}

	cfg := newCfg(true)
	res, _ := runCachedCampaign(t, suite, cfg)
	if res.Failed != 1 {
		t.Fatalf("cold run failed %d cells, want the 1 injected", res.Failed)
	}
	if s := cfg.Cache.Stats(); s.Puts != uint64(len(res.Rows)-1) {
		t.Fatalf("stats %+v: the failed cell must not be stored", s)
	}

	cfg = newCfg(true)
	res2, _ := runCachedCampaign(t, suite, cfg)
	if res2.Failed != 1 {
		t.Fatalf("warm run with the fault failed %d cells, want 1 — a cached entry masked the failure", res2.Failed)
	}

	cfg = newCfg(false)
	res3, text3 := runCachedCampaign(t, suite, cfg)
	if res3.Failed != 0 {
		t.Fatalf("fault removed but %d cells still failed", res3.Failed)
	}
	if s := cfg.Cache.Stats(); s.Misses != 1 || s.Hits != uint64(len(res3.Rows)-1) {
		t.Fatalf("stats %+v, want exactly 1 miss (the previously failed cell) and %d hits", s, len(res3.Rows)-1)
	}
	// The healed run matches a from-scratch run bit for bit.
	clean := newCfg(false)
	clean.Cache = openTestCache(t, t.TempDir())
	_, cleanText := runCachedCampaign(t, suite, clean)
	if text3 != cleanText {
		t.Fatal("healed run diverged from a from-scratch run")
	}
}

// TestCampaignDedupExecutesOnce proves identical cells in one campaign
// execute once per process: a duplicated scenario produces equal rows
// from a single simulation, sequentially (memoized result) and in
// parallel (singleflight), with or without a persistent cache behind it.
//
// Every execution stores its payload exactly once, so Puts is the
// ground-truth execution count: duplicates that executed would double
// it. (Without a cache the dedup machinery is the same memo, pinned
// directly by the resultcache unit tests; here only row equality is
// observable.)
func TestCampaignDedupExecutesOnce(t *testing.T) {
	suite := robustScenarios(t)[:1]
	doubled := []scenarios.Scenario{suite[0], suite[0]}
	for _, withCache := range []bool{false, true} {
		for _, parallelism := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Runs = 1
			cfg.Scale = 8
			cfg.Parallelism = parallelism
			if withCache {
				cfg.Cache = openTestCache(t, t.TempDir())
			}
			res, _ := runCachedCampaign(t, doubled, cfg)
			if res.Failed != 0 {
				t.Fatalf("cache=%v par=%d: %d cells failed", withCache, parallelism, res.Failed)
			}
			half := len(res.Rows) / 2
			for i := 0; i < half; i++ {
				a, b := res.Rows[i], res.Rows[i+half]
				if !reflect.DeepEqual(a.M, b.M) {
					t.Fatalf("cache=%v par=%d: duplicated cell %s/%s rows diverged", withCache, parallelism, a.Scenario.Name(), a.AgentName)
				}
			}
			if withCache {
				s := cfg.Cache.Stats()
				if s.Puts != uint64(half) {
					t.Fatalf("cache=%v par=%d: %d puts for %d unique cells — duplicates executed", withCache, parallelism, s.Puts, half)
				}
				if s.Deduped+s.Hits == 0 {
					t.Fatalf("cache=%v par=%d: stats %+v show neither dedup nor hit for the duplicate", withCache, parallelism, s)
				}
			}
		}
	}
}

// TestCampaignCellStats proves the per-cell host stats reach -metrics and
// -trace: each cell span carries its source and alloc_bytes, each family
// gets one cell_wall_ns and one cell_alloc_bytes sample per cell, and
// none of it perturbs the cached payload — a warm run, whose spans say
// "cache", still matches the cold rendering byte for byte.
func TestCampaignCellStats(t *testing.T) {
	suite := robustScenarios(t)[:1]
	dir := t.TempDir()
	run := func() (*CampaignResult, *telemetry.Recorder) {
		cfg := DefaultConfig()
		cfg.Runs = 1
		cfg.Scale = 8
		cfg.Cache = openTestCache(t, dir)
		cfg.Telemetry = telemetry.New(true)
		res, err := (Campaign{Scenarios: suite, Config: cfg}).Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, cfg.Telemetry
	}
	// cellSpans returns the source arg of every cell span, checking each
	// carries an alloc_bytes arg.
	cellSpans := func(tel *telemetry.Recorder) []string {
		var buf bytes.Buffer
		if err := tel.WriteTrace(&buf, "test"); err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
			t.Fatal(err)
		}
		var sources []string
		for _, ev := range trace.TraceEvents {
			if ev.Name != "cell" {
				continue
			}
			if _, ok := ev.Args["alloc_bytes"]; !ok {
				t.Fatalf("cell span without alloc_bytes: %v", ev.Args)
			}
			sources = append(sources, fmt.Sprint(ev.Args["source"]))
		}
		return sources
	}
	checkHists := func(tel *telemetry.Recorder, cells int) {
		d := tel.Metrics().Dump("test")
		fd := d.Families[suite[0].Family]
		for _, name := range []string{telemetry.MetricCellWallNanos, telemetry.MetricCellAllocBytes} {
			if h, ok := fd.Histograms[name]; !ok || h.Count != uint64(cells) {
				t.Fatalf("histogram %s has %+v, want %d samples", name, fd.Histograms[name], cells)
			}
		}
	}

	cold, coldTel := run()
	cells := len(cold.Rows)
	for _, src := range cellSpans(coldTel) {
		if src != "run" {
			t.Fatalf("cold cell source %q, want run", src)
		}
	}
	checkHists(coldTel, cells)
	if d := coldTel.Metrics().Dump("test"); d.Families[suite[0].Family].Histograms[telemetry.MetricCellAllocBytes].Sum <= 0 {
		t.Fatal("executed cells recorded no allocation")
	}

	warm, warmTel := run()
	sources := cellSpans(warmTel)
	if len(sources) != cells {
		t.Fatalf("%d warm cell spans, want %d", len(sources), cells)
	}
	for _, src := range sources {
		if src != "cache" {
			t.Fatalf("warm cell source %q, want cache", src)
		}
	}
	checkHists(warmTel, cells)
	coldText, err := RenderCampaign(cold)
	if err != nil {
		t.Fatal(err)
	}
	warmText, err := RenderCampaign(warm)
	if err != nil {
		t.Fatal(err)
	}
	if coldText != warmText {
		t.Fatal("host telemetry leaked into the rendering")
	}
}

// benchCacheCampaign is the ledger's cache benchmark body: the full
// scenario catalogue under every default agent at scale 8 — the same
// matrix cold and warm, so the pair's ratio is the cache's speedup.
func benchCacheCampaign(b *testing.B, dir string) {
	b.Helper()
	scns, err := scenarios.Profile("all")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Runs = 1
	cfg.Scale = 8
	cfg.Parallelism = 1
	cache, err := resultcache.Open(dir, resultcache.ModeRW)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Cache = cache
	camp := Campaign{Scenarios: scns, Config: cfg}
	if _, err := camp.Run(context.Background(), nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCampaignCacheCold measures the full campaign with an empty
// cache every iteration: simulation cost plus the store's write path.
func BenchmarkCampaignCacheCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "cachebench-*")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		benchCacheCampaign(b, dir)
		b.StopTimer()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

// BenchmarkCampaignCacheWarm measures the same campaign served entirely
// from a pre-warmed cache; the acceptance floor is a 5x speedup over
// BenchmarkCampaignCacheCold (gated in CI via benchtrend's ratio pairs).
func BenchmarkCampaignCacheWarm(b *testing.B) {
	dir := b.TempDir()
	benchCacheCampaign(b, dir) // prewarm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCacheCampaign(b, dir)
	}
}

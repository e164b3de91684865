// Package cli is the command-line surface jvmsim, jprof and tables
// share: one registration of every flag two or more of them take
// (Register), one step that turns those flags into a run environment
// (Open), and one driver that runs a rendered-text report per scenario
// through the result cache and prints them in argument order (Reports).
//
// The input checks the flags need keep one wording everywhere: a tenured
// heap without a nursery, the cache mode and $JVMSIM_CACHE precedence,
// negative -cache-verify or -cache-max-mb, and an unknown engine are
// rejected by Open before any cell runs.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Flags holds the parsed values of the shared flags. The exported fields
// are the ones a command reads before (or instead of) Open.
type Flags struct {
	// Scenario is the -scenario file, loaded into the registry by Load.
	Scenario string
	// Trace and Metrics are the -trace and -metrics output paths.
	Trace, Metrics string
	// Scale is the -scale iteration divisor.
	Scale int

	engine      string
	heap        vm.HeapConfig
	parallel    int
	cellTimeout time.Duration
	maxRetries  int
	cacheDir    string
	cacheMode   string
	cacheVerify int
	cacheMaxMB  int
}

// Register registers the shared flag set on fs: -engine, the -heap-*
// sizing flags, -scenario, -scale, -parallel, -cell-timeout,
// -max-retries, the -cache* flags, -trace and -metrics. The returned
// values are valid after fs.Parse.
func Register(fs *flag.FlagSet) *Flags {
	f := RegisterSearch(fs)
	fs.StringVar(&f.engine, "engine", "interp",
		"execution engine: "+strings.Join(jit.Engines(), ", "))
	fs.Uint64Var(&f.heap.NurseryWords, "heap-nursery", 0,
		"nursery occupancy threshold in `words` that triggers a minor GC (0 = unbounded legacy heap, no collection)")
	fs.Uint64Var(&f.heap.TenuredWords, "heap-tenured", 0,
		"tenured occupancy threshold in `words` that triggers a major GC (0 = unbounded tenured space)")
	fs.IntVar(&f.heap.TenureAge, "heap-tenure-age", 0,
		"minor collections an array must survive before tenuring (0 = default)")
	fs.Uint64Var(&f.heap.LimitWords, "heap-limit", 0,
		"hard cap on live heap occupancy in `words`; exceeding it after collection throws a simulated OutOfMemoryError (0 = unlimited)")
	fs.IntVar(&f.Scale, "scale", 1, "iteration divisor (1 = full calibrated size)")
	fs.IntVar(&f.parallel, "parallel", runner.DefaultParallelism(),
		"measurement cells to run concurrently, each on its own isolated VM (1 = sequential)")
	fs.DurationVar(&f.cellTimeout, "cell-timeout", 0,
		"deadline per measurement cell attempt (0 = no deadline)")
	fs.IntVar(&f.maxRetries, "max-retries", 0,
		"extra attempts for cells that fail with a transient error")
	fs.StringVar(&f.cacheDir, "cache-dir", "",
		"content-addressed result cache directory (default $"+resultcache.EnvVar+")")
	fs.StringVar(&f.cacheMode, "cache", "",
		"result cache mode: off, ro or rw (default rw when a cache directory is configured, off otherwise)")
	fs.IntVar(&f.cacheVerify, "cache-verify", 0,
		"re-execute 1 in N cache hits (deterministic key sample) and fail loudly on any byte mismatch; 0 = off, 1 = every hit")
	fs.IntVar(&f.cacheMaxMB, "cache-max-mb", 0,
		"evict least-recently-used cache entries beyond this many MB at exit (0 = unbounded)")
	return f
}

// RegisterSearch registers the subset of the shared flags `jvmsim
// search` takes: -scenario, -trace and -metrics.
func RegisterSearch(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Scenario, "scenario", "",
		"load scenarios from a declarative JSON `file` into the registry")
	fs.StringVar(&f.Trace, "trace", "", "write Chrome trace_event JSON to `FILE` (load in Perfetto)")
	fs.StringVar(&f.Metrics, "metrics", "", "write the per-family metrics registry as JSON to `FILE`")
	return f
}

// Load registers the -scenario file's scenarios (if one was given) and
// returns the VM options with the engine and heap flags applied. Open
// calls it; a command that never runs cells (jprof -list, jvmsim -dump)
// calls it instead of Open, so it creates no cache directory. Call it at
// most once: a second load of the same file collides with itself.
func (f *Flags) Load() (vm.Options, error) {
	opts := vm.DefaultOptions()
	if f.Scenario != "" {
		if _, err := scenarios.LoadFile(f.Scenario); err != nil {
			return opts, err
		}
	}
	engine, err := jit.ParseEngine(f.engine)
	if err != nil {
		return opts, err
	}
	opts.Tier = engine
	// Collection only triggers through the nursery threshold, so a
	// tenured size or age without one would run a configuration the
	// user did not ask for. The hard cap alone is meaningful: in legacy
	// mode it bounds cumulative live allocation.
	if !f.heap.Enabled() && (f.heap.TenuredWords > 0 || f.heap.TenureAge > 0) {
		return opts, fmt.Errorf("vm: -heap-tenured/-heap-tenure-age require -heap-nursery > 0 (collection triggers through the nursery threshold)")
	}
	opts.Heap = f.heap
	return opts, nil
}

// Recorder returns the telemetry recorder -trace and -metrics ask for:
// nil (fully disabled) when neither is set, metrics-only for -metrics
// alone, span-buffering with -trace.
func (f *Flags) Recorder() *telemetry.Recorder {
	if f.Trace == "" && f.Metrics == "" {
		return nil
	}
	return telemetry.New(f.Trace != "")
}

// Env is one command invocation's run environment.
type Env struct {
	// Opts are the VM options with the engine and heap flags applied.
	Opts vm.Options
	// Cache is the opened result cache (nil when off).
	Cache *resultcache.Cache
	// Resolver serves cells through Cache with the -cache-verify sample.
	Resolver *resultcache.Resolver
	// Tel is the telemetry recorder (nil when neither -trace nor -metrics).
	Tel *telemetry.Recorder
	// Sum writes the "<tool>: " trailers on stderr.
	Sum *telemetry.Summary
	// Runner carries -parallel, -cell-timeout, -max-retries, the
	// JVMSIM_FAULTS hook and the recorder.
	Runner runner.Options

	flags *Flags
}

// Open turns the parsed flags into a run environment for tool: it loads
// the -scenario file, builds the VM options, reads the JVMSIM_FAULTS
// hook, opens the cache and its resolver and starts the recorder. Every
// command that opens an Env ends it with Finish.
func (f *Flags) Open(tool string) (*Env, error) {
	opts, err := f.Load()
	if err != nil {
		return nil, err
	}
	injector, err := faultinject.FromEnv()
	if err != nil {
		return nil, err
	}
	cache, err := resultcache.OpenFlags(f.cacheDir, f.cacheMode, f.cacheVerify, f.cacheMaxMB)
	if err != nil {
		return nil, err
	}
	tel := f.Recorder()
	cache.SetTelemetry(tel)
	return &Env{
		Opts:     opts,
		Cache:    cache,
		Resolver: &resultcache.Resolver{Cache: cache, VerifyN: f.cacheVerify, Tel: tel},
		Tel:      tel,
		Sum:      telemetry.NewSummary(tool, os.Stderr),
		Runner: runner.Options{
			Parallelism: f.parallel,
			CellTimeout: f.cellTimeout,
			MaxRetries:  f.maxRetries,
			Hook:        injector.Hook(),
			Telemetry:   tel,
		},
		flags: f,
	}, nil
}

// Finish is the end-of-run work on stderr: the cache's eviction pass and
// stats trailer, then the -trace/-metrics files and their trailers.
func (e *Env) Finish() {
	e.Cache.Finish(e.Sum)
	telemetry.WriteFiles(e.Tel, e.Sum, e.flags.Trace, e.flags.Metrics)
}

// Config is the campaign configuration the environment describes, with
// harness defaults for everything the shared flags do not set.
func (e *Env) Config() harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Scale = e.flags.Scale
	cfg.Opts = e.Opts
	cfg.Parallelism = e.Runner.Parallelism
	cfg.CellTimeout = e.Runner.CellTimeout
	cfg.MaxRetries = e.Runner.MaxRetries
	cfg.Hook = e.Runner.Hook
	cfg.Cache = e.Cache
	cfg.CacheVerify = e.Resolver.VerifyN
	cfg.Telemetry = e.Tel
	return cfg
}

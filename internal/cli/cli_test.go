package cli

import (
	"flag"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/jit"
	"repro/internal/resultcache"
	"repro/internal/vm"
)

// parse registers the shared flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// names lists the flags registered on fs, sorted.
func names(fs *flag.FlagSet) []string {
	var out []string
	fs.VisitAll(func(f *flag.Flag) { out = append(out, f.Name) })
	sort.Strings(out)
	return out
}

// TestRegisteredNames pins the shared flag set and the subset `jvmsim
// search` takes.
func TestRegisteredNames(t *testing.T) {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	Register(fs)
	want := "cache cache-dir cache-max-mb cache-verify cell-timeout engine heap-limit heap-nursery heap-tenure-age heap-tenured max-retries metrics parallel scale scenario trace"
	if got := strings.Join(names(fs), " "); got != want {
		t.Fatalf("Register: %s\nwant:      %s", got, want)
	}
	fs = flag.NewFlagSet("search", flag.ContinueOnError)
	RegisterSearch(fs)
	if got := strings.Join(names(fs), " "); got != "metrics scenario trace" {
		t.Fatalf("RegisterSearch: %s", got)
	}
}

// TestEngineFlag: -engine defaults to interp, accepts jit and its "auto"
// spelling, and rejects anything else naming every accepted spelling.
func TestEngineFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want jit.Engine
	}{{nil, jit.EngineInterp}, {[]string{"-engine", "jit"}, jit.EngineJIT}, {[]string{"-engine", "auto"}, jit.EngineJIT}} {
		opts, err := parse(t, tc.args...).Load()
		if err != nil || opts.Tier != tc.want {
			t.Fatalf("%v: tier %v, %v; want %v", tc.args, opts.Tier, err, tc.want)
		}
	}
	_, err := parse(t, "-engine", "fast").Load()
	if err == nil || err.Error() != `jit: unknown engine "fast" (allowed: interp, jit, auto)` {
		t.Fatalf("bad engine: %v", err)
	}
}

// TestHeapFlags: the heap flags land in the VM options, and a tenured
// size or age without a nursery is refused.
func TestHeapFlags(t *testing.T) {
	opts, err := parse(t, "-heap-limit", "9").Load()
	if err != nil || opts.Heap != (vm.HeapConfig{LimitWords: 9}) {
		t.Fatalf("limit alone: %+v, %v", opts.Heap, err)
	}
	opts, err = parse(t, "-heap-nursery", "64", "-heap-tenured", "256", "-heap-tenure-age", "3", "-heap-limit", "512").Load()
	want := vm.HeapConfig{NurseryWords: 64, TenuredWords: 256, TenureAge: 3, LimitWords: 512}
	if err != nil || opts.Heap != want {
		t.Fatalf("full heap: %+v, %v", opts.Heap, err)
	}
	for _, args := range [][]string{{"-heap-tenured", "256"}, {"-heap-tenure-age", "2"}} {
		_, err := parse(t, args...).Load()
		if err == nil || err.Error() != "vm: -heap-tenured/-heap-tenure-age require -heap-nursery > 0 (collection triggers through the nursery threshold)" {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

// TestOpen: the environment carries every shared value to the VM
// options, the cache and its resolver, the runner and the campaign
// configuration, and the cache checks surface through Open.
func TestOpen(t *testing.T) {
	t.Setenv(resultcache.EnvVar, "")
	dir := filepath.Join(t.TempDir(), "cache")
	env, err := parse(t, "-engine", "jit", "-scale", "8", "-parallel", "3", "-cell-timeout", "2s",
		"-max-retries", "4", "-cache-dir", dir, "-cache-verify", "5", "-metrics", filepath.Join(t.TempDir(), "m.json")).Open("test")
	if err != nil {
		t.Fatal(err)
	}
	if env.Opts.Tier != jit.EngineJIT {
		t.Fatalf("opts tier %v", env.Opts.Tier)
	}
	if env.Cache.Dir() != dir || env.Cache.Mode() != resultcache.ModeRW || env.Resolver.Cache != env.Cache || env.Resolver.VerifyN != 5 {
		t.Fatalf("cache %s %s, resolver %+v", env.Cache.Dir(), env.Cache.Mode(), env.Resolver)
	}
	if env.Tel == nil || env.Resolver.Tel != env.Tel || env.Runner.Telemetry != env.Tel {
		t.Fatal("-metrics did not start one shared recorder")
	}
	r := env.Runner
	if r.Parallelism != 3 || r.CellTimeout != 2*time.Second || r.MaxRetries != 4 || r.Hook != nil {
		t.Fatalf("runner options %+v", r)
	}
	cfg := env.Config()
	if cfg.Scale != 8 || cfg.Parallelism != 3 || cfg.CellTimeout != 2*time.Second || cfg.MaxRetries != 4 ||
		cfg.Cache != env.Cache || cfg.CacheVerify != 5 || cfg.Telemetry != env.Tel || cfg.Opts != env.Opts {
		t.Fatalf("campaign config %+v", cfg)
	}
	env.Finish()

	if _, err := parse(t, "-cache-dir", dir, "-cache-verify", "-1").Open("test"); err == nil ||
		err.Error() != "resultcache: -cache-verify -1 must be >= 0" {
		t.Fatalf("negative -cache-verify: %v", err)
	}
	if _, err := parse(t, "-cache", "rw").Open("test"); err == nil ||
		err.Error() != "resultcache: -cache=rw needs a directory: set -cache-dir or $JVMSIM_CACHE" {
		t.Fatalf("-cache rw without a directory: %v", err)
	}
}

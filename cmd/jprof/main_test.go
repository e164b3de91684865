package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/resultcache"
)

// binPath is the jprof binary TestMain builds once for every
// integration test in this package.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "jprof-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "jprof")
	build := exec.Command("go", "build", "-o", binPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building jprof:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBin executes the built binary with $JVMSIM_CACHE cleared and
// returns its stdout, stderr and exit code.
func runBin(t *testing.T, env []string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	cmd.Env = append(os.Environ(), append([]string{resultcache.EnvVar + "="}, env...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return string(out), stderr.String(), code
}

// TestWarmCacheByteIdentical: a rerun on the cache a cold run filled is
// served entirely from disk, and so is a -cache-verify 1 rerun that
// re-executes every hit; all three print the same bytes, as text and as
// JSON.
func TestWarmCacheByteIdentical(t *testing.T) {
	for _, format := range [][]string{nil, {"-json"}} {
		t.Run(fmt.Sprint("json=", len(format) > 0), func(t *testing.T) {
			args := append([]string{"-scale", "8", "-cache-dir", filepath.Join(t.TempDir(), "cache")}, format...)
			args = append(args, "paper")
			cold, coldErr, code := runBin(t, nil, args...)
			if code != 0 || !strings.Contains(coldErr, "cache: 0 hits, 8 misses,") {
				t.Fatalf("cold run exited %d:\n%s", code, coldErr)
			}
			warm, warmErr, code := runBin(t, nil, args...)
			if code != 0 || !strings.Contains(warmErr, "cache: 8 hits, 0 misses,") {
				t.Fatalf("warm run exited %d:\n%s", code, warmErr)
			}
			verified, verErr, code := runBin(t, nil, append([]string{"-cache-verify", "1"}, args...)...)
			if code != 0 || !strings.Contains(verErr, ", 0 misses, 0 deduped, 0 evicted, 8 verified") {
				t.Fatalf("verify run exited %d:\n%s", code, verErr)
			}
			if warm != cold || verified != cold {
				t.Fatalf("reruns differ from the cold run:\n--- cold ---\n%s\n--- warm ---\n%s\n--- verified ---\n%s", cold, warm, verified)
			}
		})
	}
}

// TestUnknownEngineAndAgent: a bad -engine or -agent is fatal (exit 1)
// with the shared rejection message, before any cell runs.
func TestUnknownEngineAndAgent(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-engine", "bogus", "paper"}, `jprof: jit: unknown engine "bogus" (allowed: interp, jit, auto)`},
		{[]string{"-agent", "bogus", "paper"}, `jprof: registry: unknown agent "bogus" (known: [aprof bic chains ipa none recorder sampler spa])`},
	} {
		out, stderr, code := runBin(t, nil, tc.args...)
		if code != 1 || out != "" || strings.TrimSpace(stderr) != tc.want {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and %q", tc.args, code, out, stderr, tc.want)
		}
	}
}

// TestInjectedPanicIsPartial: a cell that panics prints its FAILED line
// where its report would have been, every other report is unchanged, and
// the process exits partial (3).
func TestInjectedPanicIsPartial(t *testing.T) {
	clean, _, code := runBin(t, nil, "-scale", "8", "paper")
	if code != 0 {
		t.Fatalf("clean run exited %d", code)
	}
	jess, _, code := runBin(t, nil, "-scale", "8", "jess")
	if code != 0 || !strings.Contains(clean, jess) {
		t.Fatalf("single jess run exited %d or is not part of the paper run", code)
	}
	got, stderr, code := runBin(t, []string{faultinject.EnvVar + "=panic=jess"}, "-scale", "8", "paper")
	if code != 3 || !strings.Contains(stderr, "jprof: partial: 1 of 8 cells failed") {
		t.Fatalf("faulted run exited %d:\n%s", code, stderr)
	}
	failed := "benchmark jess/ipa: FAILED: cell jess/ipa (attempt 1): panic: faultinject: injected panic in cell jess/ipa (attempt 1)\n"
	if want := strings.Replace(clean, jess, failed, 1); got != want {
		t.Fatalf("faulted output:\n%s\nwant:\n%s", got, want)
	}
}

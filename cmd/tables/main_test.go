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

// binPath is the tables binary TestMain builds once for every
// integration test in this package.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tables-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "tables")
	build := exec.Command("go", "build", "-o", binPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building tables:", err)
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

// TestWarmCacheByteIdentical: for the paper tables and an all-family
// campaign, a rerun on the cache a cold run filled is served entirely
// from disk, and so is a -cache-verify 1 rerun that re-executes every
// hit; all three print the same bytes.
func TestWarmCacheByteIdentical(t *testing.T) {
	for _, profile := range []string{"paper", "all"} {
		t.Run(profile, func(t *testing.T) {
			args := []string{"-scale", "8", "-profile", profile, "-cache-dir", filepath.Join(t.TempDir(), "cache")}
			// The paper's Table II re-reads Table I's cells, so even a cold
			// run has hits; only its misses show it ran cold.
			cold, coldErr, code := runBin(t, nil, args...)
			if code != 0 || strings.Contains(coldErr, " 0 misses, ") {
				t.Fatalf("cold run exited %d:\n%s", code, coldErr)
			}
			warm, warmErr, code := runBin(t, nil, args...)
			if code != 0 || !strings.Contains(warmErr, " 0 misses, ") {
				t.Fatalf("warm run exited %d:\n%s", code, warmErr)
			}
			verified, verErr, code := runBin(t, nil, append([]string{"-cache-verify", "1"}, args...)...)
			if code != 0 || !strings.Contains(verErr, " 0 misses, ") {
				t.Fatalf("verify run exited %d:\n%s", code, verErr)
			}
			if warm != cold || verified != cold {
				t.Fatalf("reruns differ from the cold run:\n--- cold ---\n%s\n--- warm ---\n%s\n--- verified ---\n%s", cold, warm, verified)
			}
		})
	}
}

// TestUnknownEngineAndAgent: a bad -engine or -agents entry is fatal
// (exit 1) with the shared rejection message, before any cell runs.
func TestUnknownEngineAndAgent(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-engine", "bogus"}, `tables: jit: unknown engine "bogus" (allowed: interp, jit, auto)`},
		{[]string{"-profile", "all", "-agents", "none,bogus"}, `tables: registry: unknown agent "bogus" (known: [aprof bic chains ipa none recorder sampler spa])`},
	} {
		out, stderr, code := runBin(t, nil, tc.args...)
		if code != 1 || out != "" || strings.TrimSpace(stderr) != tc.want {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and %q", tc.args, code, out, stderr, tc.want)
		}
	}
}

// TestInjectedPanicIsPartial: in a campaign, the cells that panic render
// as FAILED rows in their own places, every other row is unchanged, a
// partial line follows the check verdicts, and the process exits partial
// (3).
func TestInjectedPanicIsPartial(t *testing.T) {
	args := []string{"-scale", "8", "-profile", "gcpressure"}
	clean, _, code := runBin(t, nil, args...)
	if code != 0 {
		t.Fatalf("clean run exited %d", code)
	}
	got, _, code := runBin(t, []string{faultinject.EnvVar + "=panic=thrash"}, args...)
	if code != 3 {
		t.Fatalf("faulted run exited %d, want 3", code)
	}
	want := strings.Split(clean, "\n")
	for i, line := range want {
		if strings.HasPrefix(line, "gc-nursery-thrash ") {
			agent := strings.Fields(line)[1]
			want[i] = fmt.Sprintf("%-18s %-9s %-16s FAILED: cell gc-nursery-thrash/%s (attempt 1): panic: faultinject: injected panic in cell gc-nursery-thrash/%s (attempt 1)",
				"gc-nursery-thrash", agent, "gcpressure", agent, agent)
		}
	}
	wantText := strings.Join(want, "\n") + "partial: 3 of 9 cells failed\n"
	if got != wantText {
		t.Fatalf("faulted output:\n%s\nwant:\n%s", got, wantText)
	}
}

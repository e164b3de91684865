package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/resultcache"
)

// binPath is the jvmsim binary TestMain builds once for every
// integration test in this package.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "jvmsim-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "jvmsim")
	build := exec.Command("go", "build", "-o", binPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building jvmsim:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBin executes the built binary and returns its stdout and exit code.
func runBin(t *testing.T, env []string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.Output()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

// cacheEntries counts the complete entries in the cache directory dir;
// 0 if it does not exist yet.
func cacheEntries(dir string) (int, error) {
	c, err := resultcache.Open(dir, resultcache.ModeRO)
	if err != nil {
		return 0, err
	}
	n, _, err := c.Len()
	if os.IsNotExist(err) {
		return 0, nil
	}
	return n, err
}

// TestCrashResumeByteIdentical is the end-to-end crash-resume proof on
// the real binary: a campaign killed mid-flight by the crash injector
// (faultinject's os.Exit(137), indistinguishable from SIGKILL as far as
// the cache is concerned) resumes, by rerunning on the same -cache-dir,
// to output byte-identical to an uninterrupted run — per engine,
// sequential and parallel. "auto" is the spelling of jit the binaries
// still accept; this is its one end-to-end run.
func TestCrashResumeByteIdentical(t *testing.T) {
	for _, engine := range []string{"interp", "jit", "auto"} {
		for _, par := range []string{"1", "4"} {
			t.Run(engine+"/par"+par, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "cache")
				args := []string{"-scale", "8", "-engine", engine, "-parallel", par, "paper"}

				clean, code := runBin(t, nil, args...)
				if code != 0 {
					t.Fatalf("clean run exited %d", code)
				}

				cachedArgs := append([]string{"-cache-dir", dir}, args...)
				_, code = runBin(t, []string{faultinject.EnvVar + "=crash-after=3"}, cachedArgs...)
				if code != 137 {
					t.Fatalf("crashed run exited %d, want 137", code)
				}
				if n, err := cacheEntries(dir); err != nil || n < 3 || n >= 8 {
					t.Fatalf("cache holds %d cells after crash (%v), want [3,8)", n, err)
				}

				resumed, code := runBin(t, nil, cachedArgs...)
				if code != 0 {
					t.Fatalf("resumed run exited %d", code)
				}
				if resumed != clean {
					t.Fatalf("resumed output differs from uninterrupted run:\n--- clean ---\n%s\n--- resumed ---\n%s", clean, resumed)
				}
			})
		}
	}
}

// TestKillMidCampaignResume kills the binary with a real SIGKILL while
// the campaign is running, then resumes from whatever the cache
// directory retained. The kill lands at an arbitrary point (whenever the
// first entry is published), so unlike the injector variant it also
// exercises recovery from a write interrupted between temp file and
// rename.
func TestKillMidCampaignResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	// Full calibrated size, sequential: ~tens of ms per cell, a wide
	// window between the first cache entry and campaign completion.
	args := []string{"-scale", "1", "-parallel", "1", "paper"}

	clean, code := runBin(t, nil, args...)
	if code != 0 {
		t.Fatalf("clean run exited %d", code)
	}

	cachedArgs := append([]string{"-cache-dir", dir}, args...)
	cmd := exec.Command(binPath, cachedArgs...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	// Poll until the first entry lands. Opening the directory while the
	// binary is still creating and stamping it must never fail.
	for {
		n, err := cacheEntries(dir)
		if err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("opening the cache while the campaign creates it: %v", err)
		}
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("cache never gained an entry")
		}
		time.Sleep(time.Millisecond)
	}
	cmd.Process.Signal(syscall.SIGKILL)
	err := cmd.Wait()
	if err == nil {
		// The campaign outran the kill; the cache is complete and the
		// run below degenerates to the all-hits case. Rare (the window
		// is hundreds of ms), but not a failure of the contract under
		// test.
		t.Log("process finished before SIGKILL landed; resume degenerates to all hits")
	}

	resumed, code := runBin(t, nil, cachedArgs...)
	if code != 0 {
		t.Fatalf("resumed run exited %d", code)
	}
	if resumed != clean {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- clean ---\n%s\n--- resumed ---\n%s", clean, resumed)
	}
}

// TestDoctorReportsOrphanedTempFiles plants the temp file a Put killed
// between write and rename leaves in the cache root, and checks the
// doctor's census names it and how to remove it while still passing —
// an orphan wastes space but never serves a wrong result.
func TestDoctorReportsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := resultcache.Open(dir, resultcache.ModeRW); err != nil {
		t.Fatal(err)
	}
	if c := checkCache(dir); !c.OK || strings.Contains(c.Detail, "orphaned") {
		t.Fatalf("clean cache: %+v", c)
	}
	if err := os.WriteFile(filepath.Join(dir, resultcache.TempPrefix+"123"), []byte(`{"key":`), 0o644); err != nil {
		t.Fatal(err)
	}
	c := checkCache(dir)
	if !c.OK {
		t.Fatalf("orphan failed the check: %+v", c)
	}
	for _, want := range []string{"0 entries", "1 orphaned temp files", "rm " + filepath.Join(dir, resultcache.TempPrefix) + "*"} {
		if !strings.Contains(c.Detail, want) {
			t.Errorf("detail %q lacks %q", c.Detail, want)
		}
	}
}

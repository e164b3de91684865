// Command perfbench is the repository's benchmark. One run measures one
// workload end to end through the public entry point users run
// (harness.Campaign.Run, as `tables -profile all` calls it), checks that every
// pass rendered byte-identical output, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench --aa ROUNDS --seconds S
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced replay of every cell, step by step through the layers,
// gives the per-layer ones and writes a Chrome trace_event file under
// .bench_build/perfbench/. --aa is the A/A steadiness mode: it runs the
// workloads ROUNDS times, interleaved, each in a fresh process, and
// prints every metric's median, quartiles, spread and extremes.
//
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/telemetry"
)

// workDir holds the benchmark's scratch caches and its trace files,
// relative to the directory it runs in.
var workDir = filepath.Join(".bench_build", "perfbench")

func main() {
	name := flag.String("workload", "", "workload to run: campaign-jit, campaign-small, campaign-warm")
	seed := flag.Int64("seed", 1, "workload seed (campaign-small and campaign-warm draw their mutants from it)")
	seconds := flag.Int("seconds", 10, "seconds of timed passes")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced replay and write its trace")
	aa := flag.Int("aa", 0, "A/A steadiness mode: run every workload this many times, interleaved")
	flag.Parse()

	if *aa > 0 {
		if err := steadiness(*aa, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// run measures one workload and returns the result line, after printing
// the human-readable report.
func run(w workload, seed int64, seconds int, traced bool) (string, error) {
	fp, err := fingerprint(".")
	if err != nil {
		return "", err
	}
	fmt.Printf("fingerprint %s\n", fp)
	if w.seeded {
		fmt.Printf("workload %s: seed %d (one seeded mutant)\n", w.name, seed)
	} else {
		fmt.Printf("workload %s: fixed catalogue, seed %d ignored\n", w.name, seed)
	}

	b, err := newBench(context.Background(), w, seed, workDir)
	if err != nil {
		return "", err
	}
	defer b.close()
	var rec *telemetry.Recorder
	if traced {
		rec = telemetry.New(true)
	}
	if err := b.measure(seconds, rec); err != nil {
		return "", err
	}
	fmt.Printf("cells per pass %d, timed passes %d in %d samples, set-up rounds %d\n",
		len(b.cells), b.passes, len(b.samples), len(b.setupTimes))

	var out metricSet
	if traced {
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
		if err := writeTrace(rec, path); err != nil {
			return "", err
		}
		fmt.Printf("trace %s (%d traced replays)\n", path, min(len(b.traced), maxTraced))
		out = b.perLayer()
		fmt.Print(out)
	} else {
		report, declared := b.endToEnd()
		fmt.Print(report)
		out = declared
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", p)
	}
	line, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   out.vals,
	})
	return string(line), err
}

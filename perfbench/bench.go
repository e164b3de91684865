package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
)

// Run-shape constants. Every run takes at least minSamples timed
// samples even when one outlasts --seconds; a traced run records spans
// for at most maxTraced replays so the trace stays a few megabytes.
const (
	minSamples = 3
	maxTraced  = 16
)

// bench is one run of one workload.
type bench struct {
	w     workload
	ctx   context.Context
	cfg   harness.Config
	scns  []scenarios.Scenario
	cells []cell
	dir   string // scratch directory for caches, removed at exit

	warm *resultcache.Cache // the cache set-up filled (campaign-warm)
	// ref is the set-up replay: the expected measurements, payloads and
	// simulated counts every later pass and replay must reproduce.
	ref *replay
	// want is the output every timed pass must render byte for byte:
	// the first timed pass's, or on campaign-warm the cold pass's that
	// filled its cache.
	want string
	// first is the first timed pass; it supplies the model-error metrics.
	first *passResult

	setupTimes        []float64 // wall seconds of each set-up round
	samples           []sample  // one per timed batch of passes
	passes            int       // timed passes so far
	traced            []*replay
	attempted, failed uint64
	problems          []string
}

// sample is one timed batch of w.batch consecutive passes, as per-pass
// means: a cost the program pays every few passes (a Go collection, a
// periodic flush) is spread over every batch instead of landing in some
// samples and missing others.
type sample struct {
	wall, cpu, allocBytes, allocObjects, gcCycles, gcCPU float64
}

func newBench(ctx context.Context, w workload, seed int64, workDir string) (*bench, error) {
	scns, err := w.scenarioSet(seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	return &bench{w: w, ctx: ctx, cfg: w.config(), scns: scns, cells: w.cells(scns), dir: dir}, nil
}

func (b *bench) close() { os.RemoveAll(b.dir) }

// fail records one correctness problem against n cells.
func (b *bench) fail(n int, format string, args ...any) {
	b.failed += uint64(n)
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// setUp runs one untimed preparation round. Executing workloads replay
// every cell once through the layers (the warm-up pass); campaign-warm
// instead fills a fresh cache with a cold campaign-small pass, then reads
// every cell back. The round's clock covers the warm-up or the fill;
// the read-back and the checks run after it stops. Every round must
// reproduce the first exactly.
func (b *bench) setUp() error {
	round := len(b.setupTimes) + 1
	var rp *replay
	var cold passResult
	var cache *resultcache.Cache
	start := time.Now()
	if b.w.cache == "warm" {
		var err error
		if cache, err = freshCache(b.dir); err != nil {
			return err
		}
		cfg := b.cfg
		cfg.Cache = cache
		if cold, err = b.w.pass(b.ctx, cfg, b.scns); err != nil {
			return err
		}
	} else {
		rp = newReplay(b.ctx, nil, b.cfg, nil)
		rp.run(b.cells, false)
	}
	b.setupTimes = append(b.setupTimes, time.Since(start).Seconds())
	if cache != nil {
		rp = newReplay(b.ctx, nil, b.cfg, cache)
		rp.run(b.cells, true)
		b.attempted += uint64(cold.cells)
		b.failed += uint64(cold.failed)
		dropCache(b.warm)
		b.warm = cache
		if b.want != "" && cold.text != b.want {
			b.fail(cold.cells, "set-up round %d: cold pass output differs from round 1", round)
		}
		b.want = cold.text
		b.checkPayloads(rp, cold.camp, "cold pass")
	}
	b.checkReplay(rp, fmt.Sprintf("set-up round %d", round))
	if b.ref == nil {
		b.ref = rp
	}
	return nil
}

// checkReplay counts a replay's attempted and failed cells and checks
// that it reproduced the reference replay's payloads and simulated
// counts exactly.
func (b *bench) checkReplay(rp *replay, what string) {
	b.attempted += rp.n.cells
	for i, err := range rp.errors {
		if err != nil {
			b.fail(1, "%s: %s/%s: %v", what, b.cells[i].sc.Name(), b.cells[i].agent, err)
		}
	}
	if b.ref == nil {
		return
	}
	for i := range rp.payloads {
		if rp.errors[i] == nil && !bytes.Equal(rp.payloads[i], b.ref.payloads[i]) {
			b.fail(1, "%s: %s/%s payload differs from the set-up replay", what, b.cells[i].sc.Name(), b.cells[i].agent)
		}
	}
	got, want := rp.n, b.ref.n
	got.payloadBytes, got.puts, got.hits, got.misses = want.payloadBytes, want.puts, want.hits, want.misses
	if got != want {
		b.fail(1, "%s: simulated counts differ from the set-up replay", what)
	}
}

// checkPayloads compares a replay cell by cell with a harness pass.
func (b *bench) checkPayloads(rp *replay, res *harness.CampaignResult, what string) {
	if res == nil {
		return
	}
	ps, err := payloads(res)
	if err != nil {
		b.fail(len(rp.payloads), "%s: encoding rows: %v", what, err)
		return
	}
	for i := range ps {
		if !bytes.Equal(ps[i], rp.payloads[i]) {
			b.fail(1, "%s: %s/%s: harness row differs from the replay", what, b.cells[i].sc.Name(), b.cells[i].agent)
		}
	}
}

// timedSample runs one batch of w.batch end-to-end passes between two
// readings of the wall clock, process CPU time and the Go runtime's
// counters, records their per-pass means, then checks every pass.
func (b *bench) timedSample() error {
	cfg := b.cfg
	if b.w.cache == "warm" {
		cfg.Cache = b.warm
	}
	outs := make([]passResult, 0, b.w.batch)
	before := readCounters()
	for range b.w.batch {
		out, err := b.w.pass(b.ctx, cfg, b.scns)
		if err != nil {
			return err
		}
		outs = append(outs, out)
	}
	after := readCounters()
	n := float64(b.w.batch)
	b.samples = append(b.samples, sample{
		wall:         after.wall.Sub(before.wall).Seconds() / n,
		cpu:          (after.cpu - before.cpu) / n,
		allocBytes:   (after.allocBytes - before.allocBytes) / n,
		allocObjects: (after.allocObjects - before.allocObjects) / n,
		gcCycles:     (after.gcCycles - before.gcCycles) / n,
		gcCPU:        (after.gcCPU - before.gcCPU) / n,
	})
	for _, out := range outs {
		b.checkPass(out)
	}
	return nil
}

// checkPass applies the per-pass correctness gate: the first pass must
// reproduce the set-up replay's payloads cell by cell, and every pass
// must render the output the first did (on campaign-warm, the output of
// the cold pass that filled its cache).
func (b *bench) checkPass(out passResult) {
	b.passes++
	b.attempted += uint64(out.cells)
	b.failed += uint64(out.failed)
	if b.first == nil {
		b.first = &out
		if b.w.cache != "warm" {
			b.checkPayloads(b.ref, out.camp, "first pass")
			b.want = out.text
		}
	}
	if out.text != b.want {
		b.fail(out.cells, "pass %d: rendered output differs from the expected output", b.passes)
	}
}

// traceReplay runs one replay, recording spans into rec.
func (b *bench) traceReplay(rec *telemetry.Recorder) error {
	var cache *resultcache.Cache
	switch b.w.cache {
	case "store":
		c, err := freshCache(b.dir)
		if err != nil {
			return err
		}
		defer dropCache(c)
		cache = c
	case "warm":
		cache = b.warm
	}
	rp := newReplay(b.ctx, rec, b.cfg, cache)
	rp.run(b.cells, b.w.cache == "warm")
	b.traced = append(b.traced, rp)
	b.checkReplay(rp, fmt.Sprintf("traced replay %d", len(b.traced)))
	return nil
}

// measure sets up w.setupRounds times, then takes timed samples until
// the deadline. A traced run follows each of its first maxTraced samples
// with a traced replay.
func (b *bench) measure(seconds int, rec *telemetry.Recorder) error {
	for range b.w.setupRounds {
		if err := b.setUp(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(b.samples) < minSamples || time.Now().Before(deadline) {
		if err := b.timedSample(); err != nil {
			return err
		}
		if rec != nil && len(b.traced) < maxTraced {
			if err := b.traceReplay(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeTrace writes the recorder's spans once, at the end of the run.
func writeTrace(rec *telemetry.Recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteTrace(f, "perfbench"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is one reading of the clocks and runtime counters a sample
// differences.
type counters struct {
	wall                                           time.Time
	cpu, allocBytes, allocObjects, gcCycles, gcCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readCounters() counters {
	metrics.Read(runtimeSamples)
	val := func(s metrics.Sample) float64 {
		if s.Value.Kind() == metrics.KindFloat64 {
			return s.Value.Float64()
		}
		return float64(s.Value.Uint64())
	}
	return counters{
		wall:         time.Now(),
		cpu:          processCPU(),
		allocBytes:   val(runtimeSamples[0]),
		allocObjects: val(runtimeSamples[1]),
		gcCycles:     val(runtimeSamples[2]),
		gcCPU:        val(runtimeSamples[3]),
	}
}

// processCPU is the user+sys CPU seconds of every thread of the process.
func processCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// peakRSSBytes is the process's peak resident set (Linux reports KiB).
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

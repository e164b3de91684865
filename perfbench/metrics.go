package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/harness"
)

// best is the per-run statistic of a timed quantity: the least sample.
// Host noise here is one-sided — contention on a shared machine only
// ever slows work down — and much of it comes and goes within seconds,
// so the fastest batch is the estimate a slow outlier cannot move. A
// cost the program pays in every batch, however it is spread over the
// batch's passes, stays in every sample and so in the estimate.
func best(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// median of xs; xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 by the method Python's
// statistics.quantiles(xs, n=4) uses by default ("exclusive"), so the
// steadiness report matches the acceptance arithmetic digit for digit.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	ld, m := len(s), len(s)+1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// metricSet is an ordered list of named metrics with units.
type metricSet struct {
	names []string
	vals  map[string]metric
}

func (ms *metricSet) add(name, unit string, v float64) {
	if ms.vals == nil {
		ms.vals = map[string]metric{}
	}
	if _, dup := ms.vals[name]; !dup {
		ms.names = append(ms.names, name)
	}
	ms.vals[name] = metric{Value: v, Unit: unit}
}

func pick(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// endToEnd are the untraced run's metrics. The report also carries
// sim_mips (workloads that execute), the peak resident set and
// failed_frac; the result line carries only the declared end-to-end
// metrics, which leave those out: sim_mips is undefined on campaign-warm,
// the peak resident set moves with the Go collector's pacing more than
// with the program, and failed_frac is zero (the result line's failed
// and attempted carry it).
func (b *bench) endToEnd() (report, declared metricSet) {
	wall := best(pick(b.samples, func(s sample) float64 { return s.wall }))
	declared.add("wall_s", "s", wall)
	declared.add("cpu_s", "s", best(pick(b.samples, func(s sample) float64 { return s.cpu })))
	declared.add("alloc_mb", "MB", best(pick(b.samples, func(s sample) float64 { return s.allocBytes }))/1e6)
	declared.add("setup_s", "s", median(b.setupTimes))
	ipaErr, paperErr, ovhErr := b.modelErrors()
	declared.add("ipa_err_pp", "pp", ipaErr)
	declared.add("paper_err_pp", "pp", paperErr)
	declared.add("overhead_err_pp", "pp", ovhErr)

	report = declared.clone()
	if b.w.cache != "warm" {
		report.add("sim_mips", "1e6/s", float64(b.ref.n.instructions)/wall/1e6)
	}
	report.add("rss_mb", "MB", peakRSSBytes()/1e6)
	report.add("failed_frac", "ratio", float64(b.failed)/float64(max(b.attempted, 1)))
	return report, declared
}

func (ms metricSet) clone() metricSet {
	var out metricSet
	for _, n := range ms.names {
		out.add(n, ms.vals[n].Unit, ms.vals[n].Value)
	}
	return out
}

// modelErrors reads the three accuracy metrics off the first timed pass.
func (b *bench) modelErrors() (ipaErr, paperErr, overheadErr float64) {
	ms := make([]*harness.Measurement, len(b.first.camp.Rows))
	for i, r := range b.first.camp.Rows {
		ms[i] = r.M
	}
	t1, t2, err := tableRows(b.cells, ms)
	if err != nil {
		b.fail(1, "model errors: %v", err)
		return 0, 0, 0
	}
	return modelErrors(t1, t2)
}

// perLayer are the traced run's metrics: the median over traced replays
// of each layer's time and counts, per pass.
func (b *bench) perLayer() metricSet {
	var ms metricSet
	med := func(f func(*replay) float64) float64 {
		xs := make([]float64, len(b.traced))
		for i, rp := range b.traced {
			xs[i] = f(rp)
		}
		return median(xs)
	}
	secs := func(name string, f func(*replay) float64) { ms.add(name, "s", med(f)) }
	count := func(name string, f func(c counts) uint64) {
		ms.add(name, "count", med(func(rp *replay) float64 { return float64(f(rp.n)) }))
	}

	secs("workloads.build_s", func(rp *replay) float64 { return rp.t.build.Seconds() })
	count("workloads.programs", func(c counts) uint64 { return c.programs })
	count("workloads.classes", func(c counts) uint64 { return c.classes })
	secs("agents.prepare_s", func(rp *replay) float64 { return rp.t.prepare.Seconds() })
	secs("agents.report_s", func(rp *replay) float64 { return rp.t.report.Seconds() })

	secs("vm.new_s", func(rp *replay) float64 { return rp.t.vmNew.Seconds() })
	secs("vm.load_s", func(rp *replay) float64 { return rp.t.vmLoad.Seconds() })
	secs("vm.run_s", func(rp *replay) float64 { return rp.t.vmRun.Seconds() })
	for _, a := range []string{"none", "spa", "ipa"} {
		secs("vm.run_s.by-agent."+a, func(rp *replay) float64 { return rp.t.runByAgent[a].Seconds() })
	}
	for _, f := range families {
		secs("vm.run_s.by-family."+f, func(rp *replay) float64 { return rp.t.runByFamily[f].Seconds() })
	}
	ms.add("vm.ns_per_instr", "ns", med(func(rp *replay) float64 {
		if rp.n.instructions == 0 {
			return 0
		}
		return float64(rp.t.vmRun.Nanoseconds()) / float64(rp.n.instructions)
	}))
	count("vm.classes_loaded", func(c counts) uint64 { return c.classesLoaded })
	count("vm.instructions", func(c counts) uint64 { return c.instructions })
	count("vm.cycles", func(c counts) uint64 { return c.cycles })
	count("vm.threads", func(c counts) uint64 { return c.threads })
	count("vm.gc_minor", func(c counts) uint64 { return c.gcMinor })
	count("vm.gc_major", func(c counts) uint64 { return c.gcMajor })
	count("vm.gc_pause_cycles", func(c counts) uint64 { return c.gcPauseCycles })
	count("vm.words_allocated", func(c counts) uint64 { return c.wordsAlloc })
	count("vm.native_calls", func(c counts) uint64 { return c.nativeCalls })

	count("jit.methods_compiled", func(c counts) uint64 { return c.jit.compiled })
	count("jit.compile_failures", func(c counts) uint64 { return c.jit.compileFailures })
	count("jit.compiled_frames", func(c counts) uint64 { return c.jit.compiledFrames })
	count("jit.deopt_frames", func(c counts) uint64 { return c.jit.deoptFrames })
	count("jit.osr_entries", func(c counts) uint64 { return c.jit.osrEntries })
	count("jit.inlined_calls", func(c counts) uint64 { return c.jit.inlinedCalls })
	count("jit.units_invalidated", func(c counts) uint64 { return c.jit.unitsInvalidated })
	count("jni.calls", func(c counts) uint64 { return c.jni })

	secs("checkpoint.key_s", func(rp *replay) float64 { return rp.t.key.Seconds() })
	secs("checkpoint.encode_s", func(rp *replay) float64 { return rp.t.encode.Seconds() })
	count("checkpoint.payload_bytes", func(c counts) uint64 { return c.payloadBytes })
	secs("resultcache.put_s", func(rp *replay) float64 { return rp.t.put.Seconds() })
	secs("resultcache.get_s", func(rp *replay) float64 { return rp.t.get.Seconds() })
	count("resultcache.puts", func(c counts) uint64 { return c.puts })
	count("resultcache.hits", func(c counts) uint64 { return c.hits })
	count("resultcache.misses", func(c counts) uint64 { return c.misses })
	ms.add("resultcache.hit_ratio", "ratio", med(func(rp *replay) float64 {
		if rp.n.hits+rp.n.misses == 0 {
			return 0
		}
		return float64(rp.n.hits) / float64(rp.n.hits+rp.n.misses)
	}))

	// The timed passes of a "store" workload store nothing, so its
	// replays' puts are left out wherever a replay stands in for a pass.
	stored := func(rp *replay) time.Duration {
		if b.w.cache == "store" {
			return rp.t.put
		}
		return 0
	}
	passWall := median(pick(b.samples, func(s sample) float64 { return s.wall }))
	ms.add("harness.self_s", "s", passWall-med(func(rp *replay) float64 { return (rp.t.sum() - stored(rp)).Seconds() }))
	ms.add("harness.cells", "count", float64(len(b.cells)))
	ms.add("harness.failed_cells", "count", float64(b.failed))

	ms.add("go.gc_cycles", "count", median(pick(b.samples, func(s sample) float64 { return s.gcCycles })))
	ms.add("go.gc_cpu_s", "s", median(pick(b.samples, func(s sample) float64 { return s.gcCPU })))
	ms.add("go.alloc_objects", "count", median(pick(b.samples, func(s sample) float64 { return s.allocObjects })))
	ms.add("trace.overhead_ratio", "ratio", med(func(rp *replay) float64 { return (rp.wall - stored(rp)).Seconds() })/passWall)
	return ms
}

// families are the built-in scenario families, in the order the
// by-family run times are reported.
var families = []string{"paper", "gc-heavy", "gcpressure", "exception-heavy", "deep-chains", "contended", "tier-sensitive"}

func (ms metricSet) String() string {
	var s string
	for _, n := range ms.names {
		s += fmt.Sprintf("%-36s %16.6g %s\n", n, ms.vals[n].Value, ms.vals[n].Unit)
	}
	return s
}

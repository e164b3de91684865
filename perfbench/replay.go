package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/agents/registry"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jni"
	"repro/internal/jvmti"
	"repro/internal/resultcache"
	"repro/internal/scenarios"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// spanCat is the trace category of every span the replay records.
const spanCat = "perfbench"

// cell is one measurement cell of a workload: a scenario under an agent.
type cell struct {
	sc    scenarios.Scenario
	agent string
}

// layers is the host time one replay spent in each layer, plus the
// run-time splits by agent and by scenario family.
type layers struct {
	build, prepare, vmNew, vmLoad, vmRun, report time.Duration
	key, encode, get, put                        time.Duration
	runByAgent, runByFamily                      map[string]time.Duration
}

// sum is the traced layer sum: every leaf step the replay timed.
func (l layers) sum() time.Duration {
	return l.build + l.prepare + l.vmNew + l.vmLoad + l.vmRun + l.report +
		l.key + l.encode + l.get + l.put
}

// counts is the work one replay did, layer by layer. Everything except
// the cache counters is a simulated quantity and repeats exactly.
type counts struct {
	programs, classes, classesLoaded                uint64
	instructions, cycles, threads, nativeCalls, jni uint64
	gcMinor, gcMajor, gcPauseCycles, wordsAlloc     uint64
	jit                                             jitCounts
	payloadBytes, puts, hits, misses                uint64
	cells, failed                                   uint64
}

// jitCounts is the tier's work, summed over a replay's VMs.
type jitCounts struct {
	compiled, compileFailures, compiledFrames, deoptFrames uint64
	osrEntries, inlinedCalls, unitsInvalidated             uint64
}

// replay is one pass over a workload's cells through the layers' public
// functions, in the order core.RunKeepVM and harness.MeasureScenario call
// them. With a recorder it records one span per call; without one it
// only times and counts. The replayed Measurement of every cell is kept
// so the benchmark can check it against the harness's own rows.
type replay struct {
	rec      *telemetry.Recorder
	ctx      context.Context
	cfg      harness.Config
	cache    *resultcache.Cache
	t        layers
	n        counts
	rows     []*harness.Measurement // nil where the cell failed
	payloads []json.RawMessage      // canonical payload of each row
	wall     time.Duration          // the whole replay
	errors   []error
}

func newReplay(ctx context.Context, rec *telemetry.Recorder, cfg harness.Config, cache *resultcache.Cache) *replay {
	return &replay{
		rec: rec, ctx: ctx, cfg: cfg, cache: cache,
		t: layers{runByAgent: map[string]time.Duration{}, runByFamily: map[string]time.Duration{}},
	}
}

// step times fn into *into and records it as one span named name.
func (r *replay) step(into *time.Duration, name string, fn func() error) error {
	_, span := r.rec.StartSpan(r.ctx, spanCat, name)
	start := time.Now()
	err := fn()
	*into += time.Since(start)
	span.End()
	return err
}

// run replays every cell. A cache-served workload (serveOnly) stops at
// the cache lookup, as the harness does on a hit; every other workload
// looks up, executes, encodes and stores, as the harness does on a miss.
func (r *replay) run(cells []cell, serveOnly bool) {
	start := time.Now()
	defer func() { r.wall += time.Since(start) }()
	pctx, pass := r.rec.StartSpan(r.ctx, spanCat, "replay pass")
	outer := r.ctx
	r.ctx = pctx
	for _, c := range cells {
		m, raw, err := r.cell(c, serveOnly)
		r.n.cells++
		if err != nil {
			r.n.failed++
		}
		r.rows = append(r.rows, m)
		r.payloads = append(r.payloads, raw)
		r.errors = append(r.errors, err)
	}
	r.ctx = outer
	pass.End()
}

func (r *replay) cell(c cell, serveOnly bool) (*harness.Measurement, json.RawMessage, error) {
	ctx, span := r.rec.StartSpan(r.ctx, spanCat, "cell")
	if span != nil {
		span.Arg("cell", c.sc.Name()+"/"+c.agent).Arg("family", c.sc.Family)
		defer span.End()
	}
	outer := r.ctx
	r.ctx = ctx
	defer func() { r.ctx = outer }()

	var key string
	if err := r.step(&r.t.key, "checkpoint.CellKey", func() (err error) {
		opts := r.cfg.Opts
		c.sc.ApplyHeap(&opts)
		key, err = checkpoint.CellKey(harness.CellIdentity{
			Identity: c.sc.Identity(), Agent: c.agent, Opts: opts,
			Scale: r.cfg.Scale, Runs: r.cfg.Runs, Warmup: r.cfg.Warmup,
		})
		return err
	}); err != nil {
		return nil, nil, err
	}
	var raw json.RawMessage
	var hit bool
	_ = r.step(&r.t.get, "resultcache.Get", func() error {
		raw, hit = r.cache.Get(key)
		return nil
	})
	if r.cache != nil {
		if hit {
			r.n.hits++
		} else {
			r.n.misses++
		}
	}
	if serveOnly {
		if !hit {
			return nil, nil, fmt.Errorf("%s/%s: cache miss on a warm cache", c.sc.Name(), c.agent)
		}
		m := new(harness.Measurement)
		if err := json.Unmarshal(raw, m); err != nil {
			return nil, nil, err
		}
		return m, raw, nil
	}
	m, err := r.measure(c)
	if err != nil {
		return nil, nil, err
	}
	if err := r.step(&r.t.encode, "checkpoint.CanonicalPayload", func() (err error) {
		raw, err = checkpoint.CanonicalPayload(m)
		return err
	}); err != nil {
		return nil, nil, err
	}
	r.n.payloadBytes += uint64(len(raw))
	if err := r.step(&r.t.put, "resultcache.Put", func() error {
		return r.cache.Put(key, raw)
	}); err != nil {
		return nil, nil, err
	}
	if r.cache != nil && r.cache.Mode() == resultcache.ModeRW {
		r.n.puts++
	}
	return m, raw, nil
}

// measure is harness.MeasureScenario for one repetition without warmup,
// the configuration every workload uses.
func (r *replay) measure(c cell) (*harness.Measurement, error) {
	w := c.sc.Workload.Scale(r.cfg.Scale)
	sequence := c.sc.WarehouseSequence
	if len(sequence) == 0 {
		sequence = []int{w.Threads}
	}
	opts := r.cfg.Opts
	registry.TuneOptions(c.agent, &opts)
	c.sc.ApplyHeap(&opts)
	m := &harness.Measurement{Benchmark: w.Name, AgentName: c.agent, Runs: r.cfg.Runs}
	var totalCycles, totalOps uint64
	for _, warehouses := range sequence {
		wv := w
		wv.Threads = warehouses
		var prog *core.Program
		if err := r.step(&r.t.build, "workloads.BuildWorkload", func() (err error) {
			prog, err = workloads.BuildWorkload(wv)
			return err
		}); err != nil {
			return nil, err
		}
		r.n.programs++
		r.n.classes += uint64(len(prog.Classes))
		var agent core.Agent
		if err := r.step(&r.t.prepare, "registry.New", func() (err error) {
			agent, err = registry.New(c.agent, registry.Config{})
			return err
		}); err != nil {
			return nil, err
		}
		res, err := r.runVM(c, prog, agent, opts)
		if err != nil {
			return nil, fmt.Errorf("%s under %s: %w", wv.Name, c.agent, err)
		}
		totalCycles += res.TotalCycles
		totalOps += res.Ops
		m.Truth.Add(res.Truth)
		m.GC.Add(res.GC)
		m.Report = stats.MergeReports(m.Report, res.Report)
		m.Threads = max(m.Threads, res.Threads)
		t := &m.Tier
		t.Engine = res.Tier.Engine
		t.MethodsCompiled += res.Tier.MethodsCompiled
		t.CompileFailures += res.Tier.CompileFailures
		t.UnitsInvalidated += res.Tier.UnitsInvalidated
		t.CompiledFrames += res.Tier.CompiledFrames
		t.DeoptFrames += res.Tier.DeoptFrames
		t.FallbackChunks += res.Tier.FallbackChunks
		t.InlinedSites += res.Tier.InlinedSites
		t.InlinedCalls += res.Tier.InlinedCalls
		t.OSREntries += res.Tier.OSREntries
		t.SuperinstrPairs += res.Tier.SuperinstrPairs
		t.PerMethod = jit.MergeMethodStats(t.PerMethod, res.Tier.PerMethod)
	}
	m.MedianCycles = float64(totalCycles)
	if totalCycles > 0 {
		m.MedianThroughput = float64(totalOps) / (float64(totalCycles) / 1e6)
	}
	return m, nil
}

// runVM is core.RunKeepVM, one span per layer call.
func (r *replay) runVM(c cell, prog *core.Program, agent core.Agent, opts vm.Options) (*core.RunResult, error) {
	var v *vm.VM
	var j *jni.JNI
	var env *jvmti.Env
	_ = r.step(&r.t.vmNew, "vm.New", func() error { v = vm.New(opts); return nil })
	_ = r.step(&r.t.vmNew, "jni.Attach", func() error { j = jni.Attach(v); return nil })
	_ = r.step(&r.t.vmNew, "jvmti.NewEnv", func() error { env = jvmti.NewEnv(v, j); return nil })
	classes := prog.Classes
	if agent != nil {
		if err := r.step(&r.t.prepare, "agent.OnLoad", func() error { return agent.OnLoad(env) }); err != nil {
			return nil, err
		}
		if err := r.step(&r.t.prepare, "agent.PrepareClasses", func() (err error) {
			classes, err = agent.PrepareClasses(classes)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := r.step(&r.t.vmLoad, "VM.LoadClasses", func() error { return v.LoadClasses(classes) }); err != nil {
		return nil, err
	}
	r.n.classesLoaded += uint64(len(classes))
	for _, lib := range prog.Libraries {
		if err := r.step(&r.t.vmLoad, "VM.LoadLibrary", func() error { return v.LoadLibrary(lib) }); err != nil {
			return nil, err
		}
	}
	var mainResult int64
	var run time.Duration
	err := r.step(&run, "VM.Run", func() (err error) {
		mainResult, err = v.Run(prog.MainClass, prog.MainName, prog.MainDesc, prog.Args...)
		return err
	})
	r.t.vmRun += run
	r.t.runByAgent[c.agent] += run
	r.t.runByFamily[c.sc.Family] += run
	if err != nil {
		return nil, err
	}
	res := &core.RunResult{
		Program: prog.Name, MainResult: mainResult, TotalCycles: v.TotalCycles(),
		Ops: prog.Ops, Instructions: v.InstructionsExecuted(), JITCompiled: v.JITCompiledCount(),
		Threads: len(v.Threads()), Tier: v.TierStats(), GC: v.GCStats(),
	}
	for _, t := range v.Threads() {
		bc, nat, ovh := t.GroundTruth()
		res.Truth.BytecodeCycles += bc
		res.Truth.NativeCycles += nat
		res.Truth.OverheadCycles += ovh
		res.Truth.GCCycles += t.GCCycles()
	}
	res.Truth.NativeMethodCalls = v.NativeCallCount()
	res.Truth.JNICalls = j.CallCount()
	if agent != nil {
		res.Agent = agent.Name()
		_ = r.step(&r.t.report, "agent.Report", func() error { res.Report = agent.Report(); return nil })
	}

	n := &r.n
	n.instructions += res.Instructions
	n.cycles += res.TotalCycles
	n.threads += uint64(res.Threads)
	n.nativeCalls += res.Truth.NativeMethodCalls
	n.jni += res.Truth.JNICalls
	n.gcMinor += res.GC.MinorGCs
	n.gcMajor += res.GC.MajorGCs
	n.gcPauseCycles += res.GC.GCCycles
	n.wordsAlloc += res.GC.AllocatedWords
	n.jit.compiled += res.Tier.MethodsCompiled
	n.jit.compileFailures += res.Tier.CompileFailures
	n.jit.compiledFrames += res.Tier.CompiledFrames
	n.jit.deoptFrames += res.Tier.DeoptFrames
	n.jit.osrEntries += res.Tier.OSREntries
	n.jit.inlinedCalls += res.Tier.InlinedCalls
	n.jit.unitsInvalidated += res.Tier.UnitsInvalidated
	return res, nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/resultcache"
	"repro/internal/scenarios"
	"repro/internal/scensearch"
	"repro/internal/stats"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// seeded workloads add a scensearch.Mutate variant drawn from --seed;
	// the others are fixed catalogues that ignore it.
	seeded bool
	engine jit.Engine
	scale  int
	// cache selects the result-cache traffic: "off"; "store", where the
	// timed passes run with the cache off but every replay stores its
	// payloads into a fresh rw cache, so put_s measures the write side
	// while fsync latency on a shared disk stays out of the gated times;
	// or "warm", where every pass is served from the cache set-up filled.
	cache string
	// batch is how many consecutive passes one timed sample covers, a few
	// tenths of a second of work or more on a 2-vCPU Xeon, so no per-run
	// figure rests on a millisecond-scale pass.
	batch int
	// setupRounds is how many times a run sets up; setup_s is the median
	// round.
	setupRounds int
}

// smallScale is the iteration divisor of the per-cell-cost workloads:
// each cell executes on the order of 10^4 simulated instructions.
const smallScale = 1000

var catalogue = []workload{
	{name: "campaign-jit", engine: jit.EngineJIT, scale: 1, cache: "off", batch: 1, setupRounds: 3},
	{name: "campaign-small", seeded: true, engine: jit.EngineJIT, scale: smallScale, cache: "store", batch: 8, setupRounds: 15},
	{name: "campaign-warm", seeded: true, engine: jit.EngineJIT, scale: smallScale, cache: "warm", batch: 50, setupRounds: 25},
}

func lookup(name string) (workload, error) {
	var names []string
	for _, w := range catalogue {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// config is the harness configuration of every pass: one cell at a time,
// one repetition, no warmup — what `tables` runs by default, with
// parallelism pinned to 1.
func (w workload) config() harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Runs = 1
	cfg.Scale = w.scale
	cfg.Parallelism = 1
	cfg.Opts.Tier = w.engine
	return cfg
}

// scenarioSet is the campaign's rows: the built-in all-family profile,
// plus for seeded workloads one seeded mutant — a seeded choice of the
// built-in scenarios put through scensearch.Mutate, keeping its family
// and heap spec but none of its checks — so a held-out seed gives a
// fresh cell set of the same shape. A single mutant keeps the seed's
// share of a pass small: mutants allocate several times what a built-in
// cell does at this scale, so more of them would make the figures
// depend on the seed.
func (w workload) scenarioSet(seed int64) ([]scenarios.Scenario, error) {
	base, err := scenarios.Profile("all")
	if err != nil {
		return nil, err
	}
	out := append([]scenarios.Scenario(nil), base...)
	if !w.seeded {
		return out, nil
	}
	rng := rand.New(rand.NewSource(seed))
	sc := base[rng.Intn(len(base))]
	m := scenarios.Scenario{
		Family:   sc.Family,
		Workload: scensearch.Mutate(rng, sc.Workload, sc.Name()+".m"),
		Heap:     sc.Heap,
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("mutant of %s: %w", sc.Name(), err)
	}
	return append(out, m), nil
}

// cells lists the cells one pass measures, in the order the harness
// measures them: the campaign matrix, scenario-major.
func (w workload) cells(scns []scenarios.Scenario) []cell {
	var out []cell
	for _, sc := range scns {
		for _, a := range harness.DefaultAgents() {
			out = append(out, cell{sc: sc, agent: a})
		}
	}
	return out
}

// passResult is one end-to-end pass: the rendered output a user sees and
// the campaign result it was rendered from.
type passResult struct {
	text   string
	cells  int
	failed int
	camp   *harness.CampaignResult
}

// pass runs the workload once through its public entry point,
// harness.Campaign.Run, as `tables -profile all` does, and renders it.
func (w workload) pass(ctx context.Context, cfg harness.Config, scns []scenarios.Scenario) (passResult, error) {
	camp := harness.Campaign{Scenarios: scns, Agents: harness.DefaultAgents(), Config: cfg}
	res, err := camp.Run(ctx, nil)
	if err != nil {
		return passResult{}, err
	}
	text, err := harness.RenderCampaign(res)
	if err != nil {
		return passResult{}, err
	}
	return passResult{text: text, cells: len(res.Rows), failed: res.Failed, camp: res}, nil
}

// tableRows assembles Table I and Table II rows from paper-family cell
// measurements exactly as harness.TableI/TableII do. Cells outside the
// paper catalogue (mutants, other families) are ignored.
func tableRows(cells []cell, ms []*harness.Measurement) ([]harness.TableIRow, []harness.TableIIRow, error) {
	paper, err := scenarios.Profile("paper")
	if err != nil {
		return nil, nil, err
	}
	by := map[string]*harness.Measurement{}
	for i, c := range cells {
		if ms[i] != nil {
			by[c.sc.Name()+"/"+c.agent] = ms[i]
		}
	}
	var t1 []harness.TableIRow
	var t2 []harness.TableIIRow
	for _, sc := range paper {
		none, spa, ipa := by[sc.Name()+"/none"], by[sc.Name()+"/spa"], by[sc.Name()+"/ipa"]
		if none == nil || ipa == nil {
			return nil, nil, fmt.Errorf("paper scenario %s lacks a none or ipa measurement", sc.Name())
		}
		t2 = append(t2, harness.TableIIRow{
			Benchmark:         sc.Name(),
			NativePct:         ipa.Report.NativeFraction() * 100,
			JNICalls:          ipa.Report.JNICalls,
			NativeMethodCalls: ipa.Report.NativeMethodCalls,
			TruthNativePct:    none.Truth.NativeFraction() * 100,
			PaperNativePct:    sc.Expected.PaperNativePct,
		})
		if spa == nil {
			continue
		}
		row := harness.TableIRow{
			Benchmark:          sc.Name(),
			Throughput:         sc.Expected.PaperThroughput > 0,
			PaperOverheadSPA:   sc.Expected.PaperSPAOverheadPct,
			PaperOverheadIPA:   sc.Expected.PaperIPAOverheadPct,
			TimeOriginal:       none.MedianCycles,
			TimeSPA:            spa.MedianCycles,
			TimeIPA:            ipa.MedianCycles,
			ThroughputOriginal: none.MedianThroughput,
			ThroughputSPA:      spa.MedianThroughput,
			ThroughputIPA:      ipa.MedianThroughput,
		}
		overhead := stats.OverheadTime
		orig, s, i := row.TimeOriginal, row.TimeSPA, row.TimeIPA
		if row.Throughput {
			overhead = stats.OverheadThroughput
			orig, s, i = row.ThroughputOriginal, row.ThroughputSPA, row.ThroughputIPA
		}
		if row.OverheadSPA, err = overhead(orig, s); err != nil {
			return nil, nil, err
		}
		if row.OverheadIPA, err = overhead(orig, i); err != nil {
			return nil, nil, err
		}
		t1 = append(t1, row)
	}
	return t1, t2, nil
}

// modelErrors are the three deterministic accuracy metrics over the
// paper rows, in percentage points: IPA against ground truth, the
// simulated ground truth against the paper's Table II, and the simulated
// SPA/IPA overheads against the paper's Table I.
func modelErrors(t1 []harness.TableIRow, t2 []harness.TableIIRow) (ipaErr, paperErr, overheadErr float64) {
	for _, r := range t2 {
		ipaErr += math.Abs(r.NativePct - r.TruthNativePct)
		paperErr += math.Abs(r.TruthNativePct - r.PaperNativePct)
	}
	for _, r := range t1 {
		overheadErr += math.Abs(r.OverheadSPA-r.PaperOverheadSPA) + math.Abs(r.OverheadIPA-r.PaperOverheadIPA)
	}
	return ipaErr / float64(len(t2)), paperErr / float64(len(t2)), overheadErr / float64(2*len(t1))
}

// payloads is the canonical payload of every campaign row, the bytes the
// harness would journal and cache for it.
func payloads(res *harness.CampaignResult) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(res.Rows))
	for i, r := range res.Rows {
		if r.M == nil {
			continue
		}
		raw, err := checkpoint.CanonicalPayload(r.M)
		if err != nil {
			return nil, err
		}
		out[i] = raw
	}
	return out, nil
}

// freshCache opens a new, empty rw result cache under dir.
func freshCache(dir string) (*resultcache.Cache, error) {
	d, err := os.MkdirTemp(dir, "cache-")
	if err != nil {
		return nil, err
	}
	return resultcache.Open(filepath.Join(d, "c"), resultcache.ModeRW)
}

// dropCache deletes a cache freshCache made.
func dropCache(c *resultcache.Cache) {
	if c != nil {
		os.RemoveAll(filepath.Dir(c.Dir()))
	}
}

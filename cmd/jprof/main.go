// Command jprof profiles scenarios with one of the paper's agents and
// prints the resulting reports — the command-line face of the system,
// analogous to running a JVM with -agentlib:spa or -agentlib:ipa.
//
// Usage:
//
//	jprof [-agent spa|ipa|chains|sampler|bic|aprof|none] [-engine interp|jit]
//	      [-scenario FILE] [-heap-nursery W] [-heap-tenured W] [-heap-tenure-age N]
//	      [-heap-limit W] [-scale K] [-parallel N] [-tierstats] [-list]
//	      [-cell-timeout D] [-max-retries N]
//	      [-cache-dir DIR] [-cache off|ro|rw] [-cache-verify N]
//	      [-cache-max-mb MB] [-trace FILE] [-metrics FILE]
//	      <scenario|family>... | all
//
// A cell that panics, exceeds -cell-timeout or fails is reported in
// place without aborting the batch; the process then exits with code 3
// (partial). See docs/robustness.md for the exit-code contract.
//
// Arguments name registered scenarios ("compress", "gc-churn"),
// scenario families ("paper", "gc-heavy", "exception-heavy",
// "deep-chains", "contended") or the word "all"; -scenario loads a
// declarative JSON scenario file into the registry first. Cells run
// concurrently on isolated VMs, -parallel at a time, and the reports are
// printed in argument order. With -agent none the scenario runs
// uninstrumented and only the engine's ground-truth attribution is
// printed. The chains agent additionally prints the hottest mixed
// Java/native call chains; the sampler agent demonstrates the
// related-work PC-sampling baseline.
//
// -cache-dir (default $JVMSIM_CACHE) points at the persistent
// content-addressed result cache (see docs/caching.md): a warm rerun
// serves reports from disk byte-identically and prints a stats trailer
// on stderr. -cache-verify N re-executes a deterministic 1-in-N sample
// of hits and fails loudly on mismatch.
//
// -trace FILE writes a Chrome trace_event timeline whose cell spans carry
// each report's host-side production cost (wall time, alloc_bytes,
// serving source), and -metrics FILE dumps the per-family registry with
// the matching cell_wall_ns and cell_alloc_bytes histograms (see
// docs/observability.md). Neither changes stdout.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/agents/aprof"
	"repro/internal/agents/bic"
	"repro/internal/agents/chains"
	"repro/internal/agents/ipa"
	"repro/internal/agents/registry"
	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/scenarios"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	agentName := registry.AddFlag(flag.CommandLine, "ipa")
	list := flag.Bool("list", false, "list available scenarios and exit")
	asJSON := flag.Bool("json", false, "emit the results as JSON")
	perMethod := flag.Bool("permethod", false, "with -agent ipa: per-native-method breakdown")
	tierStats := flag.Bool("tierstats", false, "append the execution tier's host-side statistics per run")
	flags := cli.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		if _, err := flags.Load(); err != nil {
			fatal(err)
		}
		for _, n := range scenarios.Names() {
			fmt.Println(n)
		}
		return
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: jprof [-agent NAME] [-engine NAME] [-scenario FILE] [-scale K] [-parallel N] [-tierstats] <scenario|family>... | all")
		os.Exit(2)
	}
	if err := registry.Validate(*agentName); err != nil {
		fatal(err)
	}
	// The JSON report is a stable engine-independent serialization (the
	// cross-engine byte-identity checks diff it); host-side tier stats
	// have no place in it, so reject the combination instead of silently
	// dropping the flag.
	if *tierStats && *asJSON {
		fatal(fmt.Errorf("-tierstats does not apply to -json (the JSON report is engine-independent by design)"))
	}
	env, err := flags.Open("jprof")
	if err != nil {
		fatal(err)
	}
	scns, err := scenarios.Resolve(flag.Args())
	if err != nil {
		fatal(err)
	}
	opts := env.Opts
	registry.TuneOptions(*agentName, &opts)
	reports := make([]cli.Report, len(scns))
	for i, s := range scns {
		reports[i] = cli.Report{
			Name:   s.Name() + "/" + *agentName,
			Family: s.Family,
			Key: func() (string, error) {
				return profileKey(s, *agentName, flags.Scale, opts, *asJSON, *perMethod, *tierStats)
			},
			Render: func(ctx context.Context) (string, error) {
				return profileOne(ctx, s, *agentName, flags.Scale, opts, *asJSON, *perMethod, *tierStats)
			},
		}
	}
	sep := "\n"
	if *asJSON {
		sep = ""
	}
	code, err := env.Reports(reports, sep, "benchmark %s: FAILED: %v\n")
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

// profileKey derives the content-addressed cache key for one report: the
// scenario's full content identity under every flag that shapes the
// rendered bytes, plus a payload-kind discriminator so jprof reports
// never collide with other tools' payloads in a shared cache directory.
func profileKey(s scenarios.Scenario, agentName string, scale int, opts vm.Options,
	asJSON, perMethod, tierStats bool) (string, error) {
	s.ApplyHeap(&opts)
	return checkpoint.CellKey(struct {
		scenarios.Identity
		Agent     string     `json:"agent"`
		Opts      vm.Options `json:"opts"`
		Scale     int        `json:"scale"`
		JSON      bool       `json:"json"`
		PerMethod bool       `json:"perMethod"`
		TierStats bool       `json:"tierStats"`
		Kind      string     `json:"payloadKind"`
	}{s.Identity(), agentName, opts, scale, asJSON, perMethod, tierStats, "jprof-rendered"})
}

// profileOne runs one scenario under a fresh agent on its own VM and
// renders the full report; rendering inside the cell keeps the output
// deterministic regardless of scheduling.
func profileOne(ctx context.Context, s scenarios.Scenario, agentName string, scale int,
	opts vm.Options, asJSON, perMethod, tierStats bool) (string, error) {
	prog, err := workloads.BuildWorkload(s.Workload.Scale(scale))
	if err != nil {
		return "", err
	}
	agent, err := registry.New(agentName, registry.Config{PerMethod: perMethod})
	if err != nil {
		return "", err
	}
	s.ApplyHeap(&opts)
	res, err := core.RunContext(ctx, prog, agent, opts)
	if err != nil {
		return "", err
	}
	if asJSON {
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return "", err
		}
		return buf.String(), nil
	}
	out := renderRun(res, agent, perMethod)
	if tierStats {
		ts := res.Tier
		out += fmt.Sprintf("\ntier %s: %d methods compiled, %d compiled frames, %d deopts, %d fallback chunks, %d invalidated, %d compile failures\n",
			ts.Engine, ts.MethodsCompiled, ts.CompiledFrames, ts.DeoptFrames,
			ts.FallbackChunks, ts.UnitsInvalidated, ts.CompileFailures)
		out += ts.RenderTier2("")
	}
	return out, nil
}

// renderRun formats one run the way jprof always has, including the
// agent-specific extras for the chains, bic and per-method IPA agents.
func renderRun(res *core.RunResult, agent core.Agent, perMethod bool) string {
	var out strings.Builder
	fmt.Fprintf(&out, "benchmark %s: %d cycles, %d threads, %d JIT-compiled methods\n",
		res.Program, res.TotalCycles, res.Threads, res.JITCompiled)
	if res.Ops > 0 {
		fmt.Fprintf(&out, "throughput: %.1f ops/Mcycles\n", res.Throughput())
	}
	fmt.Fprintf(&out, "ground truth: %.2f%% native (bytecode=%d native=%d overhead=%d cycles)\n",
		res.Truth.NativeFraction()*100, res.Truth.BytecodeCycles,
		res.Truth.NativeCycles, res.Truth.OverheadCycles)
	fmt.Fprintf(&out, "ground truth counts: %d native method calls, %d JNI calls\n",
		res.Truth.NativeMethodCalls, res.Truth.JNICalls)
	if res.GC.Collections() > 0 {
		fmt.Fprintf(&out, "heap: %d/%d arrays collected (%d words), %d minor + %d major GCs, %d tenured, %d pause cycles\n",
			res.GC.CollectedArrays, res.GC.AllocatedArrays, res.GC.CollectedWords,
			res.GC.MinorGCs, res.GC.MajorGCs, res.GC.TenurePromotions, res.GC.GCCycles)
	}
	if res.Report != nil {
		out.WriteString("\n")
		out.WriteString(res.Report.String())
	}
	switch a := agent.(type) {
	case *aprof.Agent:
		out.WriteString("\nhottest allocation sites:\n")
		out.WriteString(a.RenderTop(10))
	case *chains.Agent:
		out.WriteString("\nhottest call chains:\n")
		out.WriteString(a.RenderTop(10))
	case *bic.Agent:
		fmt.Fprintf(&out, "\nbytecode instructions executed: %d (over %d basic-block entries)\n",
			a.Instructions(), a.Blocks())
		out.WriteString("note: an instruction counter reports nothing about native time.\n")
	case *ipa.Agent:
		if perMethod {
			out.WriteString("\nper-native-method breakdown:\n")
			for _, mt := range a.MethodTimes() {
				fmt.Fprintf(&out, "  %-40s %10d calls %14d cycles\n", mt.Name, mt.Calls, mt.Cycles)
			}
		}
	}
	return out.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jprof:", err)
	os.Exit(1)
}

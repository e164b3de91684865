package scenarios

import "repro/internal/workloads"

// The built-in catalogue. The paper profile mirrors workloads.Suite()
// benchmark for benchmark; the synthetic families exercise the phase
// vocabulary the paper's fixed suite never reaches: allocation churn,
// exception unwinding, deep recursive chains and cross-thread contention.
func init() {
	registerPaper()
	registerGCHeavy()
	registerGCPressure()
	registerExceptionHeavy()
	registerDeepChains()
	registerContended()
	registerTierSensitive()
}

// registerPaper registers the eight Section V benchmarks as the "paper"
// profile. The workloads come straight from the calibrated suite, so the
// registry path generates byte-identical programs to the pre-registry
// harness.
func registerPaper() {
	for _, b := range workloads.Suite() {
		mustRegister(Scenario{
			Family:            "paper",
			Workload:          b.Spec.Workload(),
			WarehouseSequence: b.WarehouseSequence,
			Expected:          b.Expected,
			Checks: Checks{
				MaxNativePct:      35,
				MaxIPAOverheadPct: 60,
			},
		})
	}
}

// registerGCHeavy: allocation-burst workloads. Almost everything is
// bytecode-side heap churn, so the native share must stay negligible and
// IPA — which only pays at transitions — must be nearly free.
func registerGCHeavy() {
	mustRegister(Scenario{
		Family: "gc-heavy",
		Workload: workloads.Workload{
			Name: "gc-churn", ClassName: "scn/gc/Churn", OuterIters: 2500,
			Phases: []workloads.Phase{
				{Kind: workloads.PhaseBytecode, Calls: 8, Work: 4},
				{Kind: workloads.PhaseAlloc, Calls: 4, Work: 12, Size: 32},
			},
		},
		Checks: Checks{MaxNativePct: 1, MaxIPAOverheadPct: 5},
	})
	mustRegister(Scenario{
		Family: "gc-heavy",
		Workload: workloads.Workload{
			Name: "gc-arrays", ClassName: "scn/gc/Arrays", OuterIters: 1200,
			Phases: []workloads.Phase{
				{Kind: workloads.PhaseAlloc, Calls: 6, Work: 20, Size: 128},
				{Kind: workloads.PhaseArray, Work: 64},
			},
		},
		Checks: Checks{MaxNativePct: 1, MaxIPAOverheadPct: 5},
	})
}

// registerGCPressure: workloads shaped around the generational heap's
// collection machinery, each with a HeapSpec that bounds the nursery so
// collections actually run (the gc-heavy family above measures pure
// allocation throughput and stays in legacy mode). The collection-count
// minimums are declared at full calibrated size and scale down with the
// campaign's -scale like the transition-count checks.
func registerGCPressure() {
	mustRegister(Scenario{
		Family: "gcpressure",
		Workload: workloads.Workload{
			Name: "gc-nursery-thrash", ClassName: "scn/gcp/Thrash", OuterIters: 1600,
			Phases: []workloads.Phase{
				{Kind: workloads.PhaseBytecode, Calls: 4, Work: 4},
				{Kind: workloads.PhaseAlloc, Calls: 6, Work: 16, Size: 16},
			},
		},
		// Nursery far below the per-iteration burst: minor collections
		// fire several times per iteration, and since the burst arrays
		// die immediately, almost nothing survives or tenures.
		Heap:   &HeapSpec{NurseryWords: 2048},
		Checks: Checks{MaxNativePct: 1, MinMinorGCs: 1000},
	})
	mustRegister(Scenario{
		Family: "gcpressure",
		Workload: workloads.Workload{
			Name: "gc-tenure-heavy", ClassName: "scn/gcp/Tenure", OuterIters: 500,
			Phases: []workloads.Phase{
				{Kind: workloads.PhaseRetain, Calls: 2, Work: 48, Size: 32, Depth: 8},
				{Kind: workloads.PhaseBytecode, Calls: 2, Work: 6},
			},
		},
		// The retain kernel keeps a rotating window of arrays live across
		// minor collections: survivors age, tenure at 2 survivals, fill
		// the bounded tenured space and force major collections.
		Heap:   &HeapSpec{NurseryWords: 1024, TenuredWords: 512},
		Checks: Checks{MaxNativePct: 1, MinMinorGCs: 500, MinMajorGCs: 8},
	})
	mustRegister(Scenario{
		Family: "gcpressure",
		Workload: workloads.Workload{
			Name: "gc-frag-churn", ClassName: "scn/gcp/Frag", OuterIters: 400,
			Threads: 4, OpsPerIter: 2,
			Phases: []workloads.Phase{
				// Interleaved small and large allocations with a retained
				// window — the fragmentation-like churn shape: mixed
				// lifetimes and sizes hitting the same nursery.
				{Kind: workloads.PhaseAlloc, Calls: 4, Work: 10, Size: 8},
				{Kind: workloads.PhaseRetain, Calls: 1, Work: 8, Size: 96, Depth: 4},
				{Kind: workloads.PhaseAlloc, Calls: 2, Work: 3, Size: 128},
				{Kind: workloads.PhaseArray, Work: 48},
			},
		},
		// Four workers churn one shared nursery: collections triggered by
		// any thread scan the parked threads' frames at their recorded
		// canonical depths — the cross-thread root-scan path.
		Heap:   &HeapSpec{NurseryWords: 3072, TenuredWords: 16384},
		Checks: Checks{MaxNativePct: 5, MinThreads: 4, MinMinorGCs: 400},
	})
}

// registerExceptionHeavy: throw/catch/unwind workloads — every iteration
// raises exceptions that unwind real frames into catch-all handlers.
func registerExceptionHeavy() {
	mustRegister(Scenario{
		Family: "exception-heavy",
		Workload: workloads.Workload{
			Name: "exc-storm", ClassName: "scn/exc/Storm", OuterIters: 2000,
			Phases: []workloads.Phase{
				{Kind: workloads.PhaseBytecode, Calls: 4, Work: 3},
				{Kind: workloads.PhaseException, Calls: 6, Depth: 4},
			},
		},
		Checks: Checks{MaxNativePct: 1, MaxIPAOverheadPct: 5},
	})
	mustRegister(Scenario{
		Family: "exception-heavy",
		Workload: workloads.Workload{
			Name: "exc-deep-unwind", ClassName: "scn/exc/DeepUnwind", OuterIters: 800,
			Phases: []workloads.Phase{
				{Kind: workloads.PhaseException, Calls: 3, Depth: 48, Work: 8},
			},
		},
		Checks: Checks{MaxNativePct: 1, MaxIPAOverheadPct: 5},
	})
}

// registerDeepChains: recursive call-chain workloads — extreme call
// density over deep stacks, the shape where per-event profilers melt down.
func registerDeepChains() {
	mustRegister(Scenario{
		Family: "deep-chains",
		Workload: workloads.Workload{
			Name: "chain-dense", ClassName: "scn/chain/Dense", OuterIters: 1200,
			Phases: []workloads.Phase{
				{Kind: workloads.PhaseDeepChain, Calls: 8, Depth: 12, Work: 2},
			},
		},
		Checks: Checks{MaxNativePct: 1, MaxIPAOverheadPct: 5},
	})
	mustRegister(Scenario{
		Family: "deep-chains",
		Workload: workloads.Workload{
			Name: "chain-abyss", ClassName: "scn/chain/Abyss", OuterIters: 300,
			Phases: []workloads.Phase{
				{Kind: workloads.PhaseDeepChain, Calls: 2, Depth: 400, Work: 16},
				{Kind: workloads.PhaseBytecode, Calls: 4, Work: 6},
			},
		},
		Checks: Checks{MaxNativePct: 1, MaxIPAOverheadPct: 5},
	})
}

// registerTierSensitive: workloads shaped around the execution tier's
// promotion and deoptimization boundaries (internal/jit). Under
// -engine=interp they are ordinary mixed workloads; under jit they
// drive the pipeline through its edges — kernels crossing the compile
// threshold mid-run, hot/cold call-count splits, exception unwinds
// through compiled frames, and quantum boundaries landing inside
// compiled blocks on contended multi-thread runs. The campaign's
// cross-engine differential suite runs every family, so each scenario
// here doubles as a regression trap for tier-introduced divergence.
func registerTierSensitive() {
	mustRegister(Scenario{
		Family: "tier-sensitive",
		Workload: workloads.Workload{
			Name: "tier-hotcold", ClassName: "scn/tier/HotCold", OuterIters: 1500,
			Phases: []workloads.Phase{
				// The first kernel runs 12× as often as the second: one
				// promotes almost immediately, the other much later, so
				// interpreted and compiled frames coexist all run long.
				{Kind: workloads.PhaseBytecode, Calls: 12, Work: 16},
				{Kind: workloads.PhaseBytecode, Calls: 1, Work: 64},
			},
		},
		Checks: Checks{MaxNativePct: 1, MaxIPAOverheadPct: 5},
	})
	mustRegister(Scenario{
		Family: "tier-sensitive",
		Workload: workloads.Workload{
			Name: "tier-warmup", ClassName: "scn/tier/Warmup", OuterIters: 400,
			Phases: []workloads.Phase{
				// One call per iteration: the kernel crosses the default
				// compile threshold mid-loop, with the driver loop itself
				// still interpreted — the steady-state/warmup split the
				// paper's tiered JVMs exhibit.
				{Kind: workloads.PhaseBytecode, Calls: 1, Work: 48},
				{Kind: workloads.PhaseArray, Work: 48},
			},
		},
		Checks: Checks{MaxNativePct: 1, MaxIPAOverheadPct: 5},
	})
	mustRegister(Scenario{
		Family: "tier-sensitive",
		Workload: workloads.Workload{
			Name: "tier-deopt-unwind", ClassName: "scn/tier/Unwind", OuterIters: 600,
			Phases: []workloads.Phase{
				// Compiled recursive frames stacked deep, then exceptions
				// unwinding straight through them into handlers.
				{Kind: workloads.PhaseDeepChain, Calls: 2, Depth: 24, Work: 6},
				{Kind: workloads.PhaseException, Calls: 4, Depth: 6, Work: 4},
			},
		},
		Checks: Checks{MaxNativePct: 1, MaxIPAOverheadPct: 5},
	})
	mustRegister(Scenario{
		Family: "tier-sensitive",
		Workload: workloads.Workload{
			Name: "tier-quantum", ClassName: "scn/tier/Quantum", OuterIters: 700,
			Threads: 4, OpsPerIter: 2,
			Phases: []workloads.Phase{
				// Four threads hammering a shared static: scheduler quantum
				// boundaries land inside compiled blocks, forcing the
				// executor's per-instruction fallback — and the resulting
				// interleaving must match the interpreter's exactly.
				{Kind: workloads.PhaseContend, Calls: 3, Work: 20},
				{Kind: workloads.PhaseBytecode, Calls: 3, Work: 12},
			},
		},
		Checks: Checks{MaxNativePct: 5, MinThreads: 4},
	})
}

// registerContended: multi-thread workloads hammering one shared static
// field, with and without a native phase in the mix.
func registerContended() {
	mustRegister(Scenario{
		Family: "contended",
		Workload: workloads.Workload{
			Name: "contend-4", ClassName: "scn/contend/Four", OuterIters: 900,
			Threads: 4, OpsPerIter: 4,
			Phases: []workloads.Phase{
				{Kind: workloads.PhaseContend, Calls: 4, Work: 24},
				{Kind: workloads.PhaseBytecode, Calls: 4, Work: 4},
			},
		},
		Checks: Checks{MaxNativePct: 5, MinThreads: 4},
	})
	mustRegister(Scenario{
		Family: "contended",
		Workload: workloads.Workload{
			Name: "contend-8-native", ClassName: "scn/contend/EightNative", OuterIters: 400,
			Threads: 8, OpsPerIter: 2,
			Phases: []workloads.Phase{
				{Kind: workloads.PhaseContend, Calls: 2, Work: 16},
				{Kind: workloads.PhaseNative, Calls: 2, Work: 30, JNIEvery: 8, CallbackWork: 6},
			},
		},
		Checks: Checks{MaxNativePct: 30, MinThreads: 8, MinNativeCalls: 16, MinJNICalls: 8},
	})
}

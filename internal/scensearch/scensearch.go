// Package scensearch is the adversarial half of the scenario diversity
// engine: a seeded, deterministic search over the phase-workload space
// that tries to make the simulator disagree with itself. Candidates are
// mutated from a seed corpus (one minimal workload per phase kind, plus
// any caller-provided scenarios), each candidate is judged by
// differential oracles — interp|jit engines, fast vs instrumented
// dispatch loops, legacy vs generational heap configurations — and any
// divergence is automatically minimized and emitted as a pinned
// regression scenario (family "found") ready for examples/scenarios/
// found/ and the corpus-replay CI job.
//
// The search is the byte-identity contract run in reverse: instead of
// asserting agreement on hand-written workloads, it hunts for the
// workload that breaks agreement. On a correct tree it must find
// nothing; docs/scenario-search.md walks the full taxonomy.
package scensearch

import (
	"fmt"
	"math/rand"

	"repro/internal/difftest"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// telemetry family for the search counters.
const telFamily = "search"

// Config parameterizes one search run.
type Config struct {
	// Seed seeds the mutation stream; equal seeds replay identical
	// searches.
	Seed int64
	// Budget is the number of candidate workloads to generate and judge.
	Budget int
	// Oracle selects the differential contract ("engines", "loops",
	// "gc"); "" or "all" evaluates every oracle per candidate.
	Oracle string
	// Extra adds caller-provided scenarios (a -scenario file, the found/
	// corpus) to the seed pool.
	Extra []scenarios.Scenario
	// Stop, when > 0, ends the search after that many findings; the
	// default stops at the first.
	Stop int
	// Tel records the search counters; nil disables telemetry.
	Tel *telemetry.Recorder
}

// Finding is one confirmed, minimized divergence.
type Finding struct {
	// Scenario is the minimized workload with pinned canonical
	// observables, registrable as a regression scenario.
	Scenario scenarios.Scenario
	// Oracle names the contract the scenario breaks.
	Oracle string
	// Verdict is the structured diff of the minimized scenario's legs.
	Verdict *difftest.Verdict
	// Iteration is the 1-based candidate index that first diverged.
	Iteration int
}

// Result summarizes one search run.
type Result struct {
	// Iterations is the number of candidates generated.
	Iterations int
	// Evals is the number of oracle evaluations (each runs every leg).
	Evals int
	// Findings holds the minimized divergences, in discovery order.
	Findings []Finding
}

// searcher carries one run's state.
type searcher struct {
	cfg     Config
	rng     *rand.Rand
	oracles []oracle
	evals   int
}

// judge evaluates every oracle against the workload and returns the
// first diverging verdict (with its oracle), or nil.
func (s *searcher) judge(w workloads.Workload) (*difftest.Verdict, string, error) {
	for _, o := range s.oracles {
		v, err := o.evaluate(w)
		s.evals++
		s.cfg.Tel.Count(telFamily, telemetry.MetricSearchEvals, 1)
		if err != nil {
			return nil, "", err
		}
		if v.Diverged() {
			return v, o.name, nil
		}
	}
	return nil, "", nil
}

// Search runs the adversarial search to its budget (or its stop count)
// and returns the minimized findings. The only error paths are
// infrastructure failures — an unknown oracle name, a workload builder
// error; a divergence is a finding, not an error.
func Search(cfg Config) (*Result, error) {
	if cfg.Budget < 1 {
		return nil, fmt.Errorf("scensearch: budget must be >= 1")
	}
	ors, err := selectOracles(cfg.Oracle)
	if err != nil {
		return nil, err
	}
	stop := cfg.Stop
	if stop < 1 {
		stop = 1
	}
	s := &searcher{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		oracles: ors,
	}
	// The seed pool: base kinds plus caller extras. Extras are judged
	// directly first (a regression corpus should re-diverge before any
	// mutation effort is spent).
	pool := seedWorkloads()
	for _, sc := range cfg.Extra {
		pool = append(pool, sc.Workload)
	}
	res := &Result{}
	record := func(w workloads.Workload, v *difftest.Verdict, oracleName string) error {
		f, err := s.minimize(w, oracleName)
		if err != nil {
			return err
		}
		f.Iteration = res.Iterations
		res.Findings = append(res.Findings, *f)
		s.cfg.Tel.Count(telFamily, telemetry.MetricSearchFindings, 1)
		return nil
	}
	for i := 0; i < cfg.Budget && len(res.Findings) < stop; i++ {
		res.Iterations++
		s.cfg.Tel.Count(telFamily, telemetry.MetricSearchIterations, 1)
		base := pool[s.rng.Intn(len(pool))]
		var w workloads.Workload
		if i < len(cfg.Extra) {
			// First pass over the extras unmutated.
			w = copyWorkload(cfg.Extra[i].Workload)
		} else {
			w = Mutate(s.rng, base, fmt.Sprintf("cand-%d", i+1))
		}
		if err := w.Validate(); err != nil {
			// A grammar bug, not a finding; count it and move on.
			s.cfg.Tel.Count(telFamily, telemetry.MetricSearchRejected, 1)
			continue
		}
		v, oracleName, err := s.judge(w)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		if err := record(w, v, oracleName); err != nil {
			return nil, err
		}
	}
	res.Evals = s.evals
	return res, nil
}

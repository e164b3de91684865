package harness

import (
	"context"
	"os"
	"reflect"
	"testing"

	"repro/internal/jit"
	"repro/internal/scenarios"
)

// gcConfig is the gcpressure campaign configuration the differential and
// golden suites share: scale 8 (the scale the acceptance criteria pin),
// one repetition, deterministic cells.
func gcConfig() Config {
	c := DefaultConfig()
	c.Runs = 1
	c.Scale = 8
	return c
}

// gcCampaign measures the whole gcpressure family under the given
// configuration, with the uninstrumented and allocation-profiling agents
// (the family's natural pair: ground truth plus the memory-side agent).
func gcCampaign(t *testing.T, cfg Config) (*CampaignResult, string) {
	t.Helper()
	scns, err := scenarios.Profile("gcpressure")
	if err != nil {
		t.Fatal(err)
	}
	camp := Campaign{Scenarios: scns, Agents: []string{"none", "aprof"}, Config: cfg}
	res, err := camp.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i].M != nil {
			res.Rows[i].M.Tier = jit.Stats{}
		}
	}
	text, err := RenderCampaign(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, text
}

// TestGCPressureDifferentialScale8 is the gcpressure acceptance
// criterion: at scale 8 the family reports nonzero collections, and the
// campaign — rows, reports, ground truth, GC ledgers and check verdicts —
// is byte-identical between the fast and instrumented interpreter loops,
// between -engine=interp and jit, and between sequential and
// parallel cell execution.
func TestGCPressureDifferentialScale8(t *testing.T) {
	base := gcConfig()
	base.Parallelism = 1
	baseRes, baseText := gcCampaign(t, base)

	if len(baseRes.CheckFailures) != 0 {
		t.Fatalf("gcpressure checks failed at scale 8: %v", baseRes.CheckFailures)
	}
	for _, r := range baseRes.Rows {
		if r.M.GC.Collections() == 0 {
			t.Fatalf("%s/%s: no collections at scale 8", r.Scenario.Name(), r.AgentName)
		}
	}

	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"instrumented-loop", func(c *Config) { c.Opts.ForceInstrumentedLoop = true }},
		{"engine-jit", func(c *Config) { c.Opts.Tier = jit.EngineJIT }},
		{"parallel-8", func(c *Config) { c.Parallelism = 8 }},
		{"engine-jit-parallel-8", func(c *Config) { c.Opts.Tier = jit.EngineJIT; c.Parallelism = 8 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := gcConfig()
			cfg.Parallelism = 1
			tc.mutate(&cfg)
			res, text := gcCampaign(t, cfg)
			if text != baseText {
				t.Fatalf("campaign diverged from baseline:\n--- base\n%s\n--- %s\n%s", baseText, tc.name, text)
			}
			if !reflect.DeepEqual(res.Rows, baseRes.Rows) {
				t.Fatal("rows diverged beyond rendering")
			}
		})
	}
}

// TestGCPressureCampaignGolden pins the rendered gcpressure campaign —
// GC columns included — to a committed golden, the memory-subsystem
// counterpart of the paper-tables golden.
func TestGCPressureCampaignGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/gcpressure_scale8.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := gcConfig()
	cfg.Parallelism = 1
	_, text := gcCampaign(t, cfg)
	if text != string(golden) {
		t.Errorf("gcpressure campaign diverged from golden:\n--- got ---\n%s--- want ---\n%s", text, golden)
	}
}

// BenchmarkCampaignGCPressure measures the whole gcpressure family —
// bounded nurseries, tenure traffic, the aprof agent — end to end; the
// heap/GC row of the PR-over-PR benchmark ledger.
func BenchmarkCampaignGCPressure(b *testing.B) {
	scns, err := scenarios.Profile("gcpressure")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Runs = 1
	cfg.Scale = 8
	camp := Campaign{Scenarios: scns, Agents: []string{"none", "aprof"}, Config: cfg}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := camp.Run(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

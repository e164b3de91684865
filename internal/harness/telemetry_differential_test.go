package harness

import (
	"context"
	"os"
	"testing"

	"repro/internal/jit"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
)

// TestTelemetryDifferentialGolden is the never-in-payloads invariant at
// its sharpest: the paper tables at scale 8 with full telemetry enabled
// (span buffering AND the metrics registry) are byte-identical to the
// pre-telemetry golden on every engine × parallelism combination. The
// recorder is live — spans buffer, counters advance — yet not one byte
// of the canonical output moves.
func TestTelemetryDifferentialGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/paper_tables_scale8.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []jit.Engine{jit.EngineInterp, jit.EngineJIT} {
		for _, parallelism := range []int{1, 4} {
			tel := telemetry.New(true)
			cfg := DefaultConfig()
			cfg.Runs = 1
			cfg.Scale = 8
			cfg.Parallelism = parallelism
			cfg.Opts.Tier = engine
			cfg.Telemetry = tel
			rows1, err := TableI(cfg)
			if err != nil {
				t.Fatal(err)
			}
			geo, err := GeoMeanRow(rows1)
			if err != nil {
				t.Fatal(err)
			}
			t1, err := RenderTableI(rows1, geo)
			if err != nil {
				t.Fatal(err)
			}
			rows2, err := TableII(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t2, err := RenderTableII(rows2)
			if err != nil {
				t.Fatal(err)
			}
			if got := t1 + "\n" + t2; got != string(golden) {
				t.Errorf("engine=%s parallelism=%d: telemetry-on tables diverged from golden:\n--- got ---\n%s--- want ---\n%s",
					engine, parallelism, got, golden)
			}
			if tel.EventCount() == 0 {
				t.Fatalf("engine=%s parallelism=%d: recorder buffered no spans — the differential proved nothing", engine, parallelism)
			}
		}
	}
}

// TestTelemetryCampaignOnOffIdentical runs the full scenario catalogue
// twice — recorder off (nil) and fully on — and asserts the rendered
// campaign is byte-identical, while the on-run's registry actually
// observed every cell.
func TestTelemetryCampaignOnOffIdentical(t *testing.T) {
	scns, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	run := func(tel *telemetry.Recorder) string {
		cfg := testConfig()
		cfg.Parallelism = 4
		cfg.Telemetry = tel
		camp := Campaign{Scenarios: scns, Agents: []string{"none", "ipa"}, Config: cfg}
		res, err := camp.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		text, err := RenderCampaign(res)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	off := run(nil)
	tel := telemetry.New(true)
	on := run(tel)
	if on != off {
		t.Fatalf("campaign output diverged with telemetry on:\n--- off ---\n%s--- on ---\n%s", off, on)
	}
	cells := uint64(0)
	for _, fam := range scenarios.Families() {
		cells += tel.Metrics().Counter(fam, telemetry.MetricCells)
	}
	if want := uint64(len(scns) * 2); cells != want {
		t.Fatalf("registry counted %d cells across families, want %d", cells, want)
	}
}

// BenchmarkCampaignTelemetryOff and BenchmarkCampaignTelemetryOn are the
// overhead pair benchtrend gates: the same full-catalogue campaign with
// the recorder nil vs fully live (spans + metrics). CI fails when the
// on/off wall-time ratio exceeds 1.05x.
func BenchmarkCampaignTelemetryOff(b *testing.B) {
	benchmarkCampaignTelemetry(b, false)
}

func BenchmarkCampaignTelemetryOn(b *testing.B) {
	benchmarkCampaignTelemetry(b, true)
}

func benchmarkCampaignTelemetry(b *testing.B, on bool) {
	scns, err := scenarios.Profile("all")
	if err != nil {
		b.Fatal(err)
	}
	cfg := testConfig()
	// Scale down the simulated work (span count is per cell, not per
	// instruction): the op stays short enough that CI's reduced benchtime
	// still gets a statistically stable iteration count, and the smaller
	// denominator makes the on/off ratio MORE sensitive to real per-cell
	// instrumentation cost, not less.
	cfg.Scale = 100
	cfg.Parallelism = 1
	camp := Campaign{Scenarios: scns, Agents: []string{"none"}, Config: cfg}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if on {
			camp.Config.Telemetry = telemetry.New(true)
		}
		if _, err := camp.Run(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

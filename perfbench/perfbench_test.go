package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/telemetry"
)

// declared is BENCHMARK.json's metric declarations.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// testWorkload is the named workload, shrunk where a full-size pass
// takes seconds: the shape of the output does not depend on the scale.
func testWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	if w.scale == 1 {
		w.scale = 100
	}
	return w
}

// measured runs w with no timed budget: set-up plus the minimum samples.
func measured(t *testing.T, w workload, traced bool) *bench {
	t.Helper()
	b, err := newBench(context.Background(), w, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.close)
	var rec *telemetry.Recorder
	if traced {
		rec = telemetry.New(true)
	}
	if err := b.measure(0, rec); err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 || b.attempted == 0 {
		t.Fatalf("%s: %d of %d cells failed: %v", w.name, b.failed, b.attempted, b.problems)
	}
	return b
}

func TestDeclaredWorkloadsAndNames(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	for _, m := range d.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range d.PerLayer {
		names = append(names, m.Name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !metricName.MatchString(n) {
			t.Errorf("name %q does not match %s", n, metricName)
		}
		if seen[n] {
			t.Errorf("name %q declared twice", n)
		}
		seen[n] = true
	}
}

// TestEveryDeclaredMetricEmitted runs every workload in both modes and
// checks that the result line carries exactly the declared metrics, each
// with its declared unit, and that sim_mips is reported only where cells
// execute.
func TestEveryDeclaredMetricEmitted(t *testing.T) {
	d := readDeclared(t)
	check := func(t *testing.T, got metricSet, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(got.vals) != len(want) {
			t.Errorf("emitted %d metrics, declared %d", len(got.vals), len(want))
		}
		for _, m := range want {
			v, ok := got.vals[m.Name]
			if !ok {
				t.Errorf("declared metric %s not emitted", m.Name)
			} else if v.Unit != m.Unit {
				t.Errorf("%s: unit %q, declared %q", m.Name, v.Unit, m.Unit)
			}
		}
		for _, n := range got.names {
			if !metricName.MatchString(n) {
				t.Errorf("emitted name %q does not match %s", n, metricName)
			}
		}
	}
	for _, w := range catalogue {
		t.Run(w.name, func(t *testing.T) {
			b := measured(t, testWorkload(t, w.name), false)
			report, e2e := b.endToEnd()
			check(t, e2e, d.EndToEnd)
			for _, m := range d.EndToEnd {
				if e2e.vals[m.Name].Value <= 0 {
					t.Errorf("%s = %g; end-to-end metrics must be positive", m.Name, e2e.vals[m.Name].Value)
				}
			}
			_, hasMIPS := report.vals["sim_mips"]
			if hasMIPS != (w.cache != "warm") {
				t.Errorf("sim_mips reported = %v on %s", hasMIPS, w.name)
			}
			for _, n := range []string{"failed_frac", "rss_mb"} {
				if _, ok := report.vals[n]; !ok {
					t.Errorf("%s missing from the report", n)
				}
			}

			tb := measured(t, testWorkload(t, w.name), true)
			check(t, tb.perLayer(), d.PerLayer)
		})
	}
}

func TestTracedReplayLayersCarryTheWork(t *testing.T) {
	setupShare := func(name string) float64 {
		rp := measured(t, testWorkload(t, name), true).traced[0]
		setup := rp.t.build + rp.t.prepare + rp.t.vmNew + rp.t.vmLoad + rp.t.put
		return setup.Seconds() / rp.t.sum().Seconds()
	}
	jitSetup, smallSetup := setupShare("campaign-jit"), setupShare("campaign-small")
	if smallSetup <= jitSetup {
		t.Errorf("set-up layers + puts are %.3f of campaign-small but %.3f of campaign-jit", smallSetup, jitSetup)
	}
	warm := measured(t, testWorkload(t, "campaign-warm"), true)
	if rp := warm.traced[0]; rp.n.instructions != 0 || rp.n.hits != uint64(len(warm.cells)) {
		t.Errorf("campaign-warm replay executed %d instructions with %d hits of %d cells",
			rp.n.instructions, rp.n.hits, len(warm.cells))
	}
}

// batchMeans groups pass times into batches of k, as timedSample times
// them, and returns each batch's per-pass mean.
func batchMeans(passes []float64, k int) []float64 {
	var out []float64
	for i := 0; i+k <= len(passes); i += k {
		sum := 0.0
		for _, p := range passes[i : i+k] {
			sum += p
		}
		out = append(out, sum/float64(k))
	}
	return out
}

func TestSlowPassDoesNotMoveStatistic(t *testing.T) {
	const k = 4
	rng := rand.New(rand.NewSource(1))
	passes := make([]float64, 10*k)
	for i := range passes {
		passes[i] = 1 + 0.1*rng.Float64()
	}
	base := best(batchMeans(passes, k))

	// One pass slowed by contention lands in one batch.
	slow := append([]float64(nil), passes...)
	slow[2*k+1] *= 3
	if got := best(batchMeans(slow, k)); got != base {
		t.Errorf("a planted slow pass moved the estimate from %g to %g", base, got)
	}

	// A cost the program pays once every k passes, in a different pass
	// of each batch, is in every sample and so in the estimate.
	const cost = 0.2
	periodic := append([]float64(nil), passes...)
	for i := 0; i < len(periodic); i += k {
		periodic[i+rng.Intn(k)] += cost
	}
	if got, want := best(batchMeans(periodic, k)), base+cost/k; got < want-0.1*cost/k {
		t.Errorf("a periodic cost of %g per %d passes gave %g, want at least %g", cost, k, got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{0.5, 0.25, 0.75, 1, 2}, [3]float64{0.375, 0.75, 1.5}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSeedGivesFreshCellSetOfSameShape(t *testing.T) {
	w, err := lookup("campaign-small")
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.scenarioSet(1)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := w.scenarioSet(1)
	other, _ := w.scenarioSet(2)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed gave two cell sets")
	}
	if reflect.DeepEqual(a, other) || len(a) != len(other) {
		t.Errorf("seeds 1 and 2 gave %d and %d scenarios, equal=%v", len(a), len(other), reflect.DeepEqual(a, other))
	}
	for i := range a[:len(a)-1] {
		if a[i].Name() != other[i].Name() {
			t.Errorf("scenario %d: %s vs %s", i, a[i].Name(), other[i].Name())
		}
	}
	fixed, _ := lookup("campaign-jit")
	x, _ := fixed.scenarioSet(1)
	y, _ := fixed.scenarioSet(2)
	if !reflect.DeepEqual(x, y) {
		t.Error("campaign-jit is a fixed catalogue but its cells depend on the seed")
	}
}

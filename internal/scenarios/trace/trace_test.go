package trace

import (
	"reflect"
	"testing"

	"repro/internal/agents/recorder"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/jdk"
	"repro/internal/jit"
	"repro/internal/scenarios"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestRecordZiptool: the recorder's trace of the ziptool run must agree
// with the uninstrumented ground truth on the native call count and
// carry the zip kernels as its hottest natives.
func TestRecordZiptool(t *testing.T) {
	tr, res, err := RecordApp("ziptool")
	if err != nil {
		t.Fatal(err)
	}
	if tr.MainResult != res.MainResult || tr.TotalCycles != res.TotalCycles {
		t.Fatalf("trace observables drifted from the run: %+v vs %+v", tr, res)
	}
	var nativeCalls uint64
	seen := map[string]bool{}
	for _, m := range tr.Methods {
		if m.Native {
			nativeCalls += m.Calls
		}
		seen[m.Name] = true
	}
	if nativeCalls != res.Truth.NativeMethodCalls {
		t.Fatalf("recorded native calls %d, ground truth %d", nativeCalls, res.Truth.NativeMethodCalls)
	}
	for _, want := range []string{"java/util/zip/Zip.deflate(JJ)J", "java/util/zip/Zip.crc(J)J", "java/io/Stream.read(J)I"} {
		if !seen[want] {
			t.Fatalf("trace misses %s: %+v", want, tr.Methods)
		}
	}
}

// TestRecordDeterministic: recording the same program twice yields the
// identical trace — the recorder must not perturb what it measures
// non-deterministically.
func TestRecordDeterministic(t *testing.T) {
	a, _, err := RecordApp("jdkapp")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RecordApp("jdkapp")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("recording is not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestRecorderEventOrder: the bounded event log opens with the entry
// method and nests enter/exit properly.
func TestRecorderEventOrder(t *testing.T) {
	prog, err := jdk.ZiptoolProgram(2)
	if err != nil {
		t.Fatal(err)
	}
	rec := recorder.New()
	rec.MaxEvents = 64
	if _, err := core.Run(prog, rec, scenarios.CanonicalOptions()); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	if !evs[0].Enter || evs[0].Method != "app/ZipTool.main(I)J" {
		t.Fatalf("first event = %+v", evs[0])
	}
	depth := 0
	for i, e := range evs {
		if e.Enter {
			depth++
		} else {
			depth--
		}
		if depth < 0 {
			t.Fatalf("event %d unbalances the stack: %+v", i, evs[:i+1])
		}
	}
}

// replayLegs are the engine × loop configurations a compiled scenario's
// pins must hold under — the byte-identity contract applied to recorded
// scenarios.
func replayLegs() []struct {
	label string
	tune  func(*vm.Options)
} {
	return []struct {
		label string
		tune  func(*vm.Options)
	}{
		{"interp-fast", func(o *vm.Options) {}},
		{"interp-instr", func(o *vm.Options) { o.ForceInstrumentedLoop = true }},
		{"jit", func(o *vm.Options) { o.Tier = jit.EngineJIT }},
	}
}

// replayScenario runs the scenario's workload (optionally overridden)
// under every replay leg and judges the observables against the pins.
func replayScenario(t *testing.T, s scenarios.Scenario, w workloads.Workload) {
	t.Helper()
	legs := make([]difftest.Leg, 0, 4)
	for _, leg := range replayLegs() {
		prog, err := workloads.BuildWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		opts := scenarios.CanonicalOptions()
		s.ApplyHeap(&opts)
		leg.tune(&opts)
		res, err := core.Run(prog, nil, opts)
		legs = append(legs, difftest.Leg{Label: leg.label, Obs: difftest.FromRun(res, err)})
	}
	if v := difftest.Judge(s.Name(), legs); v.Diverged() {
		t.Fatalf("replay legs diverge:\n%s", v)
	}
}

// TestCompileReplayPinned is the satellite-3 contract: record ziptool and
// jdkapp, compile each to a pinned scenario, round-trip the scenario
// through the JSON file format, and assert the pinned GroundTruth holds
// byte-identically across interp|jit, fast and instrumented loops,
// sequentially and with worker threads.
func TestCompileReplayPinned(t *testing.T) {
	for _, app := range []string{"ziptool", "jdkapp"} {
		t.Run(app, func(t *testing.T) {
			s, err := CompileApp(app, app+"-trace")
			if err != nil {
				t.Fatal(err)
			}
			if s.Pins == nil || s.Pins.Scale != 1 {
				t.Fatalf("compiled scenario lacks pins: %+v", s)
			}
			if s.Family != "recorded" {
				t.Fatalf("family = %q", s.Family)
			}
			// The file format round-trips the scenario, pins included.
			data, err := scenarios.Marshal([]scenarios.Scenario{s})
			if err != nil {
				t.Fatal(err)
			}
			back, err := scenarios.ParseBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(back) != 1 || !reflect.DeepEqual(back[0], s) {
				t.Fatalf("marshal round trip drifted:\n%+v\n%+v", back, s)
			}
			// The canonical replay reproduces the pins exactly.
			if err := s.VerifyPins(); err != nil {
				t.Fatal(err)
			}
			// Every engine × loop leg agrees byte for byte, sequentially…
			replayScenario(t, s, s.Workload)
			// …and with worker threads.
			par := s.Workload
			par.Threads = 4
			replayScenario(t, s, par)
		})
	}
}

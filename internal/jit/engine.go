// Package jit is the template compilation tier of the simulated JVM's
// execution engine. It lowers verified bytecode methods into pre-resolved
// trace units — one fused three-address sequence per basic block — that
// internal/vm executes in place of the interpreter's dispatch loop once a
// method's hotness counter crosses the promotion threshold.
//
// The package owns three things:
//
//   - the lowering pass (compile.go): bytecode → per-block IR with
//     producer/consumer fusion over the verifier's static stack depths;
//   - the compiled-method cache (cache.go): units stamped with the VM's
//     relink epoch, so any class load invalidates every unit;
//   - the engine taxonomy (this file): the interp/jit -engine knob every
//     binary exposes, with shared parsing.
//
// The tier is a host-level accelerator only. It never changes simulated
// semantics: cycle accounting, ground truth, yield boundaries, reports
// and results are byte-identical across engines, which the differential
// suites in internal/vm and internal/harness pin down. Whenever an
// observer needs per-instruction semantics (a tracer, an active sampling
// hook, Options.ForceInstrumentedLoop), the VM neither promotes methods
// nor enters compiled code: it runs the instrumented interpreter loop.
package jit

import (
	"fmt"
	"strings"
)

// Engine selects the execution tier of a VM.
type Engine uint8

const (
	// EngineInterp runs everything through the interpreter's dispatch
	// loops — the pre-tier behaviour, and the default.
	EngineInterp Engine = iota
	// EngineJIT promotes hot bytecode methods to compiled trace units at
	// the configured threshold. While a per-instruction observer is
	// installed (tracer, active sampling hook, or a forced instrumented
	// loop) it neither promotes nor enters compiled code: every frame
	// would deoptimize anyway.
	EngineJIT
)

// String names the engine as the -engine flag spells it.
func (e Engine) String() string {
	switch e {
	case EngineJIT:
		return "jit"
	default:
		return "interp"
	}
}

// Engines lists the accepted -engine values in display order.
func Engines() []string { return []string{"interp", "jit"} }

// ParseEngine maps a -engine flag value to its Engine. "auto" is still
// accepted and means jit: it named the jit variant that skipped promotion
// under observers, which jit now always does. Unknown values are a hard
// error naming every accepted spelling, matching the agent registry's
// flag-validation convention: every binary rejects a bad engine the same
// way instead of silently falling back.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "interp":
		return EngineInterp, nil
	case "jit", "auto":
		return EngineJIT, nil
	}
	return EngineInterp, fmt.Errorf("jit: unknown engine %q (allowed: %s, auto)",
		s, strings.Join(Engines(), ", "))
}

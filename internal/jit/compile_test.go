package jit

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// loopKernel assembles the generated workloads' canonical hot kernel:
// for k in 0..work { x = x*31 + 7 }; return x.
func loopKernel(t *testing.T, work int) *classfile.Method {
	t.Helper()
	a := bytecode.NewAssembler()
	a.Const(int64(work))
	a.Store(1)
	top := a.NewLabel()
	end := a.NewLabel()
	a.Bind(top)
	a.Load(1)
	a.Ifle(end)
	a.Load(0)
	a.Const(31)
	a.Mul()
	a.Const(7)
	a.Add()
	a.Store(0)
	a.Inc(1, -1)
	a.Goto(top)
	a.Bind(end)
	a.Load(0)
	a.IReturn()
	m, err := a.FinishMethod("helper", "(J)J", classfile.AccPublic|classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCompileLoopKernelShape pins the lowering on the hot kernel: the
// recurrence fuses to a single KMulAddSII writing the local directly
// (store forwarding), every block accounts for its exact instruction
// span, and the loop blocks are batchable.
func TestCompileLoopKernelShape(t *testing.T) {
	m := loopKernel(t, 10)
	u, err := Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := bytecode.Decode(m.Code)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumInstrs != len(ins) {
		t.Fatalf("NumInstrs = %d, want %d (no unreachable code here)", u.NumInstrs, len(ins))
	}
	var mulAdds, totalOps int
	for _, b := range u.Blocks {
		if !b.CanBatch {
			t.Fatalf("block @%d not batchable in a pure-arithmetic kernel", b.Start)
		}
		var n int32
		for _, ch := range b.Chunks {
			if !ch.Pure {
				t.Fatalf("effect chunk in pure kernel")
			}
			n += ch.N
			totalOps += len(ch.Ops)
			for _, op := range ch.Ops {
				if op.Kind == KMulAddSII {
					mulAdds++
					if op.Dst != 0 || op.A != 0 || op.Imm != 31 || op.Imm2 != 7 {
						t.Fatalf("fused recurrence = %+v, want x0 = x0*31+7", op)
					}
				}
			}
		}
		if n+b.Term.N != b.NInstr {
			t.Fatalf("block @%d accounting: chunks %d + term %d != %d", b.Start, n, b.Term.N, b.NInstr)
		}
	}
	if mulAdds != 1 {
		t.Fatalf("mulAdd count = %d, want exactly 1 fused recurrence", mulAdds)
	}
	// The whole 6-instruction recurrence body plus the loop-control inc
	// must fuse to 2 ops; the loop header and exit contribute none.
	if totalOps > 3 {
		t.Fatalf("lowered to %d ops, expected at most 3 (fusion regressed)", totalOps)
	}
}

// TestCompileRejectsNothingInSuiteShapes: every kernel shape the workload
// generator emits must compile — a lowering gap there would silently run
// the whole suite interpreted.
func TestCompileCoversBlocksMetadata(t *testing.T) {
	m := loopKernel(t, 4)
	bbs, err := bytecode.BasicBlocks(m)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Blocks) != len(bbs) {
		t.Fatalf("unit has %d blocks, metadata has %d", len(u.Blocks), len(bbs))
	}
	for i, bb := range bbs {
		if u.Blocks[i].Start != int32(bb.Start) || u.Blocks[i].SPIn != int32(bb.DepthIn) {
			t.Fatalf("block %d = %+v, metadata %+v", i, u.Blocks[i], bb)
		}
		if u.BlockOf[bb.Start] != int32(i) {
			t.Fatalf("BlockOf[%d] = %d, want %d", bb.Start, u.BlockOf[bb.Start], i)
		}
	}
}

// TestCacheEpochInvalidation pins the relink-epoch contract: an
// Invalidate bump empties the cache and distinguishes stale stamps.
func TestCacheEpochInvalidation(t *testing.T) {
	c := NewCache()
	if c.Epoch() != 0 {
		t.Fatalf("fresh cache epoch = %d", c.Epoch())
	}
	u := &Unit{}
	c.Put("m1", u)
	c.Put("m2", u)
	if c.Len() != 2 || c.Get("m1") != u {
		t.Fatalf("cache len = %d", c.Len())
	}
	stamp := c.Epoch()
	if dropped := c.Invalidate(); dropped != 2 {
		t.Fatalf("Invalidate dropped %d, want 2", dropped)
	}
	if c.Len() != 0 || c.Get("m1") != nil {
		t.Fatal("units survived invalidation")
	}
	if c.Epoch() == stamp {
		t.Fatal("epoch did not advance")
	}
	s := c.Snapshot()
	if s.MethodsCompiled != 2 || s.UnitsInvalidated != 2 || s.UnitsLive != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Empty invalidation still bumps the epoch (a class load always
	// changes resolution state) but records no drops.
	e := c.Epoch()
	if c.Invalidate() != 0 || c.Epoch() != e+1 {
		t.Fatal("empty invalidation mishandled")
	}
}

// TestParseEngine pins the shared flag vocabulary and its rejection path;
// "auto" stays accepted as a spelling of jit.
func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
	}{{"interp", EngineInterp}, {"jit", EngineJIT}, {"auto", EngineJIT}} {
		got, err := ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
	if got := strings.Join(Engines(), ", "); got != "interp, jit" {
		t.Fatalf("Engines() = %s", got)
	}
	for _, e := range []Engine{EngineInterp, EngineJIT} {
		if back, err := ParseEngine(e.String()); err != nil || back != e {
			t.Fatalf("Engine(%d).String() = %q does not parse back", e, e)
		}
	}
	for _, bad := range []string{"", "Interp", "JIT", "fast", "interp "} {
		if _, err := ParseEngine(bad); err == nil {
			t.Fatalf("ParseEngine(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "interp, jit, auto") {
			t.Fatalf("rejection must name the allowed set, got %v", err)
		}
	}
}

// TestCompileExceptionKernel: handler blocks enter at depth 1 and the
// unit maps the handler leader, the dispatch path the executor takes
// when a compiled effect throws.
func TestCompileExceptionKernel(t *testing.T) {
	a := bytecode.NewAssembler()
	a.Load(0)
	a.Load(1)
	a.Div()
	a.IReturn()
	handler := a.Offset()
	a.EnterHandler()
	a.Const(1)
	a.Add()
	a.IReturn()
	m, err := a.FinishMethod("safediv", "(JJ)J", classfile.AccPublic|classfile.AccStatic, 2,
		[]classfile.ExceptionEntry{{StartPC: 0, EndPC: handler, HandlerPC: handler}})
	if err != nil {
		t.Fatal(err)
	}
	u, err := Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	var handlerBlock *Block
	for i := range u.Blocks {
		if u.Blocks[i].SPIn == 1 {
			handlerBlock = &u.Blocks[i]
		}
	}
	if handlerBlock == nil {
		t.Fatal("no depth-1 handler block in the unit")
	}
	if u.BlockOf[handlerBlock.Start] < 0 {
		t.Fatal("handler leader not mapped in BlockOf")
	}
	var sawDiv bool
	for _, b := range u.Blocks {
		for _, ch := range b.Chunks {
			if !ch.Pure && ch.Eff.Kind == EffDiv {
				sawDiv = true
				if ch.Eff.SP != 2 {
					t.Fatalf("div effect SP = %d, want 2", ch.Eff.SP)
				}
			}
		}
	}
	if !sawDiv {
		t.Fatal("div not lowered as an effect")
	}
}

package main

import (
	"bytes"
	"testing"

	"repro/internal/telemetry"
)

// TestDashboardTextPanel renders a fixed metrics dump — one family whose
// ten cells split across every serving source, plus the process-wide
// cache counters — and pins the text panel and the hit rate: cells served
// from the cache or an in-process dedup count as served without
// re-running; executed and verified cells do not.
func TestDashboardTextPanel(t *testing.T) {
	dump, err := telemetry.ReadDump([]byte(`{
	"schema": "jvmsim-telemetry-metrics/v1",
	"tool": "tables",
	"families": {
		"paper": {"counters": {
			"cells": 10, "cells_failed": 1, "retries": 2,
			"runs": 4, "cache_hits": 3, "dedup_hits": 2, "verified": 1,
			"tier_compiled_frames": 3, "tier_fallback_chunks": 1, "tier_methods_compiled": 5
		}},
		"_process": {"counters": {
			"cache_hits": 3, "cache_misses": 7, "cache_puts": 4, "cache_deduped": 2, "cache_verified": 1
		}}
	}
}`))
	if err != nil {
		t.Fatal(err)
	}
	db := buildDashboard(dump, nil)
	if len(db.Families) != 1 || db.Families[0].HitRate != 0.5 {
		t.Fatalf("families %+v, want one panel with a 50%% hit rate", db.Families)
	}
	var buf bytes.Buffer
	renderText(&buf, db)
	want := `# Campaign dashboard — tables metrics

paper
-----
  cells        10 total, 1 failed, 2 retries, 0 timeouts, 0 panics
  sources      4 run, 3 cache, 2 dedup, 1 verified (50.0% served without re-running)
  wall time    p50 0ns  p95 0ns  max 0ns
  tier mix     75.0% compiled frames (3 compiled, 1 fallback; 5 methods, 0 OSR, 0 deopts, 0 inlined calls)
  gc           quiet (no collections)
  bench        no BenchmarkCampaignByFamily pair in ledger entry

process
-------
  cache        3 hits, 7 misses, 4 puts, 2 deduped, 0 evicted, 1 verified
`
	if got := buf.String(); got != want {
		t.Fatalf("text panel:\n%s\nwant:\n%s", got, want)
	}
}

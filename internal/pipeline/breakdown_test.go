package pipeline

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"macrobase/internal/core"
)

// TestDegradedBreakdownElection pins hot-shard election under
// quarantine: a dead shard must never be reported as the hot shard,
// even when its pre-panic load dominates, while its points still count
// toward the shares the healthy shards are measured against.
func TestDegradedBreakdownElection(t *testing.T) {
	per := []ShardStatus{
		{Points: 700, Error: "panic: boom"},
		{Points: 200},
		{Points: 100},
	}
	b := newShardBreakdown(per, &coordState{}, core.StreamStats{}, false)
	if !b.Degraded {
		t.Error("breakdown with an errored shard not marked degraded")
	}
	if b.HotShard != 1 {
		t.Errorf("hot shard = %d, want 1 (healthiest-most-loaded; shard 0 is quarantined)", b.HotShard)
	}
	// Shares stay relative to the full routed total (1000 points), so
	// the healthy winner's imbalance reflects the real distribution:
	// 200/1000 * 3 shards.
	if want := 0.2 * 3; math.Abs(b.Imbalance-want) > 1e-12 {
		t.Errorf("imbalance = %v, want %v", b.Imbalance, want)
	}
	if len(b.PerShard) != 3 || b.PerShard[0].Error == "" {
		t.Error("quarantined shard's status must stay visible in PerShard")
	}

	// All shards dead: nobody is hot.
	for i := range per {
		per[i].Error = "panic: boom"
	}
	b = newShardBreakdown(per, &coordState{}, core.StreamStats{}, false)
	if b.HotShard != -1 {
		t.Errorf("hot shard = %d with every shard quarantined, want -1", b.HotShard)
	}
	if b.Imbalance != 0 {
		t.Errorf("imbalance = %v with every shard quarantined, want 0", b.Imbalance)
	}
}

// TestBreakdownJSONRoundTrip pins the NaN/Inf-safe encoding: a fresh
// breakdown (NaN cutoff, +Inf warmup threshold) must marshal without
// error — encoding/json rejects non-finite floats outright — and null
// must decode back to NaN rather than a plausible-looking zero.
func TestBreakdownJSONRoundTrip(t *testing.T) {
	b := newShardBreakdown([]ShardStatus{
		{Points: 10, Threshold: math.Inf(1)},
		{Points: 5, Threshold: math.NaN(), Error: "panic: boom"},
	}, &coordState{}, core.StreamStats{}, false)
	if !math.IsNaN(b.GlobalCutoff) {
		t.Fatalf("global cutoff = %v before any coordination round, want NaN", b.GlobalCutoff)
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal breakdown with NaN/Inf fields: %v", err)
	}
	if !strings.Contains(string(data), `"globalCutoff":null`) {
		t.Errorf("NaN cutoff not encoded as null: %s", data)
	}

	var back ShardBreakdown
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal breakdown: %v", err)
	}
	if !math.IsNaN(back.GlobalCutoff) {
		t.Errorf("null cutoff decoded to %v, want NaN", back.GlobalCutoff)
	}
	if !math.IsNaN(back.PerShard[1].Threshold) {
		t.Errorf("null threshold decoded to %v, want NaN", back.PerShard[1].Threshold)
	}
	if back.PerShard[0].Threshold != math.MaxFloat64 {
		t.Errorf("+Inf threshold decoded to %v, want MaxFloat64 clamp", back.PerShard[0].Threshold)
	}
	if back.HotShard != b.HotShard || back.Degraded != b.Degraded ||
		back.PerShard[1].Error != "panic: boom" {
		t.Errorf("round trip dropped fields: %+v vs %+v", back, b)
	}
}

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
	b := newShardBreakdown(per, core.StreamStats{}, false, false)
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
	b = newShardBreakdown(per, core.StreamStats{}, false, false)
	if b.HotShard != -1 {
		t.Errorf("hot shard = %d with every shard quarantined, want -1", b.HotShard)
	}
	if b.Imbalance != 0 {
		t.Errorf("imbalance = %v with every shard quarantined, want 0", b.Imbalance)
	}
}

// TestBreakdownJSONRoundTrip pins the NaN/Inf-safe encoding: a fresh
// breakdown (NaN cutoff, +Inf warmup threshold) must marshal without
// error — encoding/json rejects non-finite floats outright — with NaN
// as null and +Inf clamped to MaxFloat64.
func TestBreakdownJSONRoundTrip(t *testing.T) {
	b := newShardBreakdown([]ShardStatus{
		{Points: 10, Threshold: JSONFloat(math.Inf(1))},
		{Points: 5, Threshold: JSONFloat(math.NaN()), Error: "panic: boom"},
	}, core.StreamStats{}, false, false)
	if !math.IsNaN(float64(b.GlobalCutoff)) {
		t.Fatalf("global cutoff = %v before any coordination round, want NaN", b.GlobalCutoff)
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal breakdown with NaN/Inf fields: %v", err)
	}
	for _, want := range []string{`"globalCutoff":null`, `"threshold":null`, `"threshold":1.7976931348623157e+308`, `"error":"panic: boom"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("encoded breakdown lacks %s: %s", want, data)
		}
	}
}

// TestJSONFloat pins the wire's one rule for non-finite floats, which
// the breakdown and mbserver's explanations both encode through: NaN is
// null, ±Inf clamps to ±MaxFloat64, and a finite value is encoded as
// encoding/json encodes a float64.
func TestJSONFloat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{math.NaN(), `null`},
		{math.Inf(1), `1.7976931348623157e+308`},
		{math.Inf(-1), `-1.7976931348623157e+308`},
		{3.5, `3.5`},
		{1e-7, `1e-7`},
	} {
		got, err := json.Marshal(JSONFloat(tc.in))
		if err != nil || string(got) != tc.want {
			t.Errorf("JSONFloat(%v) = %s, %v; want %s", tc.in, got, err, tc.want)
		}
	}
}

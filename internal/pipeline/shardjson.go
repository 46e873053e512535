package pipeline

import (
	"encoding/json"
	"math"
)

// JSON marshaling for the skew-breakdown types. ShardStatus.Threshold
// and ShardBreakdown.GlobalCutoff legitimately hold NaN (no value: a
// quarantined shard, a test's fake classifier exposing no cutoff, or
// no coordination round yet) and +Inf (warmup), both of which
// encoding/json rejects outright. Every
// consumer that serializes a breakdown, such as mbserver's poll and
// stop responses, would otherwise need its own scrubbing pass, and the
// ones that forgot got a runtime "json: unsupported value: NaN".
// Mapping at the source instead: NaN encodes as null ("no value", not
// a fake zero) and ±Inf clamps to ±MaxFloat64, keeping the wire shape
// numeric for consumers that do arithmetic on it. Breakdowns are only
// encoded: a checkpoint blob (pipeline.Checkpoint) holds partition
// offsets, not breakdowns.

// safeFloat is a float64 whose JSON encoding is always legal: NaN
// becomes null, ±Inf clamps to ±MaxFloat64, finite values pass through.
type safeFloat float64

func (f safeFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte("null"), nil
	case math.IsInf(v, 1):
		v = math.MaxFloat64
	case math.IsInf(v, -1):
		v = -math.MaxFloat64
	}
	return json.Marshal(v)
}

// MarshalJSON encodes the status with its non-finite-capable fields
// made JSON-safe (see safeFloat).
func (s ShardStatus) MarshalJSON() ([]byte, error) {
	type alias ShardStatus
	return json.Marshal(struct {
		alias
		Threshold safeFloat `json:"threshold"`
	}{alias(s), safeFloat(s.Threshold)})
}

// MarshalJSON encodes the breakdown with its non-finite-capable fields
// made JSON-safe (see safeFloat). PerShard entries go through
// ShardStatus.MarshalJSON automatically.
func (b ShardBreakdown) MarshalJSON() ([]byte, error) {
	type alias ShardBreakdown
	return json.Marshal(struct {
		alias
		GlobalCutoff safeFloat `json:"globalCutoff"`
	}{alias(b), safeFloat(b.GlobalCutoff)})
}

package pipeline

import (
	"encoding/json"
	"math"
)

// JSONFloat is a float64 whose JSON encoding is always legal: NaN
// becomes null ("no value", not a fake zero), ±Inf clamps to
// ±MaxFloat64, keeping the wire shape numeric for consumers that do
// arithmetic on it, and finite values pass through. It is the wire's one
// rule for non-finite floats, which encoding/json rejects outright:
// ShardStatus.Threshold and ShardBreakdown.GlobalCutoff legitimately
// hold NaN (a quarantined shard, a test's fake classifier exposing no
// cutoff, or no coordination round yet) and +Inf (warmup), and
// mbserver's explanations carry a risk ratio and an interval bound that
// are +Inf for a combination absent from the inliers.
type JSONFloat float64

func (f JSONFloat) MarshalJSON() ([]byte, error) {
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

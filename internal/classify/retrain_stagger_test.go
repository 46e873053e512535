package classify

import (
	"reflect"
	"testing"

	"macrobase/internal/core"
)

// retrainPositions feeds n points in fixed batches and records the
// consumed-point count at every model refit.
func retrainPositions(t *testing.T, offset, n int) []int {
	t.Helper()
	s := NewStreaming(StreamingConfig{
		Dims:          1,
		RetrainEvery:  1000,
		warmupPoints:  100,
		RetrainOffset: offset,
		driftZ:        -1,
		Seed:          1,
	}, nil)
	var positions []int
	var dst []core.LabeledPoint
	batch := make([]core.Point, 50)
	prev := 0
	for fed := 0; fed < n; {
		for i := range batch {
			batch[i] = core.Point{Metrics: []float64{float64((fed + i) % 97)}}
		}
		fed += len(batch)
		dst = s.ClassifyBatch(dst[:0], batch)
		for prev < s.Retrains {
			positions = append(positions, fed)
			prev++
		}
	}
	return positions
}

// TestStreamingRetrainOffsetStaggersSchedule: RetrainOffset shifts the
// second refit earlier by the offset, then the cadence returns to
// RetrainEvery — the phase shift that keeps P shards' refit pauses
// from landing on the same ingest instant.
func TestStreamingRetrainOffsetStaggersSchedule(t *testing.T) {
	cases := []struct {
		offset int
		want   []int
	}{
		// Baseline: warmup fit at 100, then every 1000.
		{offset: 0, want: []int{100, 1100, 2100}},
		// Offset 500: the second fit fires 500 points early, then the
		// 1000-point cadence resumes from there.
		{offset: 500, want: []int{100, 600, 1600, 2600}},
		// Offset 250 (what shard 1 of 4 gets under RetrainEvery=1000).
		{offset: 250, want: []int{100, 850, 1850, 2850}},
	}
	for _, tc := range cases {
		if got := retrainPositions(t, tc.offset, 3000); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("offset %d: retrains at %v, want %v", tc.offset, got, tc.want)
		}
	}
	// A full-period offset is the same schedule as none (the modulo in
	// withDefaults), and a negative one is clamped to none.
	base := retrainPositions(t, 0, 3000)
	if got := retrainPositions(t, 1000, 3000); !reflect.DeepEqual(got, base) {
		t.Errorf("offset == RetrainEvery: retrains at %v, want baseline %v", got, base)
	}
	if got := retrainPositions(t, -7, 3000); !reflect.DeepEqual(got, base) {
		t.Errorf("negative offset: retrains at %v, want baseline %v", got, base)
	}
}

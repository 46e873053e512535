package gen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// The skewed workload's shape: skewDevices distinct device ids whose
// popularity rank r has weight 1/(r+1)^skewExponent; the top
// skewHotRanks ranks are the hot set (see SkewedDevices' pinShards), and
// skewOutlierDevices anomalous devices sit at moderate ranks just past
// it — cold enough not to perturb the hot-shard arithmetic, popular
// enough to clear support cutoffs.
const (
	skewDevices        = 200
	skewExponent       = 1.0
	skewHotRanks       = 20
	skewOutlierDevices = 2
)

// SkewData is a generated Zipf workload with its ground truth and the
// engineered hot set.
type SkewData struct {
	DeviceData
	// HotDevices lists the encoded ids holding the top skewHotRanks
	// popularity ranks, hottest first.
	HotDevices []int32
	// HotShare is the Zipf probability mass on HotDevices — with
	// pinShards engineering, the load share a pinned run concentrates
	// on shard 0 (before adding shard 0's fair share of the tail).
	HotShare float64
}

// SkewedDevices generates points points of a Zipf-skewed device
// workload, fixed by seed: device popularity follows a Zipf law, and
// (optionally) the hottest ranks are assigned device ids engineered so
// the direct hash pins them all on shard 0 — the worst case for static
// hash routing, and the workload the skew-adaptive router exists for.
//
// Popularity rank r is sampled with probability proportional to
// 1/(r+1)^skewExponent (inverse-CDF over the precomputed cumulative
// weights — math/rand/v2 ships no Zipf sampler). pinShards is the
// shard count the hot ranks are engineered against: with pinShards <=
// 1, ranks map to device ids in id order; with pinShards > 1, the hot
// ranks get device ids whose HashPartition shard is 0 and whose
// routing buckets are pairwise distinct, so a pinned run concentrates
// their combined mass on one shard while a rebalanced run can spread
// them bucket-by-bucket.
func SkewedDevices(points, pinShards int, seed uint64) *SkewData {
	rng := rand.New(rand.NewPCG(seed, seed^0x5ee1c0ffeefacade))
	enc := encode.NewEncoder("device_id")
	d := &SkewData{}
	d.Encoder = enc
	d.OutlierDevices = make(map[int32]bool, skewOutlierDevices)
	d.AllDevices = make([]int32, skewDevices)
	for i := 0; i < skewDevices; i++ {
		d.AllDevices[i] = enc.Encode(0, fmt.Sprintf("dev%06d", i))
	}

	// rankDev[r] is the device id holding popularity rank r.
	rankDev := make([]int32, 0, skewDevices)
	if pinShards > 1 {
		buckets := core.RoutingBuckets(pinShards)
		seenBucket := make(map[int]bool, skewHotRanks)
		hot := make(map[int32]bool, skewHotRanks)
		// First pass: shard-0 ids in distinct buckets, hottest ranks.
		for _, id := range d.AllDevices {
			if len(rankDev) == skewHotRanks {
				break
			}
			pt := core.Point{Attrs: []int32{id}}
			if core.HashPartition(&pt, pinShards) != 0 {
				continue
			}
			if b := core.HashBucket(&pt, buckets); !seenBucket[b] {
				seenBucket[b] = true
				rankDev = append(rankDev, id)
				hot[id] = true
			}
		}
		// Second pass (rare): relax bucket distinctness if the device
		// population couldn't fill the hot set.
		for _, id := range d.AllDevices {
			if len(rankDev) == skewHotRanks {
				break
			}
			pt := core.Point{Attrs: []int32{id}}
			if core.HashPartition(&pt, pinShards) == 0 && !hot[id] {
				rankDev = append(rankDev, id)
				hot[id] = true
			}
		}
		for _, id := range d.AllDevices {
			if !hot[id] {
				rankDev = append(rankDev, id)
			}
		}
	} else {
		rankDev = append(rankDev, d.AllDevices...)
	}
	d.HotDevices = append([]int32(nil), rankDev[:skewHotRanks]...)

	// Plant the anomalous devices at moderate ranks, just past the hot
	// set.
	for k := range skewOutlierDevices {
		d.OutlierDevices[rankDev[skewHotRanks+10+k]] = true
	}

	// Cumulative Zipf weights over ranks.
	cum := make([]float64, len(rankDev))
	total := 0.0
	for r := range cum {
		total += 1 / math.Pow(float64(r+1), skewExponent)
		cum[r] = total
	}
	d.HotShare = cum[skewHotRanks-1] / total

	d.Points = make([]core.Point, points)
	for i := range d.Points {
		u := rng.Float64() * total
		r := sort.SearchFloat64s(cum, u)
		if r >= len(rankDev) {
			r = len(rankDev) - 1
		}
		dev := rankDev[r]
		var v float64
		if d.OutlierDevices[dev] {
			v = deviceOutlierMean + rng.NormFloat64()*deviceStdDev
		} else {
			v = deviceInlierMean + rng.NormFloat64()*deviceStdDev
		}
		d.Points[i] = core.Point{
			Metrics: []float64{v},
			Attrs:   []int32{dev},
			Time:    float64(i),
		}
	}
	return d
}

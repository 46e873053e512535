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
// skewHotRanks ranks are the hot set (see SkewConfig.PinShards), and
// skewOutlierDevices anomalous devices sit at moderate ranks just past
// it — cold enough not to perturb the hot-shard arithmetic, popular
// enough to clear support cutoffs.
const (
	skewDevices        = 200
	skewExponent       = 1.0
	skewHotRanks       = 20
	skewOutlierDevices = 2
)

// SkewConfig parameterizes a Zipf-skewed device workload: device
// popularity follows a Zipf law, and (optionally) the hottest ranks
// are assigned device ids engineered so the direct hash pins them all
// on shard 0 — the worst case for static hash routing, and the
// workload the skew-adaptive router exists for.
type SkewConfig struct {
	// Points is the number of generated points (default 200_000).
	Points int
	// PinShards is the shard count the hot ranks are engineered
	// against (0 disables the engineering; ranks map to devices in id
	// order). With PinShards > 1, the hot ranks get device ids whose
	// HashPartition shard is 0 and whose routing buckets are pairwise
	// distinct, so a pinned run concentrates their combined mass on
	// one shard while a rebalanced run can spread them
	// bucket-by-bucket.
	PinShards int
	// Seed fixes the generated stream.
	Seed uint64
}

// SkewData is a generated Zipf workload with its ground truth and the
// engineered hot set.
type SkewData struct {
	DeviceData
	// HotDevices lists the encoded ids holding the top skewHotRanks
	// popularity ranks, hottest first.
	HotDevices []int32
	// HotShare is the Zipf probability mass on HotDevices — with
	// PinShards engineering, the load share a pinned run concentrates
	// on shard 0 (before adding shard 0's fair share of the tail).
	HotShare float64
}

// routingBucketsFor mirrors the routing table's bucket count in
// internal/core (routingBuckets): the smallest multiple of shards >=
// core.DefaultRoutingBuckets. The generator needs it to pick
// hot devices in distinct buckets, so a rebalance can actually separate
// them.
func routingBucketsFor(shards int) int {
	v := core.DefaultRoutingBuckets
	if v < shards {
		v = shards
	}
	if rem := v % shards; rem != 0 {
		v += shards - rem
	}
	return v
}

// SkewedDevices generates the Zipf workload. Popularity rank r is
// sampled with probability proportional to 1/(r+1)^skewExponent
// (inverse-CDF over the precomputed cumulative weights — math/rand/v2
// ships no Zipf sampler); ranks map to device ids either in id order
// or, with PinShards set, through the engineered hot set.
func SkewedDevices(cfg SkewConfig) *SkewData {
	if cfg.Points == 0 {
		cfg.Points = 200_000
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5ee1c0ffeefacade))
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
	if cfg.PinShards > 1 {
		buckets := routingBucketsFor(cfg.PinShards)
		seenBucket := make(map[int]bool, skewHotRanks)
		hot := make(map[int32]bool, skewHotRanks)
		// First pass: shard-0 ids in distinct buckets, hottest ranks.
		for _, id := range d.AllDevices {
			if len(rankDev) == skewHotRanks {
				break
			}
			pt := core.Point{Attrs: []int32{id}}
			if core.HashPartition(&pt, cfg.PinShards) != 0 {
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
			if core.HashPartition(&pt, cfg.PinShards) == 0 && !hot[id] {
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

	d.Points = make([]core.Point, cfg.Points)
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

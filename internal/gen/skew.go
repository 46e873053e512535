package gen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"macrobase/internal/core"
	"macrobase/internal/encode"
)

// SkewConfig parameterizes a Zipf-skewed device workload: device
// popularity follows a Zipf law, and (optionally) the hottest ranks
// are assigned device ids engineered so the direct hash pins them all
// on shard 0 — the worst case for static hash routing, and the
// workload the skew-adaptive router exists for.
type SkewConfig struct {
	// Points is the number of generated points (default 200_000).
	Points int
	// Devices is the number of distinct device ids (default 200).
	Devices int
	// Exponent is the Zipf exponent s: rank r's weight is
	// 1/(r+1)^s (default 1.0).
	Exponent float64
	// HotRanks is how many of the top popularity ranks are pinned
	// (default 20). With PinShards > 0, those ranks get device ids
	// whose HashPartition shard is 0 and whose routing buckets are
	// pairwise distinct, so a pinned run concentrates their combined
	// mass on one shard while a rebalanced run can spread them
	// bucket-by-bucket.
	HotRanks int
	// PinShards is the shard count the hot ranks are engineered
	// against (0 disables the engineering; ranks map to devices in id
	// order).
	PinShards int
	// OutlierDevices is the number of anomalous devices (default 2),
	// planted at moderate ranks — cold enough not to perturb the
	// hot-shard arithmetic, popular enough to clear support cutoffs.
	OutlierDevices int
	// Seed fixes the generated stream.
	Seed uint64
}

func (c SkewConfig) withDefaults() SkewConfig {
	if c.Points == 0 {
		c.Points = 200_000
	}
	if c.Devices == 0 {
		c.Devices = 200
	}
	if c.Exponent == 0 {
		c.Exponent = 1.0
	}
	if c.HotRanks == 0 {
		c.HotRanks = 20
	}
	if c.OutlierDevices == 0 {
		c.OutlierDevices = 2
	}
	return c
}

// SkewData is a generated Zipf workload with its ground truth and the
// engineered hot set.
type SkewData struct {
	DeviceData
	// HotDevices lists the encoded ids holding the top HotRanks
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
// sampled with probability proportional to 1/(r+1)^Exponent
// (inverse-CDF over the precomputed cumulative weights — math/rand/v2
// ships no Zipf sampler); ranks map to device ids either in id order
// or, with PinShards set, through the engineered hot set.
func SkewedDevices(cfg SkewConfig) *SkewData {
	cfg = cfg.withDefaults()
	if cfg.HotRanks > cfg.Devices {
		cfg.HotRanks = cfg.Devices
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5ee1c0ffeefacade))
	enc := encode.NewEncoder("device_id")
	d := &SkewData{}
	d.Encoder = enc
	d.OutlierDevices = make(map[int32]bool, cfg.OutlierDevices)
	d.AllDevices = make([]int32, cfg.Devices)
	for i := 0; i < cfg.Devices; i++ {
		d.AllDevices[i] = enc.Encode(0, fmt.Sprintf("dev%06d", i))
	}

	// rankDev[r] is the device id holding popularity rank r.
	rankDev := make([]int32, 0, cfg.Devices)
	if cfg.PinShards > 1 {
		buckets := routingBucketsFor(cfg.PinShards)
		seenBucket := make(map[int]bool, cfg.HotRanks)
		hot := make(map[int32]bool, cfg.HotRanks)
		// First pass: shard-0 ids in distinct buckets, hottest ranks.
		for _, id := range d.AllDevices {
			if len(rankDev) == cfg.HotRanks {
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
			if len(rankDev) == cfg.HotRanks {
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
	d.HotDevices = append([]int32(nil), rankDev[:cfg.HotRanks]...)

	// Plant the anomalous devices at moderate ranks, just past the hot
	// set (clamped for tiny populations).
	for k := 0; k < cfg.OutlierDevices; k++ {
		r := cfg.HotRanks + 10 + k
		if r >= len(rankDev) {
			r = len(rankDev) - 1 - k
			if r < 0 {
				break
			}
		}
		d.OutlierDevices[rankDev[r]] = true
	}

	// Cumulative Zipf weights over ranks.
	cum := make([]float64, len(rankDev))
	total := 0.0
	for r := range cum {
		total += 1 / math.Pow(float64(r+1), cfg.Exponent)
		cum[r] = total
	}
	hotMass := 0.0
	if cfg.HotRanks > 0 {
		hotMass = cum[cfg.HotRanks-1]
	}
	d.HotShare = hotMass / total

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
			v = 70 + rng.NormFloat64()*10
		} else {
			v = 10 + rng.NormFloat64()*10
		}
		d.Points[i] = core.Point{
			Metrics: []float64{v},
			Attrs:   []int32{dev},
			Time:    float64(i),
		}
	}
	return d
}

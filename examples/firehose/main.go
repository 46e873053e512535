// Firehose: push-based partitioned ingestion end-to-end.
//
// Three producer goroutines — think three collector processes tailing
// three Kafka partitions — push batches of power-drain readings
// directly into a resident sharded streaming session through
// ingest.Push. There is no ingest file and no single pull loop: each
// partition feeds the shard workers from its own goroutine, with
// bounded-queue backpressure, while the main goroutine polls the live
// explanation set mid-stream and finally stops the session.
//
// The planted anomaly is fleet-shaped: a 200-device fleet where one
// device (d7) drains abnormally on app version 2.26.3. The hash router
// pins every {d7, 2.26.3} point to one shard, so that shard runs
// hotter than its siblings — the per-shard skew report printed at the
// end makes the imbalance visible. An anomaly heavy enough to inflate
// its home shard's local percentile cutoff used to silently drag the
// merged risk ratio down; periodic global threshold coordination (on
// by default, see the coordination section in doc.go and the
// TestGlobalThresholdFixesHotShardDrift regression) now pools the
// shards' score quantiles into one global cutoff, so the report
// survives the skew.
//
// Run:
//
//	go run ./examples/firehose
//
// With -skew <s>, device+version popularity follows a Zipf law with
// exponent s instead of the uniform fleet, and the hottest
// combinations are deliberately chosen among those the static hash
// pins to shard 0 — the workload the skew-adaptive router exists for.
// The example then runs the same stream twice, once with the routing
// table pinned (DisableRebalance) and once with coordinator-driven
// bucket rebalancing, and prints the before/after routing report: the
// pinned imbalance, the live imbalance/epoch/moves trajectory as
// rebalances land, and the final per-shard breakdown. Try:
//
//	go run ./examples/firehose -skew 1.0
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"macrobase/internal/core"
	"macrobase/internal/encode"
	"macrobase/internal/ingest"
	"macrobase/internal/pipeline"
)

const (
	partitions  = 3
	shards      = 4
	perProducer = 60_000
)

// comboSampler draws (device, version) pairs from a Zipf law over the
// full combination grid. With pinning, the hottest ranks are given
// combinations that HashPartition routes to shard 0 in pairwise
// distinct routing buckets, so a pinned run concentrates their mass on
// one shard while the rebalancer can spread them bucket by bucket.
type comboSampler struct {
	cum   []float64
	total float64
	dev   []string
	ver   []string
}

func newComboSampler(s float64, enc *encode.Encoder, devices int, versions []string) *comboSampler {
	type combo struct {
		dev, ver string
		shard, b int
	}
	combos := make([]combo, 0, devices*len(versions))
	for d := 0; d < devices; d++ {
		for _, v := range versions {
			dev := fmt.Sprintf("d%d", d)
			pt := core.Point{Attrs: []int32{enc.Encode(0, dev), enc.Encode(1, v)}}
			combos = append(combos, combo{
				dev: dev, ver: v,
				shard: core.HashPartition(&pt, shards),
				b:     core.HashBucket(&pt, core.DefaultRoutingBuckets),
			})
		}
	}
	// Hot set: the first 24 shard-0 combinations in distinct buckets.
	const hotRanks = 24
	sm := &comboSampler{}
	seenBucket := map[int]bool{}
	hot := map[int]bool{}
	for i, c := range combos {
		if len(sm.dev) == hotRanks {
			break
		}
		if c.shard == 0 && !seenBucket[c.b] {
			seenBucket[c.b] = true
			hot[i] = true
			sm.dev = append(sm.dev, c.dev)
			sm.ver = append(sm.ver, c.ver)
		}
	}
	for i, c := range combos {
		if !hot[i] {
			sm.dev = append(sm.dev, c.dev)
			sm.ver = append(sm.ver, c.ver)
		}
	}
	sm.cum = make([]float64, len(sm.dev))
	for r := range sm.cum {
		sm.total += 1 / math.Pow(float64(r+1), s)
		sm.cum[r] = sm.total
	}
	return sm
}

func (s *comboSampler) sample(rng *rand.Rand) (dev, ver string) {
	r := sort.SearchFloat64s(s.cum, rng.Float64()*s.total)
	if r >= len(s.dev) {
		r = len(s.dev) - 1
	}
	return s.dev[r], s.ver[r]
}

// pollSample is one point on the routing trajectory.
type pollSample struct {
	points    int
	imbalance float64
	epoch     int64
	moves     int64
}

// runFirehose drives one full firehose run: producers, live polls, and
// a stop. It returns the final result and the poll-time trajectory.
func runFirehose(cfg pipeline.Config, sampler *comboSampler, enc *encode.Encoder,
	versions []string, verbose bool) (*pipeline.ShardedResult, []pollSample) {

	src := ingest.NewPush(partitions)
	sess, err := pipeline.StartPartitionedStream(src, cfg, shards)
	if err != nil {
		panic(err)
	}

	// Producers block in SendBatch when the pipeline is behind, so they
	// need a way out if the engine dies instead of draining (e.g. an
	// ingest failure): this context cancels the moment the session
	// terminates, turning a would-be deadlock into a clean producer exit.
	prodCtx, cancelProds := context.WithCancel(context.Background())
	defer cancelProds()
	go func() {
		for !sess.Done() {
			time.Sleep(10 * time.Millisecond)
		}
		cancelProds()
	}()

	// N independent producers, one per partition, each with its own
	// RNG and batch cadence. Each builds its batches through the
	// buffer-loan API: GetBatch hands back a recycled slab batch, the
	// producer appends rows into it, and SendBatch transfers ownership
	// to the stream — the engine returns consumed batches to the same
	// free list, so the steady-state producer loop never allocates.
	var producers sync.WaitGroup
	for p := 0; p < partitions; p++ {
		producers.Add(1)
		go func(p int) {
			defer producers.Done()
			rng := rand.New(rand.NewPCG(uint64(p), 99))
			pr := src.Producer(p)
			ctx := prodCtx
			metrics := make([]float64, 1)
			attrs := make([]int32, 2)
			for sent := 0; sent < perProducer; {
				batch := pr.GetBatch()
				for i := 0; i < 2000; i++ {
					var dev, ver string
					if sampler != nil {
						dev, ver = sampler.sample(rng)
					} else {
						dev = fmt.Sprintf("d%d", rng.IntN(200))
						ver = versions[rng.IntN(len(versions))]
					}
					drain := 10 + rng.NormFloat64()*2
					switch {
					case dev == "d7" && ver == "2.26.3" && rng.Float64() < 0.8:
						drain = 45 + rng.NormFloat64()*5 // the buggy device+version
					case rng.Float64() < 0.002:
						drain = 45 + rng.NormFloat64()*5 // sporadic background issues
					}
					metrics[0] = drain
					attrs[0] = enc.Encode(0, dev)
					attrs[1] = enc.Encode(1, ver)
					batch.Append(metrics, attrs, 0)
				}
				n := batch.Len()
				// SendBatch blocks when the pipeline falls behind: the
				// producer feels backpressure instead of buffering
				// without bound (the blocked time shows up in the
				// ingest stats below).
				if err := pr.SendBatch(ctx, batch); err != nil {
					return
				}
				sent += n
			}
			pr.Close()
		}(p)
	}

	// Poll the live view while producers are still pushing, recording
	// the routing trajectory.
	var traj []pollSample
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		res, err := sess.Poll()
		if err != nil {
			panic(err)
		}
		s := pollSample{points: res.Stats.Points, epoch: res.Stats.RoutingEpoch, moves: res.Stats.BucketMoves}
		if res.Shards != nil {
			s.imbalance = res.Shards.Imbalance
		}
		traj = append(traj, s)
		if verbose {
			fmt.Printf("live poll %d: %d points in, %d outliers, %d explanations\n",
				i+1, res.Stats.Points, res.Stats.Outliers, len(res.Explanations))
		}
	}

	// Every producer has closed its partition once done, so the stream
	// drains and terminates on its own; waiting for that keeps the
	// final report covering all 180K points (stopping earlier would
	// legitimately drop whatever was still queued — stop means stop).
	// Stop then just collects the final result.
	producers.Wait()
	for !sess.Done() {
		time.Sleep(5 * time.Millisecond)
	}
	final, err := sess.Stop()
	if err != nil {
		panic(err)
	}
	return final, traj
}

func main() {
	skew := flag.Float64("skew", 0, "Zipf exponent for device+version popularity; hot combos pinned to shard 0 (0 = uniform fleet)")
	flag.Parse()

	enc := encode.NewEncoder("device", "app_version")
	versions := []string{"2.25.0", "2.26.0", "2.26.3"}
	cfg := pipeline.Config{
		Dims:         1,
		Percentile:   0.99,
		MinSupport:   0.05,
		MinRiskRatio: 3,
		Seed:         7,
	}

	var sampler *comboSampler
	if *skew > 0 {
		sampler = newComboSampler(*skew, enc, 200, versions)
		// Before: the same skewed stream with the routing table pinned
		// to the static hash — the baseline the rebalancer is judged
		// against.
		pinnedCfg := cfg
		pinnedCfg.DisableRebalance = true
		pinned, _ := runFirehose(pinnedCfg, sampler, enc, versions, false)
		fmt.Printf("pinned baseline (zipf s=%.2f, rebalance off): hot shard %d, imbalance %.2f\n\n",
			*skew, pinned.Shards.HotShard, pinned.Shards.Imbalance)
	}

	final, traj := runFirehose(cfg, sampler, enc, versions, true)

	enc.Decorate(final.Explanations)
	fmt.Printf("\nfinal: %d points across %d partitions -> %d shards, %d outliers\n",
		final.Stats.Points, partitions, shards, final.Stats.Outliers)
	// The engine surfaced the producer-side counters in the final
	// stats: how much each partition queued and how long its producer
	// spent blocked on backpressure.
	for p, ig := range final.Stats.Ingest {
		fmt.Printf("partition %d: %d batches / %d points accepted, producer blocked %v total\n",
			p, ig.Batches, ig.Points, time.Duration(ig.BlockedNanos))
	}
	// The skew breakdown: per-shard load and threshold state, the
	// hot-shard imbalance (1.0 = perfectly balanced, P = total skew),
	// and the coordinated global cutoff the shards converged on.
	if b := final.Shards; b != nil {
		fmt.Printf("skew: hot shard %d, imbalance %.2f, %d coordination rounds, global cutoff %.2f\n",
			b.HotShard, b.Imbalance, b.CoordRounds, b.GlobalCutoff)
		if b.Rebalancing {
			fmt.Printf("routing: epoch %d, %d bucket moves; imbalance trajectory:\n", b.RoutingEpoch, b.BucketMoves)
			for _, s := range traj {
				fmt.Printf("  %7d points: imbalance %.2f, epoch %d, moves %d\n", s.points, s.imbalance, s.epoch, s.moves)
			}
			fmt.Printf("  %7d points: imbalance %.2f, epoch %d, moves %d (final)\n",
				final.Stats.Points, b.Imbalance, b.RoutingEpoch, b.BucketMoves)
		}
		for i, s := range b.PerShard {
			fmt.Printf("shard %d: %d points, %d outliers (rate %.4f), threshold %.2f (global=%v)\n",
				i, s.Points, s.Outliers, s.OutlierRate, s.Threshold, s.GlobalThreshold)
		}
	}
	for i, e := range final.Explanations {
		fmt.Printf("%d. %s\n", i+1, e.String())
	}
}

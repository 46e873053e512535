package core

// DefaultRoutingBuckets is the default virtual-bucket count for the
// skew-adaptive router. The effective count is rounded up to a multiple
// of the shard count so the identity table reproduces HashPartition
// placement bit-exactly until the first rebalance (see RebalancePolicy).
const DefaultRoutingBuckets = 256

// RebalancePolicy enables skew-adaptive routing on a StreamRunner:
// instead of hashing a point directly to a shard, the scatter loop
// hashes it to one of V virtual buckets and looks the bucket up in a
// versioned routing table ([]int32, bucket -> shard) read through an
// atomic pointer — one extra array index per point, zero allocations.
// The coordinator goroutine watches per-bucket load counters and, when
// the healthy-shard load imbalance exceeds Above, greedily reassigns
// the hottest buckets to the coolest healthy shards and publishes a new
// table under the next routing epoch. Buckets resident on quarantined
// shards are evacuated unconditionally; quarantined shards are never
// move targets.
//
// The same-attribute-vector-same-shard invariant is preserved (a bucket
// moves wholesale, and a point's bucket is a pure function of its
// attributes), but one attribute set's *history* is split across the
// old and new shard after a move. That is exactly the cross-shard split
// the PR-1 merge laws already handle: merged sketches sum counts with
// summed error bounds, and every mined table path recounts support
// canonically via ItemsetSupport, so polls remain consistent across
// moves.
//
// The policy is ignored when the runner has a single shard: there is
// nothing to rebalance.
type RebalancePolicy struct {
	// Buckets is the requested virtual-bucket count V (default
	// DefaultRoutingBuckets). The effective count is the smallest
	// multiple of the shard count >= max(Buckets, shards), so that the
	// initial identity table assign[b] = b % shards makes
	// (hash % V) % shards == hash % shards: routing is bit-identical to
	// HashPartition for every shard count until a rebalance fires.
	Buckets int
	// Above is the imbalance trigger (default 1.5): the hottest healthy
	// shard's share of the measurement window, multiplied by the shard
	// count. 1.0 is perfect balance; below Above the table is left
	// alone (hysteresis — rebalancing has a cost: a moved bucket splits
	// its attribute sets' counts across two shards' summaries).
	Above float64
	// Every is the rebalance cadence in ingested points (default
	// 25_000). When threshold coordination is also configured, rounds
	// ride the coordinator's own cadence instead and Every is ignored.
	Every int
}

// rebalConfig is a RebalancePolicy with defaults applied and the bucket
// count normalized against the shard count.
type rebalConfig struct {
	buckets  int
	above    float64
	every    int
	maxMoves int
}

func (p *RebalancePolicy) normalize(shards int) rebalConfig {
	v := p.Buckets
	if v <= 0 {
		v = DefaultRoutingBuckets
	}
	if v < shards {
		v = shards
	}
	if rem := v % shards; rem != 0 {
		v += shards - rem
	}
	above := p.Above
	if above <= 1 {
		above = 1.5
	}
	every := p.Every
	if every <= 0 {
		every = 25_000
	}
	// A round moves at most V/4 buckets: that bounds both the per-round
	// work and the count-splitting churn.
	return rebalConfig{buckets: v, above: above, every: every, maxMoves: max(v/4, 1)}
}

// routeTable is one immutable routing epoch: assign[bucket] = shard.
// The scatter loops load the current table through an atomic pointer
// once per read batch; the coordinator publishes a successor by storing
// a fresh table (copy-on-write — an in-flight reader keeps its epoch
// for the rest of its batch, which only defers a move by one batch).
type routeTable struct {
	epoch  int64
	assign []int32
}

// hashAttrs is the FNV-1a attribute hash shared by HashPartition and
// the bucket router. Must stay byte-for-byte identical between the two:
// the identity routing table is bit-exact with HashPartition only
// because both reduce the same hash.
func hashAttrs(attrs []int32) uint32 {
	h := uint32(2166136261)
	for _, a := range attrs {
		v := uint32(a)
		h ^= v & 0xff
		h *= 16777619
		h ^= (v >> 8) & 0xff
		h *= 16777619
		h ^= (v >> 16) & 0xff
		h *= 16777619
		h ^= v >> 24
		h *= 16777619
	}
	return h
}

// HashBucket maps a point to a virtual routing bucket in [0, buckets).
// Points sharing an attribute vector always share a bucket, so a bucket
// move relocates whole attribute sets. Attribute-less points return -1:
// they carry no itemsets, so the router spreads them round-robin across
// buckets instead of pinning them anywhere (see the scatter loop).
func HashBucket(p *Point, buckets int) int {
	if len(p.Attrs) == 0 {
		return -1
	}
	return int(hashAttrs(p.Attrs) % uint32(buckets))
}

// rebalanceAssign is the greedy rebalancing step, pure so it can be
// unit-tested: given the current assignment, the per-bucket load window
// win, and per-shard health, it rewrites assign in place and returns
// the number of buckets moved.
//
// Phase 1 evacuates buckets resident on unhealthy shards to the
// coolest healthy shard, unconditionally. Phase 2 fires only when the
// hottest healthy shard's windowed share times the shard count exceeds
// above: it repeatedly moves the largest bucket that fits inside the
// hot/cool gap (a move must strictly reduce the pair's maximum, which
// guarantees termination) until the window imbalance drops to the
// midpoint target (1+above)/2, no improving bucket remains, or
// maxMoves is spent.
func rebalanceAssign(assign []int32, win []int64, healthy []bool, above float64, maxMoves int) int {
	shards := len(healthy)
	nHealthy := 0
	for _, ok := range healthy {
		if ok {
			nHealthy++
		}
	}
	if nHealthy == 0 || shards < 2 {
		return 0
	}
	loads := make([]int64, shards)
	var total int64
	for b, s := range assign {
		loads[s] += win[b]
		total += win[b]
	}
	coolest := func() int {
		c := -1
		for s := 0; s < shards; s++ {
			if healthy[s] && (c < 0 || loads[s] < loads[c]) {
				c = s
			}
		}
		return c
	}
	hottest := func() int {
		h := -1
		for s := 0; s < shards; s++ {
			if healthy[s] && (h < 0 || loads[s] > loads[h]) {
				h = s
			}
		}
		return h
	}
	moves := 0
	// Phase 1: a dead shard keeps none of its buckets, loaded or not —
	// points routed there are dropped on the floor, so every bucket is
	// worth saving regardless of its window count.
	for b, s := range assign {
		if healthy[s] {
			continue
		}
		c := coolest()
		assign[b] = int32(c)
		loads[c] += win[b]
		loads[s] -= win[b]
		moves++
		if moves >= maxMoves {
			return moves
		}
	}
	if total == 0 {
		return moves
	}
	imbalance := func() float64 {
		return float64(loads[hottest()]) / float64(total) * float64(shards)
	}
	if imbalance() <= above {
		return moves
	}
	// Phase 2: settle toward the midpoint between perfect balance and
	// the trigger, so a round that fires leaves real headroom below the
	// trigger (hysteresis against move churn).
	target := (1 + above) / 2
	for moves < maxMoves && imbalance() > target {
		h, c := hottest(), coolest()
		if h == c {
			break
		}
		gap := loads[h] - loads[c]
		best, bw := -1, int64(0)
		for b, s := range assign {
			if int(s) == h && win[b] > bw && win[b] < gap {
				best, bw = b, win[b]
			}
		}
		if best < 0 {
			break // every remaining bucket is too big to help
		}
		assign[best] = int32(c)
		loads[h] -= bw
		loads[c] += bw
		moves++
	}
	return moves
}

// rebalState is the coordinator's scratch across rebalance rounds:
// cumulative per-bucket counts at the last judged round (last) and this
// round (cur), their difference (win — the measurement window that
// drives the greedy step), and the per-shard health snapshot.
type rebalState struct {
	last, cur, win []int64
	healthy        []bool
}

func newRebalState(buckets, shards int) *rebalState {
	return &rebalState{
		last:    make([]int64, buckets),
		cur:     make([]int64, buckets),
		win:     make([]int64, buckets),
		healthy: make([]bool, shards),
	}
}

// maybeRebalance runs one rebalance round on the coordinator goroutine:
// snapshot the per-partition bucket counters, diff against the previous
// judged snapshot to get the window, run the greedy step over a copy of
// the current table, and publish a new epoch if anything moved.
//
// Rounds are triggered on ingest progress but run whenever the
// coordinator gets there, so two can land a handful of points apart. A
// window holding fewer than half a cadence (coordEvery/2 points) is
// therefore not judged: last stays where it is and the window keeps
// accumulating until it is worth judging. A dead shard is evacuated at
// once, whatever the window.
func (r *StreamRunner) maybeRebalance(workers []*shardWorker, st *rebalState) {
	rt := r.route.Load()
	if rt == nil {
		return
	}
	for b := range st.cur {
		st.cur[b] = 0
	}
	for _, pl := range r.bucketLoads {
		for b := range pl {
			st.cur[b] += pl[b].Load()
		}
	}
	var total int64
	for b := range st.cur {
		st.win[b] = st.cur[b] - st.last[b]
		total += st.win[b]
	}
	anyDead := false
	for i, w := range workers {
		st.healthy[i] = !w.dead()
		if !st.healthy[i] {
			anyDead = true
		}
	}
	if !anyDead && total < max(1, r.coordEvery/2) {
		return
	}
	copy(st.last, st.cur)
	next := make([]int32, len(rt.assign))
	copy(next, rt.assign)
	moves := rebalanceAssign(next, st.win, st.healthy, r.rebal.above, r.rebal.maxMoves)
	if moves == 0 {
		return
	}
	r.route.Store(&routeTable{epoch: rt.epoch + 1, assign: next})
	r.moves.Add(int64(moves))
}

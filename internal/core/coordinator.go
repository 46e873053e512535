package core

// ShardCoordinator periodically reconciles the shards' classification
// cutoffs across the shared-nothing shards: every
// StreamRunner.CoordinateEvery ingested points the coordinator goroutine
// collects one summary per shard (Collect runs on the shard's worker
// goroutine between batches, like snapshots), merges them into one
// global cutoff off to the side (Merge runs on the coordinator
// goroutine), and pushes the cutoff back to every shard (Apply, again on
// the worker goroutines). Rounds are serialized: a round's applies all
// land before the next round's collects begin. The last merged cutoff
// is part of the run's account (StreamStats.GlobalCutoff).
//
// The consistency model is deliberately loose — coordination is
// periodic and asynchronous with ingestion, so a shard applies a
// global cutoff computed from summaries up to one round old, and the
// points a worker consumes while a round is in flight still see the
// previous value. CoordinateEvery bounds that staleness window in
// ingested points. This is the Muppet-style "exchange small summaries
// between workers" pattern: cheap enough to run frequently, eventually
// consistent between rounds.
type ShardCoordinator struct {
	// Collect returns shard's current summary; nil means the shard has
	// nothing to contribute this round.
	Collect func(shard int, pl ShardPipeline) any
	// Merge combines the per-shard summaries (indexed by shard, nil
	// entries included) into the global cutoff. ok=false skips the
	// round's apply phase (e.g. every summary was empty). A
	// quarantined shard's entry is a ShardFailure marker instead of a
	// Collect result; Merge implementations must skip entries that are
	// not their own summary type.
	Merge func(summaries []any) (cutoff float64, ok bool)
	// Apply installs the merged cutoff on shard.
	Apply func(shard int, pl ShardPipeline, cutoff float64)
}

// startCoordinator starts the coordinator goroutine when the run has
// something to coordinate — threshold rounds (Coordinate set) or
// rebalance checks (a rebalancing run) — and arms notePoints to wake it
// every coordEvery ingested points. Both jobs ride the one goroutine
// and the one cadence. It talks to the workers only through fanOut,
// like snapshots, and Wait retires it (stopCoordinator) before the
// workers stop serving requests, so Wait cannot hand the pipelines to
// its caller while a Collect or Apply still touches them.
func (r *StreamRunner) startCoordinator(workers []*shardWorker) {
	r.coordEvery = int64(r.CoordinateEvery)
	if r.coordEvery <= 0 {
		r.coordEvery = 25_000
	}
	r.coordCh = nil
	if r.Coordinate == nil && r.bucketLoads == nil {
		return
	}
	r.coordCh = make(chan struct{}, 1)
	r.coordDone = make(chan struct{})
	go r.coordinate(workers)
}

// stopCoordinator retires the coordinator, if the run has one. Wait
// calls it once every ingest loop has exited, so no signal can follow
// the close, and once every worker has drained: a boundary crossed
// shortly before end-of-stream still gets its pass, against the final
// state, and no pass can then race the teardown.
func (r *StreamRunner) stopCoordinator() {
	if r.coordCh != nil {
		close(r.coordCh)
		<-r.coordDone
	}
}

// notePoints advances the ingested-point counter and signals the
// coordinator when the count crosses a pass boundary (coordEvery
// ingested points). The send is non-blocking: a signal already pending
// stands for this one too (passes are periodic, not queued).
func (r *StreamRunner) notePoints(n int64) {
	nv := r.ingested.Add(n)
	if r.coordCh == nil {
		return
	}
	every := r.coordEvery
	if nv/every != (nv-n)/every {
		select {
		case r.coordCh <- struct{}{}:
		default:
		}
	}
}

// coordinate is the coordinator goroutine: on each boundary signal it
// runs one pass — a threshold round (collect a summary from every
// shard on the shards' worker goroutines, merge on this goroutine, and
// apply the merged cutoff back to every shard) when Coordinate is set,
// then a rebalance check over the bucket load counters when the run
// rebalances. It exits once stopCoordinator closes coordCh, after the
// pass a pending signal still asks for.
func (r *StreamRunner) coordinate(workers []*shardWorker) {
	defer close(r.coordDone)
	sums := make([]any, len(workers))
	var rb *rebalState
	if r.bucketLoads != nil {
		rb = newRebalState(len(r.route.Load().assign), len(workers))
	}
	for range r.coordCh {
		if r.Coordinate != nil && !r.coordRound(workers, sums) {
			return
		}
		if rb != nil {
			r.maybeRebalance(workers, rb)
		}
		r.passes.Add(1)
	}
}

// coordRound runs one collect/merge/apply round; false means a worker
// retired mid-round (the round is abandoned safely: see fanOut).
// Gathering every apply before returning is what serializes rounds.
func (r *StreamRunner) coordRound(workers []*shardWorker, sums []any) bool {
	c := r.Coordinate
	if !fanOut(workers, c.Collect, sums) {
		return false
	}
	cut, ok := c.Merge(sums)
	if !ok {
		return true
	}
	r.cutoff.Store(&cut)
	apply := func(shard int, pl ShardPipeline) any {
		c.Apply(shard, pl, cut)
		return nil
	}
	if !fanOut(workers, apply, sums) {
		return false
	}
	r.rounds.Add(1)
	return true
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
	// A round moves at most V/4 buckets: that bounds both the per-round
	// work and the count-splitting churn.
	moves := rebalanceAssign(next, st.win, st.healthy, rebalanceAbove, max(len(next)/4, 1))
	if moves == 0 {
		return
	}
	r.route.Store(&routeTable{epoch: rt.epoch + 1, assign: next})
	r.moves.Add(int64(moves))
}

package core

import "macrobase/internal/stats"

// startCoordinator starts the coordinator goroutine when the run has
// something to coordinate — threshold rounds (Coordinate positive) or
// rebalance checks (a rebalancing run) — and arms notePoints to wake it
// every coordEvery ingested points. Both jobs ride the one goroutine
// and the one cadence. It talks to the workers only through fanOut,
// like snapshots, and Wait retires it (stopCoordinator) before the
// workers stop serving requests, so Wait cannot hand the pipelines to
// its caller while a collect or apply still touches them.
func (r *StreamRunner) startCoordinator(workers []*shardWorker) {
	r.coordEvery = int64(r.CoordinateEvery)
	if r.coordEvery <= 0 {
		r.coordEvery = 25_000
	}
	r.coordCh = nil
	if r.Coordinate <= 0 && r.bucketLoads == nil {
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
// runs one pass — a threshold round when Coordinate is positive, then a
// rebalance check over the bucket load counters when the run
// rebalances. It exits once stopCoordinator closes coordCh, after the
// pass a pending signal still asks for.
func (r *StreamRunner) coordinate(workers []*shardWorker) {
	defer close(r.coordDone)
	var th *thresholdRound
	if r.Coordinate > 0 {
		th = newThresholdRound(len(workers))
	}
	var rb *rebalState
	if r.bucketLoads != nil {
		rb = newRebalState(len(r.route.Load().assign), len(workers))
	}
	for range r.coordCh {
		if th != nil && !r.coordRound(workers, th) {
			return
		}
		if rb != nil {
			r.maybeRebalance(workers, rb)
		}
		r.passes.Add(1)
	}
}

// scoreSample is one shard's part of a threshold round: its
// classifier's score sample and the stream weight the sample stands
// for (ThresholdCoordinable.ScoreSample).
type scoreSample struct {
	scores []float64
	weight float64
}

// thresholdRound is the coordinator's scratch for threshold rounds,
// reused across them: one sample slot per shard, which the shard's
// worker fills during the collect, and the pooled (score, weight)
// pairs. Rounds are serialized, so no two uses of a slot overlap.
type thresholdRound struct {
	samples []scoreSample
	pairs   []stats.KeyIdx // (score, position) of every pooled score
	wts     []float64      // wts[i] is the weight of the pair whose Idx is i
	cut     float64        // the cutoff the apply installs
	// collect and apply are built once, so a round allocates no
	// closure.
	collect, apply func(shard int, pl ShardPipeline)
}

func newThresholdRound(shards int) *thresholdRound {
	th := &thresholdRound{samples: make([]scoreSample, shards)}
	th.collect = func(shard int, pl ShardPipeline) {
		if tc, ok := pl.Classifier.(ThresholdCoordinable); ok {
			s := &th.samples[shard]
			s.scores, s.weight = tc.ScoreSample(s.scores)
		}
	}
	th.apply = func(_ int, pl ShardPipeline) {
		if tc, ok := pl.Classifier.(ThresholdCoordinable); ok {
			tc.SetGlobalThreshold(th.cut)
		}
	}
	return th
}

// coordRound runs one threshold round: clear every shard's slot,
// collect the live shards' samples on their worker goroutines, pool
// them here at quantile Coordinate, and apply the pooled cutoff back to
// the live shards. A shard that runs no collect — quarantined, or its
// classifier coordinates nothing — contributes nothing, not an earlier
// round's sample. A round with nothing to pool applies nothing. false
// means a worker retired mid-round: the run is over. Waiting out every
// apply before returning is what serializes rounds.
func (r *StreamRunner) coordRound(workers []*shardWorker, th *thresholdRound) bool {
	for i := range th.samples {
		th.samples[i] = scoreSample{scores: th.samples[i].scores[:0]}
	}
	if !fanOut(workers, true, th.collect) {
		return false
	}
	cut, ok := th.pool(r.Coordinate)
	if !ok {
		return true
	}
	r.cutoff.Store(&cut)
	th.cut = cut
	if !fanOut(workers, true, th.apply) {
		return false
	}
	r.rounds.Add(1)
	return true
}

// pool is the weighted q-quantile of the union of the slots' samples,
// in shard order, each score weighted by its sample's
// weight/len(scores) (stats.WeightedQuantile). Empty and zero-weight
// samples are skipped; ok is false when every sample is.
func (th *thresholdRound) pool(q float64) (cutoff float64, ok bool) {
	th.pairs, th.wts = th.pairs[:0], th.wts[:0]
	for _, s := range th.samples {
		n := len(s.scores)
		if n == 0 || s.weight <= 0 {
			continue
		}
		per := s.weight / float64(n)
		for _, v := range s.scores {
			th.pairs = append(th.pairs, stats.KeyIdx{Key: v, Idx: len(th.wts)})
			th.wts = append(th.wts, per)
		}
	}
	if len(th.pairs) == 0 {
		return 0, false
	}
	return stats.WeightedQuantile(th.pairs, th.wts, q), true
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

// Package macrobase is a from-scratch Go reproduction of MacroBase
// (Bailis et al., "MacroBase: Prioritizing Attention in Fast Data",
// SIGMOD 2017): a fast-data analytics engine that classifies points in
// high-volume streams with robust statistical models and explains the
// outlying class with attribute combinations ranked by relative risk.
//
// The implementation lives under internal/, the runnable entry points
// under cmd/ and examples/, and the benchmark suite regenerating every
// table and figure of the paper's evaluation in bench_test.go plus
// internal/experiments.
//
// # Sharded streaming execution
//
// One engine runs every streaming query, over stored data and live
// streams alike: the shared-nothing sharded streaming engine
// (core.StreamRunner, pipeline.RunPartitionedStream). At one shard over
// a one-partition source it is the paper's single-core dataflow runtime
// (Appendix C), which is how pipeline.RunStreaming runs. Ingest
// goroutines — one per source partition, see the ingest section below —
// hash-partition batches by attribute set across P shard workers over
// bounded channels; each shard owns its own classifier and explainer
// replicas and local decay clock, so one shard is exactly the paper's
// EWS pipeline over its hash partition. The pipeline runs MDP and
// nothing else, in one-shot and streaming mode alike: a custom stage,
// such as a feature transform (transform.STFT) or a hybrid classifier
// (classify.HybridOr), is code its caller runs before or instead of
// MDP, as examples/electricity and examples/telematics do.
// Per-shard streaming summaries (AMC sketches, M-CPS-trees) are
// mergeable in the mergeable-summaries sense — merged error bounds
// sum — and a merge stage reconciles them into one globally ranked
// explanation set, either on demand while the stream runs
// (pipeline.StreamSession.Poll, served by cmd/mbserver's /stream
// endpoints) or when the stream terminates. A run is live as soon as it
// starts: core.StreamRunner.Start builds every shard's operators and
// workers, the account and the commit trackers before it returns, so
// the first Snapshot and Stats calls, and so a new session's first Poll
// and Checkpoint, answer for the run with no
// retry; Wait drains it, and core.ErrNotStreaming means only that the
// run is over. The stage folds what mining needs in one piece — the two
// sketches and the outlier tree, about 1% of the mass — and leaves the
// inlier trees where they are: the explanation stage only ever asks the
// inlier side for the support of the few hundred combinations the
// outlier side proposes (paper §5.2-5.3), and the support of an itemset
// in a union of disjoint transaction multisets is the sum of its
// supports in the parts. So a merged explainer borrows the shards'
// inlier trees (explain.Streaming.Merge aliases them, read-only) and
// answers each candidate with Σ over shards of cps.Tree.ItemsetSupport,
// own tree first, then shard order; the union inlier tree that every
// poll used to build (clone shard 0's, replay every path of the
// others' into it: ~70% of a two-shard poll) exists only for a caller
// that writes to a merged explainer, and as the test oracle
// (explain.TestBorrowedInliersMatchUnionTree). The borrowed trees must
// stay unmutated while the merged explainer lives, which every caller
// satisfies by construction: a live poll merges clones of its own, the
// final reconciliation the shard explainers after Wait has returned.
//
// Consistency trade-off vs. single-shard EWS (the streaming analog of
// the paper's Figure 11): the router hashes a point's full attribute
// set, so points with identical attribute vectors always land on one
// shard; sub-combinations of multi-attribute data (e.g. {device=d7}
// alone when points carry device and version) still span shards, and
// their merged counts are exact only up to the summed sketch error
// bounds, which is what the mergeable-summaries property guarantees.
// Additionally, each shard trains its classifier on only its partition
// of the metric distribution, and per-shard decay clocks tick on
// shard-local point counts rather than the global count. Score cutoffs,
// which used to drift apart across shards the same way, are reconciled
// by periodic global threshold coordination (see the next section);
// with coordination disabled they revert to shard-local percentile
// estimates. Pick shard
// counts accordingly: P=1 reproduces sequential EWS exactly; P up to
// the core count buys near-linear throughput at a small accuracy cost
// that shrinks as per-shard sample sizes grow; past the core count
// extra shards only fragment the training samples. Benchmark with
// BenchmarkShardedStream (bench_test.go), which sweeps P from 1 to
// GOMAXPROCS on the streaming MDP workload.
//
// # Global threshold coordination
//
// Why per-shard cutoffs are wrong under skew: the percentile threshold
// is a quantile of the score distribution, and quantiles do not
// compose across arbitrary partitions of the data. The hash router
// keeps each attribute set on one shard, so an anomalous population
// concentrated in a few attribute sets lands on a few shards and
// inflates their local cutoffs — most anomalous points get labeled
// inliers there — while the remaining shards keep flagging their
// cleanest ~1-percentile of background as outliers. Merged across
// shards, the anomaly's risk ratio collapses into the noise and the
// report silently loses it (the skew-induced answer drift pinned by
// TestGlobalThresholdFixesHotShardDrift).
//
// The fix is periodic cross-shard coordination of the one statistic
// that must be global. A classifier whose cutoff can be coordinated is
// a core.ThresholdCoordinable: classify.Streaming exports a score
// sample (the ADR score reservoir's sample and its decayed weight);
// every Config.CoordinateEvery points of stream progress, a coordinator
// goroutine in core.StreamRunner collects the live shards' samples on
// their worker goroutines between batches, as the snapshot path does,
// pools them into a weighted global quantile at Config.Percentile
// (stats.WeightedQuantile — each reservoir weighted by the decayed
// point mass it represents), and pushes the pooled cutoff back to every
// live shard (classify.Streaming.SetGlobalThreshold). A quarantined
// shard takes no part: its slot is cleared before each collect, so a
// round never pools the sample it gave before it died. A global cutoff overrides the shard-local
// percentile estimate and suppresses local drift correction until the
// shard's next retrain recomputes — and re-coordinates — from fresh
// local state.
//
// Consistency model: coordination is asynchronous and best-effort.
// Rounds fire on ingest progress, collection does not pause workers,
// and between rounds shards classify against a cutoff up to
// CoordinateEvery points (plus one collection round-trip) stale —
// classification results near a cutoff shift are therefore
// order-dependent, and coordinated multi-shard runs are not bit-exact
// run to run. The boundary cases stay deterministic: P=1 runs never
// start a coordinator (one pipeline already computes the global
// quantile), and Config.DisableGlobalThreshold restores the old
// per-shard behavior exactly — both are pinned bit-exact against the
// sequential oracle and the manual-partition golden. A final round flushes any
// pending boundary crossing at end of stream, so short streams still
// coordinate at least once. Observability rides along:
// core.StreamStats carries per-shard load/outlier stats and the round
// count, and pipeline.ShardedResult.Shards (the "shards" block in
// mbserver's /stream/{id}) reports per-shard points, outlier rates and
// threshold state, the hot-shard imbalance metric (hottest shard's
// load share times P; 1.0 is perfectly balanced, P is total skew), and
// the last global cutoff.
//
// # One account of a run
//
// Each quantity a run reports is counted once, by the goroutine that
// causes it. A shard's worker owns its shard's counters — points taken
// in (every one of which it classifies, so they are what its outlier
// rate is over), outliers, decay ticks, points a quarantine dropped,
// and the quarantine record — in one
// cache-line-padded block only its worker writes, so a per-batch add
// never contends. The ingest goroutines count the points they route,
// which also paces the coordinator; the coordinator counts its rounds,
// passes and bucket moves and keeps the cutoff its last round merged;
// each partition's commit tracker holds its committed offset; and an
// observable source (ingest.Push) meters its producers.
//
// The contract: every core.StreamStats field comes from one
// core.StreamRunner.Stats call, and nothing else reads the run's
// account. Stats answers from the moment Start returns to after Wait
// returns (the counters, trackers and source are captured at Start and
// outlive the worker set teardown drops), and Wait's final account is
// one more Stats read, taken once the workers have retired; Wait adds
// no field of its own. The fields are cumulative counters and the last
// value of a monotone process (the routing epoch, the merged cutoff,
// committed offsets), except one instantaneous field: an ingest entry's
// Queued, the batches buffered at the read. No field is a rate: a
// reader takes a counter's change between two of its own reads over
// the time it measured between them, as a metrics scraper does, so no
// read (a poll, a checkpoint, Wait) changes what another sees. A poll
// and a checkpoint read the same account: the poll's "ingest" block in
// mbserver is StreamStats.Ingest (so a finished session reports the
// counters as the run ended), the breakdown's cutoff is
// StreamStats.GlobalCutoff (beside a flag, so that two reads compare
// equal, as a NaN would not), and Checkpoint acks
// StreamStats.Committed. core.TestStatsIsTheWholeAccountMidRun,
// pipeline.TestLivePollEqualsFinal and mbserver's
// TestPushPollIngestIsTheAccount check it, and ingest's
// TestPushIngestReadsAreIndependent and mbserver's
// TestCheckpointReadsLeavePollIngestAlone that no read moves another.
//
// A live poll and the final result are then built by one function
// (pipeline.StreamSession's newResult) from one Stats read and one view
// per shard: the poll's snapshot clones, or the replicas once Wait has
// returned. The poll reads Stats after its snapshot round, so a shard
// that ran no view there because it was quarantined is already among
// ShardFailures. A shard's outlier rate is its outliers over the points
// it classified in both. So a poll of a stream whose every point has
// been consumed equals the final result: statistics, committed offsets,
// the cumulative ingest counters, per-shard breakdown and ranked
// explanations (pipeline.TestLivePollEqualsFinal).
//
// # Skew-adaptive routing
//
// Threshold coordination fixes what skew does to the cutoff; it does
// nothing for what skew does to throughput. The hash router pins every
// attribute set to one shard forever, so a Zipf-popular handful of
// attribute sets turns one shard into the convoy the whole stream waits
// on — backpressure is end-to-end, so P shards deliver the hot shard's
// throughput, not P times the mean. Every multi-shard run therefore
// routes through one level of indirection, and there is no other scatter
// path: the scatter loop hashes a point's attributes to one of V virtual
// buckets (core.HashBucket; V is core.RoutingBuckets(P):
// core.DefaultRoutingBuckets, 256, rounded up to a multiple of P) and
// looks the bucket up in a versioned routing table ([]int32, bucket ->
// shard) read through an atomic pointer. A rebalancing run also adds
// one per-bucket load-counter increment per point; the data plane stays
// allocation-free either way (the Route/p3s4 kernel gates 0 allocs/op
// with rebalancing active). A single shard has no table: each
// read's batch is handed to the worker whole.
//
// Rebalancing rides the coordinator's one cadence, Config.CoordinateEvery
// (core.StreamRunner.CoordinateEvery), with or without threshold
// coordination: the coordinator goroutine runs exactly when there are
// threshold rounds or rebalance checks to do, and each pass runs
// whichever of them the run has. A rebalance check snapshots the
// per-bucket counters (single-writer per partition, summed by the
// coordinator), diffs them against the last judged round into a load
// window, and — when the hottest healthy shard's windowed share times P
// exceeds the fixed trigger 1.5 (core's rebalanceAbove constant; there
// is no setting) — greedily moves the largest movable buckets to the
// coolest healthy shards until the window settles at the midpoint between the trigger and perfect
// balance (hysteresis against churn), then publishes the rewritten
// table under the next epoch (copy-on-write; in-flight scatter loops
// finish their batch on the old epoch, deferring a move by at most one
// batch). Rounds fire on ingest progress but run whenever the
// coordinator gets there, so two can land a handful of points apart; a
// window of fewer than half a cadence of points is therefore not judged
// but kept open until it is worth judging (five or nine points on one
// shard read as a 2x imbalance). Quarantined shards are evacuated
// unconditionally, whatever the window, and are never move targets,
// which converts the degraded-mode story from "drop the dead shard's
// hash range forever" into "lose at most one coordination window"
// (TestRebalanceEvacuatesDeadShard).
//
// Consistency model: a bucket move splits an attribute set's history
// across its old and new shard — exactly the cross-shard split the
// merge laws already absorb. Merged sketches sum counts within summed
// error bounds, risk ratios are computed from the merged counts, and
// the mined table recounts support canonically via ItemsetSupport, so
// a poll is invariant to where the counts live: the
// rebalanced-vs-pinned differential (TestRebalancedMatchesPinnedExplanations)
// requires identical ranked explanation sets, not merely similar ones.
// Determinism boundaries mirror coordination's: rebalance rounds fire
// on asynchronous ingest progress, so rebalanced multi-shard runs are
// not bit-exact run to run; P=1 never starts a router, and
// Config.DisableRebalance pins the identity table — whose placement of
// every point with attributes is bit-identical to HashPartition because
// V is a multiple of P — both pinned against the manual-partition
// golden. HashPartition is that placement oracle (and the generators'
// helper); the runner never calls it. Attribute-less points
// (metrics-only streams) carry no itemsets and no placement invariant,
// so every multi-shard run, rebalancing or not, spreads them
// round-robin instead of letting hash(()) pin them all on shard 0.
// Observability: StreamStats.RoutingEpoch/
// BucketMoves, the "rebalancing"/"routingEpoch"/"bucketMoves" fields in
// the shards block, and the firehose example's -skew flag, which prints
// the pinned-vs-rebalanced before/after report.
//
// # Flat-arena explanation structures
//
// The paper's headline throughput comes from keeping the per-point
// path cheap: attributes are interned to integer ids at ingest
// (encode.Encoder) and every explanation structure then operates on
// machine integers. This repo takes the next step and keeps that path
// allocation-free and cache-resident:
//
//   - Node arenas. cps.Tree (M-CPS/CPS) and fptree.Tree store nodes in
//     one contiguous slab ([]itemtree.Node addressed by int32 indexes).
//     A node is its count, item, parent and per-item node-link, 24
//     bytes (itemtree's TestNodeLayout pins it); its children are the
//     nodes naming it as parent, in descending index order. Child
//     lookup is constant time at every level: the root's children
//     through a dense rank-indexed table (all a one-attribute query
//     ever uses), every deeper node through an arena-owned
//     open-addressed (parent, item) -> child hash index in one flat
//     []int32 — with six attributes of cardinality 40-5000 the fan-out
//     sits at depth two and three, where scanning a node's children
//     was 61% of a complex query's server CPU. The index is
//     scratch derived from the node slab: Clone does not copy it, an
//     insert rebuilds it lazily, Reset drops it in O(1)
//     (internal/itemtree has the invariants). Decay is a linear sweep
//     over the slab, and Clone (the cost of every sharded-poll
//     snapshot) is a handful of slab memcpys instead of a path-by-path
//     rebuild.
//
//   - Dense id tables. Per-item rank, header, frequent-filter, and
//     sketch tables are flat slices indexed directly by attribute id.
//     This relies on a load-bearing invariant: encode.Encoder issues
//     ids densely from zero, so an id doubles as an array index.
//     Components that accept ids from outside the encoder must either
//     preserve density or use the map-backed generic forms
//     (sketch.AMC[K]); sketch.DenseAMC is the slice-backed fast path
//     with identical decay/prune/merge semantics. Negative ids are
//     ignored everywhere.
//
//   - Allocation-free steady state. Tree inserts, DenseAMC observes,
//     and classify.Streaming.ClassifyBatch allocate nothing once warm
//     (guarded by testing.AllocsPerRun regression tests): transaction
//     sorting is insertion sort over reusable scratch rather than
//     sort.Slice closures, window-boundary restructures reuse
//     flattened path-extraction buffers, and reservoir admission is
//     gated (sample.ADR.OfferSlot) so the rare admitted point copies
//     into — and recycles the backing array of — the displaced
//     resident.
//
// Output equivalence with the pre-arena structures is pinned by golden
// tests (internal/explain/testdata): ranked explanations, sequential
// and sharded-merge alike, are unchanged on the paper workloads.
//
// # The decay tick
//
// Every DecayEveryPoints points each explainer decays its sketches and
// restructures both M-CPS-trees (paper §5.3, Appendix B): counts
// shrink, items that left the frequent set are pruned, and the tree is
// re-sorted into the new frequency-descending order. The order moved
// on every tick ever counted (60 of 60 in a firehose_xc run), so a
// tick cannot leave the tree where it is. cps.Tree.Restructure
// rebuilds it in three passes and no child-index probe:
//
//   - One reverse sweep over the slab adds each node's count to its
//     parent's running sum. A node's children are taken in descending
//     index order (internal/itemtree, "Child order"), latest created
//     first, whatever numbering the slab has, and a node's count minus
//     that sum is the weight of the transactions ending there. The sums
//     take one float64 per node in the tree's path-weight buffer, which
//     the extracted weights then overwrite; the buffer is kept across
//     ticks.
//   - Each extracted path is rewritten in place as the ascending new
//     ranks of the items it keeps, and its weight goes to those items'
//     headers.
//   - The slab is built top down: at each depth a stable bucket pass
//     splits a node's paths on their next rank, taking buckets in
//     first-occurrence order, and each bucket becomes one child whose
//     count sums the bucket's weights in extraction order.
//
// That is exactly the tree re-inserting every extracted path would
// give — the same (path, weight) multiset, node counts, header counts
// and order of each node's children — with nodes numbered level by
// level instead. The re-insert is kept as a test oracle that every
// restructure of a randomized differential and of FuzzTreeOps is
// compared against.
//
// The numbering is chosen for the inserts that follow. Every insert
// descends through the shallow nodes, and level order keeps them
// together at the front of the slab, where the child index (rebuilt in
// slab order at the first insert after the tick) also gives them their
// home slots.
//
// Cancellation residue. A node that ends nothing still reads its count
// minus its children's sum some ulps of its count away from zero, since
// both are long float sums, and the residue grows with the count. An
// absolute cut lets it through as phantom transactions, which the next
// tick would re-insert as real weight. The cut is relative
// (cps.endWeight): a node ends transactions only past 1e-9 of its
// count. On a sequential 10M-point CMT stream the residue peaked at
// 1.4e-12 of its node and the smallest real terminal weight was 1.3e-6
// of its node, so the cut sits three orders of magnitude from each; a
// real transaction it drops weighs under a billionth of its node.
//
// Open problem: the inlier tree grows without bound. Decay shrinks a
// path's weight geometrically but never removes the path, and only an
// item leaving the frequent set prunes one, so a stream whose points
// rarely repeat an attribute combination adds a path for nearly every
// inlier. On a sequential 1.6M-point CMT stream (pipeline.
// RunStreaming, default decay), the inlier tree held 98K nodes after
// the first tick and 885K after the sixteenth, ~50K more per 100K-point
// tick, and its Restructure took 25-55 ms over the first ticks and
// ~170 ms at the sixteenth. Tick cost therefore rises with stream age,
// whatever the rebuild costs per node. Bounding it means dropping paths
// whose decayed weight can no longer move an answer, which is an
// approximation with a bound of its own to state and measure.
//
// # One poll path
//
// A poll answers the way the paper's streaming MDP answers a request
// (§5.3): it mines the outlier M-CPS-tree with FPGrowth and filters the
// result against the inlier side, and it keeps nothing of an earlier
// answer. explain.Streaming.Explanations runs four steps: single
// attributes from the AMC sketches, which mark the attributes that pass
// support and risk ratio on their own (qualified); fullTable, an
// FPGrowth mine of the outlier tree projected onto the qualified
// attributes for candidate discovery plus a canonical ItemsetSupport
// recount of every candidate on the whole tree; filterCombinations, one
// inlier count and risk-ratio test per candidate; Rank. When nothing
// qualifies there is no mine. As in Algorithm 2 (§5.2) and
// explain.ExplainBatch, only qualified attributes are mined: a
// combination holding any other one is never reported, so building it
// would be work whose outcome is already decided. cps.Tree.Mine takes
// the qualified bitmap as its keep set and drops every other item as
// it extracts the tree's paths (a path left empty is dropped too). The
// recount is what makes a merged answer independent of shard arena
// order: FPGrowth accumulates in node order, which on a merged tree
// depends on the order the shards' paths were folded in, while the
// recount walks header chains.
//
// The projection changes no bit of any answer. (1) Same counts: for a
// qualified item, fptree.BuildInto sums the same paths with the same
// weights in the same order, so the FP-tree orders the qualified items
// exactly as the whole tree's mine did. (2) Same table: an itemset of
// qualified items whose canonical count is at least minCount is still
// found, since only FPGrowth's summation order changes, by ulps, which
// the mine's 1e-6 relaxation of minCount exists to absorb; its stored
// count is the same recount. (3) Same order: MineWith sorts each
// itemset's items, and Rank is a total order for finite or +Inf risk
// ratios (RiskRatio is never NaN for ao > 0), so the table's order
// does not reach the output. (4) So the returned explanations are
// identical, element for element and bit for bit.
// explain.TestProjectedPollMatchesFullTable holds every poll to the
// whole-tree table (mine everything, recount, drop what holds an
// unqualified attribute) on workload-shaped Zipf streams and the
// differential scripts, in place and merged over 1-4 shards, and
// explain.FuzzProjectedPollMatchesFullTable does on fuzzed scripts.
// A live session poll (pipeline.StreamSession.Poll) is one snapshot
// round of fresh clones folded in place by explain.MergeStreamingInto;
// concurrent polls share nothing, so none waits on another's merge. A
// session is live from the moment it starts, so the round is never
// retried: a poll that finds the run over returns the final result.
//
// Five reuse layers used to sit in front of that path: a replay of the
// previous ranked output, reuse of the mined table when only the inlier
// side had moved, a changed-path journal on the outlier tree with delta
// mining over it, a poll merger carrying all of these across merged
// polls, and retained snapshots whose signatures let an unchanged shard
// skip its clone. They were deleted because the traffic they were built
// for does not occur. Which layer answered each poll of the end-to-end
// workloads (bench/, seed 1, 25 s, 2 cores, on the last tree that had
// them):
//
//	workload      polls  full mines  deltas  full hits  table reuses  elided snapshots
//	firehose_xs     380         379       1          0             0                 0
//	firehose_xc      19          18       1          0             0                 1
//	poll_drift       38          34       3          1             0                 2
//
// Every poll period (119K-410K points) is longer than the 100K-point
// decay period, so every poll followed at least one Restructure, which
// rewrote the tree and with it the journal; the few deltas and hits
// were answers taken with no decay tick since the one before, mostly
// the closing reconciliation at /stop. Deleting the layers moved no
// end-to-end metric outside its run-to-run spread (the pairs are in
// CHANGES.md), and every deleted layer had been pinned
// reflect.DeepEqual to the path that is now the only one, so no answer
// changed. What it gave up: a poll of a quiet stream, which used to be
// replayed, is now a full poll — BenchmarkStreamSessionPoll/steady
// (2 shards, CMT) reads 6.2-7.2 ms where it read 5.5-6.6 µs. No
// benchmark workload polls an idle stream; if one comes to matter it
// joins bench/ first, and a cache that returns is measured against it.
//
// What one poll costs on two shards: the snapshot round (a slab memcpy
// of each shard's explainer), a copy of shard 0's sketches and outlier
// tree, the fold of shard 1's into them, the FPGrowth mine of the
// merged outlier tree's qualified projection, the canonical recount of
// what it finds, and one inlier count per candidate on each shard's
// inlier tree — not the inlier trees themselves, which are counted on
// in place (see "Sharded streaming execution"). bench -trace 1 (seed 1,
// 2 vCPUs) reads explain.merge_ms 3.8 and explain.rank_ms 0.5 on
// firehose_xc, 1.5 and 0.4 on poll_drift, where mining and recounting
// the whole outlier tree read a rank_ms of 29 and 3.3 ms: what is left
// of a poll is mostly the snapshot round, the merge and the wait for
// each shard to hand its snapshot over between batches.
//
// The answer is held by a brute-force weighted-multiset model
// (explain.FuzzStreamingDelta: insert/decay/poll scripts against
// exhaustive subset counting, committed corpus replayed under -race in
// CI), by the recorded goldens, and by the differential harness, which
// replays random consume/decay/poll scripts and degenerate tables of
// 0-3 itemsets on 1-4 shards against the same model.
// The mine is allocation-bounded:
// the FP-tree build and the FPGrowth conditional trees recycle per-tree
// and per-miner arena frames (fptree.BuildInto, fptree.Miner), so a
// steady-state mine allocates only its output itemsets. Regression
// cover: the root package's Benchmark functions are the hot-path
// kernels, and `cmd/mbbench -compare` reads their `go test -bench
// -benchmem` output and fails CI on >2x ns/op or allocs/op inflation
// against the committed baseline (see "Continuous integration").
//
// The same measure removed an earlier fork that cut an inlier counting
// walk short once its running sum had passed the count at which the
// risk-ratio filter must reject the candidate. It could not change an
// answer, and it never changed a cost either: candidates are built from
// attributes that each cleared the risk ratio on their own, so their
// joint inlier support almost never runs past that break-even. Over
// three seeds of each workload it fired on none of the ~790K
// combination-table entries filtered by firehose_xc and poll_drift
// (firehose_xs has one attribute, hence no combinations) and on none of
// the 5,519 walks of 45 batch_query answers.
//
// # Serial poll
//
// Every poll stage — shard merge, mine, recount, combination filter —
// runs on the polling goroutine, and concurrent polls of one session
// share nothing (each merges clones of its own; -race hammers that with
// ingest, decay ticks and rebalancing live). The stages were once
// striped across a poll worker count; paired end-to-end runs on 2 vCPUs
// found nothing for the striping to buy, so it and its setting were
// deleted. Before striping returns, it needs a bench/ workload whose
// answer_p50_ms is mostly poll compute, measured on at least 4 real
// cores, where ten alternating pairs move that metric by more than the
// parent's quartile spread.
//
// Borrowing the inlier trees changes one number, and only one: on a
// poll over two or more shards taken after a decay tick, InlierCount — and so RiskRatio — may differ from the
// union-tree value in the last ulps, because P per-shard chain sums
// added in shard order replace one chain sum over a tree whose counts
// were themselves added in replay order. While weights are integers (no
// decay tick yet) the two are bit-equal; after ticks the differential
// test against the union-tree oracle (P 2-4, 0/1/5 ticks, an
// item admitted on one shard only, an empty shard, a root-only inlier
// tree) reads at most 5e-16 relative and holds 1e-12. Explanation sets,
// ranks, OutlierCount and Support are bit-equal to the oracle, and the
// goldens, which print six significant digits, did not move.
//
// Which switches are left. Two Disable* fields remain on the config
// layers (pipeline.Config, ingest.QueryConfig), both because they
// change what a query answers and have callers that need either value:
// DisableRebalance (pin the routing table for bit-exact reruns) and
// DisableGlobalThreshold (per-shard cutoffs). A reflection test
// (pipeline.TestDisableKnobsAreTheTwoThatChangeAnswers) fails if an
// output-identical one joins them. A setting that no run can turn goes
// too: the root package's TestConfigFieldsHaveSetters fails for an
// exported field of a *Config struct that no non-test code sets,
// whether tests set it or nothing does, so a test-only seam is an
// unexported field in its package (pipeline.Config's batchSize and
// newClassifier are two) and a value nothing sets is a constant.
//
// # Push-based partitioned ingest
//
// Fast data arrives from many producers at once, so the ingest layer
// is partitioned and push-based rather than a single pull loop:
//
//   - One read. The engine reads one shape: a
//     core.PartitionedSource exposes N independent context-aware
//     streams, each filling the batch the engine loans it
//     (NextBatchInto(ctx, dst, max)). Stored data is one partition:
//     ingest.CSVSource has one record loop (columns.parse), which
//     splits a block of whole records over its bytes and parses their
//     metrics into slabs sized from the block's line count, and the
//     calling goroutine interns each block's attributes in file order.
//     NextBatchInto parses a block at a time on the calling goroutine,
//     into slabs it recycles, and copies rows from them into the loan,
//     so a CSV row allocates nothing; core.SliceSource lends its slice,
//     and core.FuncSource copies what its generator made. A one-shot
//     query reads its CSV with CSVSource.ReadAll instead, which parses
//     blocks on GOMAXPROCS goroutines and keeps their slabs as the
//     points; its points and encoder ids are the streaming read's
//     (ingest's differential tests and fuzz target hold every read to
//     encoding/csv, which is left as their oracle). A metric or time
//     field that is a plain decimal, [+-]?digits[.digits]?([eE][+-]?
//     digits)? with at most 19 significant digits, parses on an exact
//     fast path: the mantissa eight digits at a time, then one exact
//     multiply or divide by a power of ten (Clinger) or Eisel-Lemire
//     over 128-bit powers of ten computed once with math/big. Every
//     other field, and every case Eisel-Lemire leaves undecided, goes
//     to strconv.ParseFloat, so the parser accepts nothing strconv
//     rejects, returns strconv's bits and fails with strconv's error
//     (TestParseFloatMatchesStrconv, FuzzParseFloatMatchesStrconv). A one-shard run over any of them is bit-identical to a
//     plain sequential loop over the same batches (pinned against a
//     test oracle, pipeline.TestShardedStreamOneShardMatchesSequential).
//     core.StreamRunner runs one ingest goroutine per partition, and
//     partition→shard routing happens inside each ingest goroutine, so
//     the bounded per-shard channels are the only cross-goroutine hop
//     and ingestion parallelizes before it ever serializes. The push
//     backend is ingest.Push: N in-memory producer handles, which also
//     back mbserver's POST /stream/{id}/push endpoint.
//
//   - Backpressure. Every hop is a bounded channel: shard queues
//     (two batches each) and push partition queues alike. A slow
//     pipeline therefore surfaces as a blocked producer Send (or a
//     blocked /push request), never as unbounded server-side
//     buffering.
//
//   - Ordering. Points within one partition reach their shards in
//     partition order; across partitions there is no ordering
//     contract — the interleaving at a shard is scheduling-dependent.
//     Undecayed summaries are order-insensitive, so multi-partition
//     runs with deterministic classification reproduce the
//     one-partition run exactly (pinned by a P=3 equivalence test);
//     with decay ticks or adaptive thresholds, results may differ
//     run-to-run within the usual sharded-EWS consistency bounds. One-partition sources have
//     a total order and reproduce exactly, always.
//
//   - Stop. Stopping a session cancels the ingest context, which
//     interrupts in-flight NextBatchInto calls — no polling between
//     batches — and waits for the ingest goroutines to exit; workers
//     then drain what is queued. A read that does not watch
//     its context delays the stop until it returns (the batch it
//     returns then is dropped). Snapshot servers
//     are quiesced before Wait returns, so the final merge never races a
//     late snapshot clone.
//
// Nor does a poll wait out a model refit. A shard answers snapshot
// requests on its worker goroutine between batches, and the one thing
// that keeps a worker inside a batch for long is a classifier retrain
// (FastMCD over the 10K-point reservoir, every 100K points; the MCDFit
// rows of the kernel table below have its history). A session's workers
// therefore hand classify.Streaming an offload function
// (core.Offloader): the fit runs on a helper goroutine while the
// worker — blocked for ingest exactly as before, so what is computed,
// and from which points, is unchanged — keeps serving snapshots. The
// explainer is between batches at that point and the snapshot reads
// nothing of the classifier but its threshold; coordination requests,
// which read and write the classifier, travel on their own control
// channel and still wait for the batch to end. So whether a poll meets
// a refit does not decide its latency. The refit itself runs on
// GOMAXPROCS goroutines, like every fit: a shard does not know how many
// siblings are refitting, and a coordinated session staggers its shards'
// retrains. What the offload and the fit's crew each buy is measured in
// CHANGES.md and ROADMAP.md's dead ends, not here.
//
// The refit finishes no evaluation nobody reads. A concentration step
// needs the set of the h closest points, never their ranking, so the
// distance sweep writes a (distance, index) slab and one Floyd–Rivest
// selection picks the h closest from it in place. A fit's scratch lives on one stepper per
// goroutine: the fitting goroutine aims its stepper at every stage, and
// the consistency correction takes its distances and median from it. The chosen rows are summed
// in ascending index order, so the new mean and covariance are a
// function of which points were chosen and of nothing else.
// internal/mcd's package comment has the rule for distances that tie
// across the h boundary.
//
// Nor does the fit finish evaluations whose outcome is already decided.
// FastMCD's own remedy for that is selective iteration — give every
// candidate two C-steps, keep the best, only then iterate — and the fit
// applies it at every level: the ~300-point subsets, their merged set,
// and the full data, where it ranks the ten merged-set survivors after
// two C-steps each and concentrates the leader alone (the next in rank
// is reached only if the leader's covariance stops factoring, so a fit
// fails only when every candidate does). Estimate.CSteps counts the
// winner's steps, ranking steps included. One rule at every n, no knob.
//
// The winner is therefore the best candidate after two full-data steps,
// not the best of ten after convergence, and the size of that
// difference is measured, not argued. internal/mcd keeps the
// converge-all-ten schedule as a test-only reference (fitAllTen, whose
// trial stage and ten convergences run on the fit's crew) and
// holds the fit against it fit seed by fit seed on the benchmark datasets
// (TestSelectiveIterationQuality): at n=10K (CMT p=7, Liquor p=2,
// Telecom p=5) and n=40K the raw log-determinant is higher by 1e-6-3e-5
// on average and 1.0e-4 at worst, where the reference moves by
// 3e-6-6e-5 when merely reseeded; the points above the 99th percentile
// overlap >= 0.94 Jaccard (1.000 at 40K); full-data C-steps fall from
// 111-169 to 28-32 a fit. Between 200 and 2000 points fits land on one
// of a handful of fixed points and the gap is 4e-5-3e-3 on average,
// 2.8e-2 at worst (n=200, p=7, h=104, where the reference's own range
// over the same 48 seeds is 3.9e-2), and on no dataset more than four
// times that range plus 2e-4, which is the test's bound. What converging ten was
// hedging — a leader in the wrong basin — two full-data steps already
// decide: a candidate sitting on a minority cluster has to bridge to the
// majority to cover h points, and its determinant says so at once
// (TestLeaderIsInMajorityBasin: 30% and 45% contamination, and
// hand-split survivor lists whose contaminated members arrive ranked
// first). No golden depends on the fit (the explain goldens label by
// metric[0]), and the sort-based oracle follows the same schedule, so it
// still holds the kernel to the same draws, candidates, ranking, winner
// and step count.
//
// Every candidate's two steps at a level are independent of every other
// candidate's, so a fit hands them to whichever core is free. Past one
// worker the fit starts a crew of helper goroutines, each with its own
// stepper over the full data, and keeps for itself only what has an
// order: drawing the trial starts (the generator's only reader), ranking
// every level's results in candidate order, the leader's convergence and
// the consistency correction. A C-step reads only its candidate and the level's points,
// so the answer is the same bits on any number of workers
// (TestFitBitsIndependentOfWorkers checks one to seven against the
// recorded digests). A panic on a helper is raised again on the fitting
// goroutine, so core.Offloader's recover and shard quarantine see it as
// before. At n=40K, p=7 a fit's trial stage and full-data ranking are
// about four fifths of its time on one goroutine and the leader's
// convergence the rest. A fit takes at most topKeep goroutines (the
// full-data ranking has no more candidates to hand out), each holding
// one stepper over the full data: 21 bytes a point, a 16-byte (distance,
// index) slab, a membership byte and room for the subset's indexes (h,
// plus a spare slot, past smallN, about half a point's worth). A 1M-row fit allocates
// 21 MB on one worker and 210 MB on ten, where each
// helper once added 33 bytes a point (the sweep wrote its own distance
// buffer, then copied it into the slab) and the fitting goroutine built a
// stepper per subset.
//
// Each of the C-step's passes over the data is laid out for what bounds
// it. A point's forward solve is a chain of p dependent divisions, so the
// sweep (stats.Cholesky.MahalanobisSqAll) keeps many chains in flight: on
// amd64 with AVX2 (read from CPUID and XGETBV once, at init; there is no
// switch) an assembly kernel solves eight points at once, a point to a
// YMM lane, two groups of four interleaved; elsewhere the Go loop that
// solves four in lockstep is the only sweep, and it is the tests'
// reference everywhere. The selection (stats.SelectKeyIdx) is Floyd and
// Rivest's: its pivot is selected within a sample of about n^(2/3)
// distances around the h-th, so the first partition leaves a small
// window, where the median-of-three introselect before it shed about
// half the slab a round. The membership pass writes every index and
// advances only past members, where a branch on membership mispredicted
// on about half the points. The re-estimate (stats.MeanCovInto) runs,
// on amd64 with AVX2 and rows of at most 8 columns, an assembly kernel
// whose lane rule is: one YMM lane a column for the mean, one lane a
// covariance cell (j, k) for the scatter, each lane starting at +0 and
// adding its terms in idx order — a row's value, or c_j*c_k of the row
// centered in registers, one VMULPD and then one VADDPD, never fused —
// with masked loads past d, so no row is read past its end; Go divides
// as before. Elsewhere Go sums each cell in a register over column-major
// blocks of centered rows, four cells a pass, and that code is the
// kernel's oracle (TestMeanCovAVX2MatchesGo, FuzzMeanCovAVX2MatchesGo:
// p 1-12, n 0-1001, NaN, ±Inf, subnormals). internal/mcd's package
// comment says why the bits match the one-point forms, and a test pins
// 28 fits to recorded digests. No Go line of internal/stats or
// internal/mcd fuses a multiply into an add on any architecture: each
// product that feeds a sum is written float64(a*b), and CI disassembles
// the arm64 build to hold every such line to it.
//
// Before the kernel and the selection, a 10 s profile of batch_query put
// the C-step at 60% of server CPU (the sweep 26%, the selection 14.5%,
// the covariance 15%) and CSV parsing at 22%; after them, in the same
// sitting, the C-step is 48% (the sweep 12%, the selection 16%, the
// covariance 19%) and CSV parsing 30%, and ten alternating pairs read
// answer_p50_ms 176 -> 119 ms (CHANGES.md). Where a one-worker fit's
// time goes now, at n=10K, p=7: the trial stage ~65%, the full-data
// ranking ~23%, the leader's convergence ~10%; by kernel, the covariance
// ~40%, the selection ~29%, the sweep ~18% and the step's own
// bookkeeping ~3%. The covariance has since become the AVX2 kernel
// above; what it bought is in CHANGES.md.
//
// # One-shot answers
//
// A one-shot query (pipeline.RunQuery with streaming off) reads its CSV
// on every core, fits MCD (or MAD) to all of it, labels every point and
// runs the batch explainer (explain.ExplainBatch, paper Algorithm 2).
// Its three costliest passes are the float parse, the C-step's
// re-estimate and the explainer's counting; each is written for speed
// and held to the code it replaced as an oracle, and the whole answer
// is pinned: TestOneShotAnswersPinned (internal/pipeline) runs RunQuery
// over generated CMT CSVs, two seeds at confidence 0 and 0.95, and
// compares the SHA-256 of each Result's JSON with digests recorded
// before any of the three changed.
//
// The explainer counts single attributes in slices indexed by slot, not
// in maps, and filters each class's transactions into one slab. The
// dense-id rule: an attribute id's slot is id - min id when the set's
// ids span at most 4 slots an attribute occurrence (plus 1024), negative
// ids included, and otherwise its rank among the set's distinct ids, so
// a few huge or far-apart ids cost a sort instead of a huge table. A
// slot is supported when its outlier count is positive and at least the
// minimum support, as a key of the old count map was; the answer,
// including whether an empty one is nil or an empty slice, is the map
// version's (TestExplainBatchMatchesMapOracle: empty sets, all
// outliers, negative and far-apart ids, tied counts).
//
// # Allocation-free ingest data plane
//
// The ingest data plane — producer, partition read, partition→shard
// routing, worker consumption — runs on recycled slab batches
// (core.Batch: one flat []float64 metrics slab and one flat []int32
// attrs slab per batch, with per-row Point views sub-slicing them) and
// an explicit recycling protocol (core.BatchPool), so steady-state
// ingest never touches the allocator: on the profile that motivated
// the design, the previous per-batch []Point sub-slices and their
// interior slice pointers cost roughly 40% of ingest CPU in GC work
// alone, and the slab rewrite roughly halved the PushIngest kernel's
// ns/op while taking the routed path to zero allocations per batch
// (testing.AllocsPerRun-pinned, like the explain path before it).
//
// Batch ownership is the load-bearing contract: a batch has exactly
// one owner, and handing it on (channel send, the NextBatchInto
// ownership swap, BatchPool.Put) ends the previous owner's right to
// touch it or any Point views taken from it. Concretely:
//
//   - Sources. Every partition stream is loaned an empty recycled
//     batch to fill (ingest.CSVSource copies rows into the slabs from
//     a block it parsed into its own recycled slabs); a source that already holds a filled batch returns it
//     and keeps the loan instead — the ownership swap that lets
//     ingest.Push hand a producer's batch to the engine without
//     copying a byte while both free lists stay in equilibrium. A
//     generator may reuse the arrays behind its points on its next
//     call: core.FuncSource copies each batch into the loan, so
//     nothing the generator reuses reaches a worker.
//
//   - Producers. ingest.Push producers either loan-and-fill
//     (GetBatch/SendBatch, allocation-free) or Send([]Point), which
//     wraps the caller's points zero-copy in a borrowed batch — there
//     ownership of the points transfers to the stream until routed.
//     Each partition queues at most 4 batches (the constant
//     pushQueueDepth); with four queued, Send blocks until the engine
//     takes one.
//
//   - Routing. The ingest goroutine scatters each point's payload into
//     pooled per-shard batches (the one unavoidable copy, and the one
//     that severs all sharing with source memory); with a single shard
//     even that disappears — the worker takes the source-filled batch
//     outright.
//
//   - Consumers. A shard worker consumes a batch's views and returns
//     the batch to the free list, so everything downstream of the
//     channel — the classifier and the explainer — must copy whatever
//     point data it retains beyond the call that delivered it. Every
//     built-in operator already does: classifier reservoirs copy
//     admitted metric vectors, explanation sketches and trees copy
//     attribute ids. A recycling -race hammer pins that no slab is ever
//     visible to two owners.
//
// Producer-side backpressure is observable: each push partition meters
// its queue depth and the cumulative time producers spent blocked on a
// full queue (core.PartitionIngestStats), read into the run's account
// (core.StreamStats.Ingest) and from there into mbserver's
// /stream/{id} "ingest" block.
//
// On the wire, mbserver's POST /stream/{id}/push accepts — next to
// NDJSON — a compact length-prefixed binary row format ("MBR1",
// specified in internal/ingest/binrows.go) so high-rate producers skip
// JSON entirely: both formats decode through per-session pooled
// decoders straight into loaned batches, and the binary path is
// allocation-free in steady state. ingest.BinaryRowReader parses rows in
// place from a fixed 64 KB window that large reads of the body refill
// (a row longer than the window grows it for that row only, and the end
// of a body drops back to the default, so a pooled decoder pins no long
// row). Attribute values alias the window until a block of rows is
// interned in one encode.Encoder.EncodeRows call: one read lock for the
// block's lookups, which materialize no string for a known value, then
// one write lock for its misses in row-then-column order, so ids are
// those of interning one value at a time. A block is at most 256 rows
// and never spans a refill, which bounds one hold of the lock; the CSV
// reader interns through the same call, 256 rows at a time.
//
// # Delivery semantics and failure model
//
// The engine's delivery contract is at-least-once per partition, with
// the partition as the unit of both offset tracking and fault
// isolation.
//
// Offsets and checkpoints. A partition that can name its position
// implements core.CheckpointablePartition: Offset reports a monotonic
// per-partition point count after each read, and Ack(offset) tells the
// source everything below that mark is consumed and may be discarded.
// core.StreamRunner acks an offset only after every point of the batch
// that produced it has been routed and taken by a shard worker — never
// on read — so a crash between read and consume replays those points
// rather than losing them. pipeline.StreamSession.Checkpoint snapshots
// the committed offsets into a small versioned JSON blob at any time
// from the moment the session starts (the run's commit trackers are in
// place before StartPartitionedStream returns), including after the run
// has ended, and pipeline.ResumeStream builds
// a fresh session that seeks each partition (core.SeekablePartition)
// back to its committed offset: ingest.Push retains unacked points in
// a replay log when EnableReplay is set, bounded at 1<<20 points per
// partition (the constant replayMaxPoints; delivery stalls at the cap
// instead of evicting unacked data). mbserver exposes the pair
// as GET and POST /stream/{id}/checkpoint. Replayed points are
// re-delivered, not deduplicated — downstream effects must tolerate
// at-least-once.
//
// Shard failure. A panic in one shard's operators is contained by that
// shard's worker: the shard is quarantined, its remaining input is
// drained and counted as dropped (but still acked, so checkpoints and
// backpressure never wedge on a dead shard), and the run completes on
// the survivors. The result is marked rather than silently partial —
// core.StreamStats.Degraded plus one core.ShardFailure per dead shard,
// read through core.StreamRunner.Stats by every live poll as well as
// the final result, and folded by mbserver into the "health" block of
// every /stream/{id} response. A dead shard runs no snapshot view and
// no threshold-round request, so no poll and no round reads its suspect
// state (core.TestSnapshotSkipsQuarantinedShard,
// core.TestQuarantinedShardLeavesThresholdRounds).
//
// # Profiling a live session
//
// mbserver -pprof (off by default) mounts net/http/pprof under
// /debug/pprof/ on the API mux; profile a running session with
// `go tool pprof 'http://host:port/debug/pprof/profile?seconds=10'`
// (or .../heap). Size a performance change from such a profile taken
// inside a bench/ workload window, not from a kernel benchmark alone.
//
// # Continuous integration
//
// .github/workflows/ci.yml is kept declarative; the reasons live here.
//
//   - test runs gofmt -l (any listed file fails the job), vet (also of
//     the arm64 build), a disassembly of arm64 test binaries of
//     internal/stats and internal/mcd that fails on any FMADD, FMSUB,
//     FNMADD or FNMSUB on a non-test line (Go fuses a multiply into an
//     add there unless the product is written float64(a*b), and a fused
//     sum is not the bits amd64 computes), build,
//     the named guards (an exported name without a caller, a *Config
//     field nothing sets, a Test, Benchmark or Fuzz function that this
//     file or ci.yml names and no test declares: a renamed test would
//     leave its step passing on "no tests to run"; a pkg.Name or
//     pkg.Name.Member in a comment outside bench/ that no declaration of
//     that internal package answers) and
//     `go test -race -timeout 5m ./...` on a Go matrix: 1.22 is the
//     go.mod floor, 1.24 the toolchain every
//     committed BENCH_*.json and every bench/ number is recorded with.
//     The timeout is half the default so that a deadlocked test prints
//     its goroutines while someone is still watching. internal/mcd and internal/stats run once
//     more with -count=1: the C-step kernel's oracle comparisons are the
//     contract for FastMCD's answers, and the selection under them must
//     keep compiling at the go.mod floor. (The comparison against
//     converge-all-ten is a statistic over twelve fit seeds; it runs in
//     the plain `go test ./...` and skips itself under -race, where the
//     basin and fall-through tests still run.) The same job runs each
//     hot-path kernel once, as a root Benchmark function under
//     `go test -bench -benchmem` (its output is the bench-hotpath.txt
//     artifact), and pipes that text into the kernel regression gate:
//     `cmd/mbbench -compare <baseline>` fails when a baseline kernel
//     is missing, was run without -benchmem, or inflates more than 2x
//     against the committed baseline — allocs/op always, ns/op only
//     when the baseline's GOARCH, CPU count and GOMAXPROCS (the
//     kernel names' -N suffix) match the runner's, so shared-runner
//     wall-clock noise cannot flake it (a mismatch is a warning; the
//     pipeline kernels measure the core budget there, not the code). A
//     baseline without kernels, or no kernel lines on stdin, is an
//     error. A regression lands only together with a new justified
//     baseline. The baseline and its history are in BENCH_PR32.md
//     (see "Kernel baseline" below). The step also prints kernels no
//     baseline holds yet, which the gate lists as new: PushIngest's
//     cmt-simple-16k and cmt-complex-4k (the MBR1 decode of one
//     firehose_xs and one firehose_xc push request) and
//     StreamSessionPoll (a session's poll through StreamSession.Poll,
//     the control plane Poll/p3s4 never reaches).
//   - bench-smoke vets the end-to-end harness and runs its own tests
//     (`cd bench && go vet ./... && go test ./...`: every workload at
//     toy size, and the test that the staged replay still matches the
//     server). bench/ is a separate module that the root `go vet ./...`
//     and `go test ./...` do not see, yet it compiles against the
//     internal packages.
//   - pipeline-scheduling runs the pipeline suite under -race at
//     GOMAXPROCS=1 and 4: shard workers, the coordinator and concurrent
//     pollers are goroutines, and the matrix runs them serialized and
//     really interleaving. (explain, fptree and cps start no goroutines;
//     the test job's -race covers them.) It then repeats
//     TestGlobalThresholdFixesHotShardDrift twenty times:
//     that test failed ~1 run in 9 while its coordination rounds landed
//     wherever the scheduler put them, and is the same run every time
//     now that its source paces itself by them — at the default
//     rebalance trigger, since a rebalance round stopped judging windows
//     of a few points.
//   - fuzz-replay replays every fuzz target's seeds and committed
//     testdata/fuzz inputs under -race: the oracles (brute-force tree
//     and explainer models, encoding/csv for the CSV reader, strconv for
//     the float parser, the Go sweep and the Go sums for the AVX2
//     kernels) rerun the exact scripts that once found or nearly found
//     bugs, deterministically. It then fuzzes the CSV reader against
//     encoding/csv, the MBR1 reader against the bufio reader it replaced
//     (binrows_oracle_test.go), the float parser against strconv and the
//     AVX2 mean and covariance against the Go sums, 30 s each, since
//     each is hand-written and no seed list covers every input.
//   - robustness runs the resume, degradation, quarantine, torn-frame
//     and checkpoint suites under -race three times over (-count=3),
//     since their failures are timing-dependent.
//
// # Kernel baseline
//
// BENCH_PR32.json (go1.24, GOMAXPROCS 2, on a 2-core box) is the one
// committed kernel baseline, and BENCH_PR32.md beside it says how each
// entry was recorded and what it reads, with the kernels CI records
// that no baseline gates, a -cpu 1,2 table of the MCDFit kernels and
// the kernels' trajectory up to the baseline. The gate (cmd/mbbench
// -compare, see "Continuous integration") fails when a baseline kernel
// is missing from the run, was run without -benchmem, or reads more
// than 2x its baseline: allocs/op always, ns/op only where GOARCH, CPU
// count and GOMAXPROCS match the baseline's.
package macrobase

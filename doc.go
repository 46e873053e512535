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
// Beyond the paper's single-core dataflow runtime (core.Runner), the
// repo provides a shared-nothing sharded streaming engine
// (core.StreamRunner, pipeline.RunShardedStream): ingest goroutines —
// one per source partition, see the ingest section below —
// hash-partition batches by attribute set across P shard workers over
// bounded channels; each shard owns its own transformer/classifier/
// explainer replicas and local decay clock, so one shard is exactly
// the paper's EWS pipeline over its hash partition. Per-shard
// streaming summaries (AMC sketches, M-CPS-trees) are mergeable in the
// mergeable-summaries sense — merged error bounds sum — and a merge
// stage reconciles them into one globally ranked explanation set,
// either on demand while the stream runs (pipeline.StreamSession.Poll,
// served by cmd/mbserver's /stream endpoints) or when the stream
// terminates. The stage folds what mining needs in one piece — the two
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
// final reconciliation the shard explainers after Run has returned.
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
// that must be global. classify.Streaming exports a mergeable score
// summary (the ADR score reservoir's weighted sample); every
// Config.CoordinateEvery points of stream progress, a coordinator
// goroutine in core.StreamRunner collects the summaries on the worker
// goroutines between batches, as the snapshot path does, pools them into a
// weighted global quantile (stats.WeightedQuantile — each reservoir
// weighted by the decayed point mass it represents), and pushes the
// pooled cutoff back to every shard (classify.Streaming.
// SetGlobalThreshold). A global cutoff overrides the shard-local
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
// sequential and manual-partition goldens. A final round flushes any
// pending boundary crossing at end of stream, so short streams still
// coordinate at least once. Observability rides along:
// core.StreamStats carries per-shard load/outlier stats and the round
// count, and pipeline.ShardedResult.Shards (the "shards" block in
// mbserver's /stream/{id}) reports per-shard points, outlier rates and
// threshold state, the hot-shard imbalance metric (hottest shard's
// load share times P; 1.0 is perfectly balanced, P is total skew), and
// the last global cutoff.
//
// # Skew-adaptive routing
//
// Threshold coordination fixes what skew does to the cutoff; it does
// nothing for what skew does to throughput. The hash router pins every
// attribute set to one shard forever, so a Zipf-popular handful of
// attribute sets turns one shard into the convoy the whole stream waits
// on — backpressure is end-to-end, so P shards deliver the hot shard's
// throughput, not P times the mean. The router therefore adds one level
// of indirection: the scatter loop hashes a point's attributes to one
// of V virtual buckets (core.HashBucket, V defaulting to 256 rounded up
// to a multiple of P) and looks the bucket up in a versioned routing
// table ([]int32, bucket -> shard) read through an atomic pointer. That
// is one extra array index and one per-bucket load-counter increment
// per point — the data plane stays allocation-free (the Route/p3s4
// kernel gates 0 allocs/op with routing active).
//
// Rebalancing rides the PR-6 coordinator: each round snapshots the
// per-bucket counters (single-writer per partition, summed by the
// coordinator), diffs them against the last judged round into a load
// window, and — when the hottest healthy shard's windowed share times P
// exceeds Config.RebalanceAbove (default 1.5) — greedily moves the
// largest movable buckets to the coolest healthy shards until the
// window settles at the midpoint between the trigger and perfect
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
// Config.DisableRebalance pins the identity table — whose placement is
// bit-identical to HashPartition because V is a multiple of P — both
// pinned against the manual-partition golden. Attribute-less points
// (metrics-only streams) carry no itemsets and no placement invariant,
// so the router spreads them round-robin instead of letting hash(()) pin
// them all on shard 0. Observability: StreamStats.RoutingEpoch/
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
//     one contiguous slab ([]node addressed by int32 indexes) in
//     first-child/next-sibling layout, with per-item node-link chains
//     as int32 indexes too. Child lookup is constant time at every
//     level: the root's children through a dense rank-indexed table
//     (all a one-attribute query ever uses), every deeper node through
//     an arena-owned open-addressed (parent, item) -> child hash index
//     in one flat []int32 — with six attributes of cardinality 40-5000
//     the fan-out sits at depth two and three, where walking sibling
//     lists was 61% of a complex query's server CPU. The index is
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
// # One poll path
//
// A poll answers the way the paper's streaming MDP answers a request
// (§5.3): it mines the outlier M-CPS-tree with FPGrowth and filters the
// result against the inlier side, and it keeps nothing of an earlier
// answer. explain.Streaming.Explanations runs four steps: single
// attributes from the AMC sketches; fullTable, an FPGrowth mine of the
// outlier tree for candidate discovery plus a canonical ItemsetSupport
// recount of every candidate; filterCombinations, one inlier count and
// risk-ratio test per candidate; Rank. The recount is what makes a
// merged answer independent of shard arena order: FPGrowth accumulates
// in node order, which on a merged tree depends on the order the
// shards' paths were folded in, while the recount walks header chains.
// A live session poll (pipeline.StreamSession.Poll) is a snapshot round
// of fresh clones folded in place by explain.MergeStreamingInto;
// concurrent polls share nothing but the session's failure map and the
// mutex guarding it, so none waits on another's merge.
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
// merged outlier tree, the canonical recount, and one inlier count per
// qualifying combination on each shard's inlier tree — not the inlier
// trees themselves, which are counted on in place (see "Sharded
// streaming execution"). bench -trace 1 (seed 1) reads
// explain.merge_ms 2.0 and explain.rank_ms 10.3 on firehose_xc, 1.3 and
// 2.1 on poll_drift, and answer_p50_ms repeats at ~31 and ~10 ms: a
// poll is under 3% of firehose_xc server CPU, and what is left of it is
// mostly the mine and the recount, i.e. the outlier side, which is 1%
// of the mass.
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
// cover: cmd/mbbench -bench measures the hot-path kernels and -compare
// fails CI on >2x ns/op or allocs/op inflation against the committed
// baseline (see "Continuous integration").
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
// ingest, decay ticks and rebalancing live). The stages used to be
// striped across a configurable poll worker count W (default
// GOMAXPROCS) with identical output at every W. Paired end-to-end runs
// on a 2-vCPU box (8 alternating pairs, seeds 1-8, 25 s) found nothing
// for it to buy: W=1 against the default W=2 read
// answer_p50_ms 13.26 vs 12.67 ms on poll_drift (default quartiles
// 11.6-15.6) and 44.0 vs 41.1 ms on firehose_xc (37.7-44.3), every rate,
// RSS and set-up within ±10%, W=1 winning 3-6 of 8 pairs on each
// metric; the one kernel gain ever recorded was 1.20x on 2 cores. So
// the striping and its setting were deleted. Before striping returns, it
// needs a bench/ workload whose answer_p50_ms is mostly poll compute,
// measured on at least 4 real cores, where ten alternating pairs move
// that metric by more than the parent's quartile spread.
//
// One numerical change came with the borrowed inlier trees (PR 19), and
// it is the only one: on a poll over two or more shards taken after a
// decay tick, InlierCount — and so RiskRatio — may differ from the
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
// output-identical one joins them.
//
// # Push-based partitioned ingest
//
// Fast data arrives from many producers at once, so the ingest layer
// is partitioned and push-based rather than a single pull loop:
//
//   - Pull vs push. A legacy core.Source is a pull iterator (Next);
//     the engine adapts it via core.SourcePartitions into one
//     partition whose single ingest goroutine is the old pull loop,
//     batch boundaries and all — adapted execution is bit-identical to
//     the pre-partitioned engine (pinned by equivalence tests). A
//     core.PartitionedSource instead exposes N independent
//     context-aware streams (NextBatch(ctx, max)); core.StreamRunner
//     runs one ingest goroutine per partition, and partition→shard
//     routing happens inside each ingest goroutine, so the bounded
//     per-shard channels are the only cross-goroutine hop and
//     ingestion parallelizes before it ever serializes. Backends:
//     ingest.PartitionedCSV (one partition per file/reader, shared
//     encoder) and ingest.Push (N in-memory producer handles, which
//     also back mbserver's POST /stream/{id}/push NDJSON endpoint).
//
//   - Backpressure. Every hop is a bounded channel: shard queues
//     (QueueDepth batches) and push partition queues alike. A slow
//     pipeline therefore surfaces as a blocked producer Send (or a
//     blocked /push request), never as unbounded server-side
//     buffering.
//
//   - Ordering. Points within one partition reach their shards in
//     partition order; across partitions there is no ordering
//     contract — the interleaving at a shard is scheduling-dependent.
//     Undecayed summaries are order-insensitive, so multi-partition
//     runs with deterministic classification reproduce the pull path
//     exactly (pinned by a P=3 equivalence test); with decay ticks or
//     adaptive thresholds, results may differ run-to-run within the
//     usual sharded-EWS consistency bounds. One-partition sources have
//     a total order and reproduce exactly, always.
//
//   - Deadline-aware stop. Stopping a session cancels the ingest
//     context, which interrupts in-flight NextBatch calls — no polling
//     between batches. For sources that honor no cancellation (a
//     legacy Source blocked forever in Next, the limitation open since
//     the sharded engine landed), StreamSession.StopContext bounds the
//     wait: at its deadline the runner abandons the stuck ingest
//     goroutines, workers drain what is already queued and flush, and
//     the final reconciled result covers everything delivered before
//     the stall. Snapshot servers are quiesced before Run returns, so
//     the final merge never races a late snapshot clone.
//
// Nor does a poll wait out a model refit. A shard answers snapshot
// requests on its worker goroutine between batches, and the one thing
// that keeps a worker inside a batch for hundreds of milliseconds is a
// classifier retrain (FastMCD over the 10K-point reservoir, every 100K
// points: ~0.04 s a shard on firehose_xc's seven metrics, ~0.025 s on
// poll_drift's two; the MCDFit rows of the kernel table below have its
// history). A session's workers
// therefore hand classify.Streaming an offload function
// (core.Offloader): the fit runs on a helper goroutine while the
// worker — blocked for ingest exactly as before, so what is computed,
// and from which points, is unchanged — keeps serving snapshots. The
// explainer is between batches at that point and the snapshot reads
// nothing of the classifier but its threshold; coordination requests,
// which read and write the classifier, travel on their own control
// channel and still wait for the batch to end. Once PR 15 had taken
// a poll_drift poll from ~220 ms to ~45 ms, meeting a refit cost a poll
// five times its own work, and whether more than half of a run's polls
// did decided its median: answer_p50_ms read 35-175 ms run to run. It
// now reads 27-31 ms (firehose_xc: 99-125 ms).
//
// PR 18 made the refit itself cheaper by not finishing an evaluation
// nobody reads: a concentration step needs the set of the h closest
// points, never their ranking, so it selects them in one introselect
// pass over a (distance, index) slab where it used to sort all 10K, and
// a fit's scratch lives on its stepper (~300 allocations a fit, from
// ~18,000). The chosen rows are then summed in ascending index order, so
// the new mean and covariance are a function of which points were
// chosen and of nothing else; before, their low bits inherited however
// the sort had arranged the subset. internal/mcd's package comment has
// the rule for distances that tie across the h boundary.
//
// PR 20 stopped finishing evaluations whose outcome is already decided.
// FastMCD's own remedy for that is selective iteration — give every
// candidate two C-steps, keep the best, only then iterate — and the fit
// applied it to the ~300-point subsets and to their merged set and
// stopped one level short: all ten merged-set survivors were
// concentrated to their fixed points on the full data (97-113 full-data
// C-steps a fit at p=7, 150-186 at p=2, ~70% of a fit's time), and all
// ten ended in the same basin, log-determinants equal to the fifth
// digit. The full-data level now ranks the ten after two C-steps each
// and concentrates the leader alone (20 ranking steps and ~8-12 more;
// the next in rank is reached only if the leader's covariance stops
// factoring, so a fit still fails only when every candidate does);
// Estimate.CSteps counts the winner's steps, ranking steps included. A
// fit at n=10K went 123 -> 59 ms at p=7 and 73 -> 26 ms at p=2, the 40K
// batch fit 504 -> 143 ms, and three fifths of what is left is the trial
// stage (32 of ~53 ms at p=7, 13 of ~23 at p=2; at n=40K the twenty
// ranking steps are the larger part, 55 of ~115 ms). One rule at every
// n, no knob: below ~2K points the trial stage dominates and the cost
// does not move.
//
// That is a change of answer, and its size is measured, not argued: the
// winner is the best candidate after two full-data steps, not the best
// of ten after convergence. internal/mcd keeps the converge-all-ten
// schedule as a test-only reference (fitAllTen) and holds the new fit
// against it fit seed by fit seed on the benchmark datasets
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
// The C-step itself then got cheaper without moving a bit. On
// batch_query's server the fit was 64% of CPU, its distance sweep 32%
// and its covariance re-estimate 18%, and both waited on latency: a point's
// forward solve is a chain of p dependent divisions, and each covariance
// cell took a load-add-store through memory per chosen row. The sweep
// (stats.Cholesky.MahalanobisSqAll) now solves four points in lockstep,
// and stats.MeanCovInto sums each cell in a register over column-major
// blocks of centered rows, four cells a pass. internal/mcd's package
// comment says why the bits hold, and a test pins 28 fits to digests
// recorded before the change. At p=7 over 10K points the sweep went ~42
// -> ~18 ns a point and the covariance ~42 -> ~22, and the fit ~61 ->
// ~41 ms (n=10K, p=7), ~27 -> ~24 (p=2) and ~146 -> ~93 (n=40K). On
// batch_query the two passes fell to 30% of server CPU and the fit to
// 50%, and CSV parsing became the largest stage at 36%. Where a fit's
// time goes now, at n=10K, p=7: the trial stage ~59%, the full-data
// ranking ~23%, the leader's convergence ~13%; by kernel, the sweep
// ~39%, the h-subset selection ~21%, the covariance ~21% and the step's
// own bookkeeping ~13%. At n=40K the ranking is the largest stage (~45%).
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
// one owner, and handing it on (channel send, core.BatchPartition
// ownership swap, BatchPool.Put) ends the previous owner's right to
// touch it or any Point views taken from it. Concretely:
//
//   - Sources. A partition stream implementing core.BatchPartition is
//     loaned an empty recycled batch to fill (CSVSource.NextInto
//     parses rows straight into the slabs); a source that already
//     holds a filled batch returns it and keeps the loan instead — the
//     ownership swap that lets ingest.Push hand a producer's batch to
//     the engine without copying a byte while both free lists stay in
//     equilibrium. Legacy PartitionStream sources may reuse their
//     returned backing arrays after their next NextBatch call: the
//     engine deep-copies during routing and retains nothing.
//
//   - Producers. ingest.Push producers either loan-and-fill
//     (GetBatch/SendBatch, allocation-free) or Send([]Point), which
//     wraps the caller's points zero-copy in a borrowed batch — there
//     ownership of the points transfers to the stream until routed.
//
//   - Routing. The ingest goroutine scatters each point's payload into
//     pooled per-shard batches (the one unavoidable copy, and the one
//     that severs all sharing with source memory); with a single shard
//     even that disappears — the worker takes the source-filled batch
//     outright.
//
//   - Consumers. A shard worker consumes a batch's views and returns
//     the batch to the free list, so everything downstream of the
//     channel — transformers, classifiers, explainers, OnBatch hooks —
//     must copy whatever point data it retains beyond the call that
//     delivered it. Every built-in operator already does: classifier
//     reservoirs copy admitted metric vectors, explanation sketches
//     and trees copy attribute ids, windowing transformers copy what
//     they buffer. A recycling -race hammer pins that no slab is ever
//     visible to two owners.
//
// Producer-side backpressure is observable: each push partition meters
// its queue depth and the cumulative time producers spent blocked on a
// full queue (core.PartitionIngestStats), surfaced in
// core.StreamStats.Ingest when a run ends and live in mbserver's
// /stream/{id} "ingest" block.
//
// On the wire, mbserver's POST /stream/{id}/push accepts — next to
// NDJSON — a compact length-prefixed binary row format ("MBR1",
// specified in internal/ingest/binrows.go) so high-rate producers skip
// JSON entirely: both formats decode through per-session pooled
// decoders straight into loaned batches, and the binary path
// (ingest.BinaryRowReader + encode.Encoder.EncodeBytes, whose
// interned-value lookups never materialize a string) is
// allocation-free in steady state.
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
// the committed offsets into a small versioned JSON blob at any time,
// including after the run has ended, and pipeline.ResumeStream builds
// a fresh session that seeks each partition (core.SeekablePartition)
// back to its committed offset: ingest.Push retains unacked points in
// a bounded replay log when EnableReplay is set (producers stall at
// the cap instead of evicting unacked data), and path-opened
// ingest.PartitionedCSV seeks by reopening its files. mbserver exposes
// the pair as GET and POST /stream/{id}/checkpoint. Replayed points
// are re-delivered, not deduplicated — downstream effects must
// tolerate at-least-once.
//
// Transient faults. core.RetryPartition wraps any partition stream
// with bounded retries under exponential backoff with jitter and an
// optional per-attempt timeout. Errors are classified by
// core.IsTransient — core.ErrTransient in the chain, a deadline
// expiry, or anything exposing Transient() bool — and everything else
// (including parent-context cancellation) propagates immediately.
// Retry counts surface per partition in
// core.StreamStats.Ingest[].Retries.
//
// Shard failure. A panic in one shard's operators is contained by that
// shard's worker: the shard is quarantined, its remaining input is
// drained and counted as dropped (but still acked, so checkpoints and
// backpressure never wedge on a dead shard), and the run completes on
// the survivors. The result is marked rather than silently partial —
// core.StreamStats.Degraded plus one core.ShardFailure per dead shard,
// folded by the merge layer into pipeline.ShardedResult and by
// mbserver into the "health" block of every /stream/{id} response.
//
// The model is exercised by a deterministic chaos harness
// (ingest.ChaosPartition): seeded fault plans inject transient errors,
// stalls, duplicates, reorders, and torn MBR1 frames into any
// partition source. The load-bearing property, pinned by tests, is
// that transient-only fault plans leave delivery order and batch
// boundaries intact, so a retried run's answer is identical to a
// fault-free one; examples/firehose exposes the same knobs via -chaos
// flags.
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
//   - test runs vet, build and `go test -race -timeout 5m ./...` on a Go
//     matrix: 1.22 is the go.mod floor, 1.24 the toolchain every
//     committed BENCH_*.json and every bench/ number is recorded with.
//     The timeout is half the default so that a deadlocked test (one sat
//     in core's offload suite until PR 18) prints its goroutines while
//     someone is still watching. internal/mcd and internal/stats run once
//     more with -count=1: the C-step kernel's oracle comparisons are the
//     contract for FastMCD's answers, and the selection under them must
//     keep compiling at the go.mod floor. (The comparison against
//     converge-all-ten is a statistic over twelve fit seeds; it runs in
//     the plain `go test ./...` and skips itself under -race, where the
//     basin and fall-through tests still run.) The same job runs the kernel
//     regression gate: `cmd/mbbench -bench -compare
//     <baseline>` fails when a hot-path kernel disappears or inflates
//     more than 2x against the committed baseline — allocs/op always,
//     ns/op only when the baseline's hardware and GOMAXPROCS match the
//     runner's, so shared-runner wall-clock noise cannot flake it (a
//     mismatch is a warning; the pipeline kernels measure the core
//     budget there, not the code). A regression lands only together
//     with a new justified baseline. The baseline and its history are
//     under "Kernel baseline" below.
//   - bench-smoke runs the end-to-end harness's own tests (`cd bench &&
//     go test ./...`: every workload at toy size, and the test that
//     the staged replay still matches the server). bench/ is a separate
//     module that the root `go test ./...` does not see.
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
//   - fuzz-replay replays every committed testdata/fuzz seed under
//     -race: the oracles (brute-force tree and explainer models) rerun
//     the exact scripts that once found or nearly found bugs,
//     deterministically.
//   - chaos runs the fault-injection, retry, resume and degradation
//     suites across a fixed seed matrix; reproduce a leg locally with
//     MACROBASE_CHAOS_SEED=<seed>.
//
// # Kernel baseline
//
// BENCH_PR32.json (go1.24, go_max_procs 2, on the 2-core box) is the
// one committed kernel baseline: each entry the middle of three runs in
// one sitting, the three MCDFit ones in a later sitting than the rest
// and Poll/p3s4 in a third. It reads, in µs/op:
//
//	consume                  233    PushIngest/p3s4          54.8
//	poll-full               2740    Coordinate/p3s4          61.6
//	Poll/p3s4               7774    Rebalance/p3s4           59.5
//	FPGrowthMine           12369    Rebalance/p3s4-pinned    57.9
//	MCDFit/n10k-p7, ms      41.0    Route/p3s4               19.4
//	MCDFit/n10k-p2, ms      26.6    binary-decode             103
//	MCDFit/n40k-p7, ms       102
//
// poll-warm, poll-inlier-moved and DeltaMine/steady-drift measured the
// reuse layers "One poll path" describes and were deleted with them.
// Poll/p3s4 times the session's merged poll over four static shards: a
// Clone of each shard, then MergeStreamingInto on the polling
// goroutine. Its four whole clones, inlier trees included (8.2 MB an
// op), are why it reads above the two PollParallel kernels it replaced,
// which copied only shard 0's sketches and outlier tree and then merged
// striped four ways or inline (-w1). The table below is the kernels'
// trajectory up to the baseline before this one: what it and its
// predecessors read, in µs/op — columns PR3-PR10 on a 1-core box,
// PR15-PR26 on a 2-core one, so compare along a row only within those
// groups ("=": carried over from the column to the left — PR19
// re-recorded the two PollParallel kernels, PR20 and PR26 the three
// MCDFit ones, PR25 every kernel that survived it):
//
//	kernel                      PR3    PR5    PR8   PR10   PR15   PR16   PR18   PR19   PR20   PR25   PR26
//	consume                    1684   1331   1579   1560    234    265    261      =      =    233      =
//	poll-full                  2147   1810   4044   3731   3138   2804   2807      =      =   2740      = (a)
//	poll-warm                  3.25   2.29   2.46   2.21   1.98   2.11   2.69      =      =      -      -
//	poll-inlier-moved          1654   1456   1313   1156   1193   1457   1287      =      =      -      -
//	DeltaMine/steady-drift        -      -    776    649    579    725    620      =      =      -      -
//	DeltaMine/steady-drift-full   -      -   4049   3553   2961      -      -      -      -      -      - (b)
//	PollParallel/p3s4             -      -      -  78968  24615  26521  23032   3417      =   3402      = (e)
//	PollParallel/p3s4-w1          -      -      -  78865  26518  27129  25238   4095      =   4508      = (c)
//	PushIngest/p3s4               -   69.5    121   95.0   55.2   61.0   59.8      =      =   54.8      =
//	Route/p3s4                    -   22.8   28.9   35.4   20.0   22.5   20.4      =      =   19.4      =
//	binary-decode                 -   84.7    115    103   88.4   92.2   83.0      =      =    103      =
//	FPGrowthMine              26727  20476  24596  22452  12736  13896  13640      =      =  12369      =
//	MCDFit/n10k-p7, ms            -      -      -      -      -    304    120      =   58.8   71.0   41.0 (d)
//	MCDFit/n10k-p2, ms            -      -      -      -      -    323   68.9      =   25.7   29.6   26.6 (d)
//	MCDFit/n40k-p7, ms            -      -      -      -      -   1414    556      =    143    151    102 (d)
//
// (a) Through PR 15 a cache-off switch made a static explainer re-mine;
// from PR 16 the kernel is the poll after a decay tick. (b) The
// delta-off switch went in PR 16; the last full/delta ratio was 5.1x.
// (c) Through PR 15 likewise cache-off over static shards; from PR 16 a
// few points land on one shard before each poll. The last w1/w4 ratios:
// 1.08x at PR 15, 1.02x at PR 16, 1.10x at PR 18, 1.20x at PR 19, all on
// 2 cores. One more dropped leg: BenchmarkStreamSessionPoll/
// steady-nocache, last 169 ms against steady's 2.53 ms (PR 3). (d) In
// ms/op: one
// default-config mcd.Fit over a workload dataset's metrics — a shard's
// reservoir refit on firehose_xc (p7) and poll_drift (p2), and
// batch_query's 40K training sample. The kernels joined the gate in
// PR 18; their PR16 entries are the median of three runs of the PR 16
// tree in the PR 18 sitting. PR 18 sorts nothing (2.5x, 4.7x and 2.5x
// faster) and allocates 297 times a fit against ~18,500. PR 20
// concentrates one candidate on the full data, not ten (the middle of
// three alternating runs: 56.1-60.3, 25.7-27.9 and 143-151 ms against
// 122-126, 68.7-75.2 and 491-504 ms for the PR 19 tree in the same
// sitting — 2.1x, 2.8x and 3.5x), and ranks the merged and full-data
// levels in the candidates' own storage: 262 allocations. The PR26 fit
// sweeps four points at a time and sums covariance cells in registers,
// which changes no bit of a fit (the middle of three alternating runs
// in a noisy sitting: 40.0-53.0, 24.9-27.8 and 94.4-110 ms against
// 67.6-88.6, 31.8-38.1 and 154-211 ms for the tree before it; `go test
// -bench` the same hour read 39-43 / 23-24 / 93-94 against 60-61 /
// 27-28 / 145-148), and its steppers own two more buffers each: 276
// allocations. (e) PR 19:
// the merged poll over four shards no longer builds the union inlier
// tree — 16.2 MB a poll down to 2.3 MB, 6.7x and 6.2x faster (the
// third of four runs in one sitting: 3.35-3.72 and 4.03-4.39 ms; the
// PR 18 tree read 26.1 and 25.4 ms in it). Sittings on this shared box
// differ by 10-30% (PR 15's own tree read 1.04-1.34x its baseline on
// the PR 16 day); same-sitting pairs of adjacent trees are in
// CHANGES.md.
package macrobase

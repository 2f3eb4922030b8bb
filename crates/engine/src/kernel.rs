//! The three kernels every backend is built from.
//!
//! A partitioned batch is row blocks ([`PartitionPlan`]): every technique
//! builds a block as `(key, count)` runs over its value column, one run per
//! key, keys ascending, so the Map fold ([`map_block`]) walks the runs and
//! folds each straight onto its key-ordered output: no table, no sort.
//! Everything downstream of the Map fold sees only [`ClusterList`]s, so the
//! two executors — the local one ([`crate::threaded`], one thread for
//! `InProcess`, `n` for `Threaded`) and the worker fleet ([`crate::net`]) —
//! share [`assign_block`] and [`reduce_bucket`] verbatim and cannot diverge by
//! backend. [`assign_block`] looks each cluster up once in the batch's
//! split-key table, sorted once a batch and walked beside the key-ascending
//! clusters, and keeps the flags beside the assignment. [`reduce_bucket`]
//! merges a bucket's partials by one stable radix sort by key and one fold of
//! equal neighbours, with no table: the local executor reads the flags to
//! hand it only split keys' partials, while a worker, which is not told
//! which keys are split, hands it every partial it fetched.

use prompt_core::batch::{Columns, DataBlock};
use prompt_core::hash::KeyMap;
use prompt_core::reduce::{split_flags, KeyCluster, ReduceAssigner};
use prompt_core::sort::RadixSort;
use prompt_core::types::Key;

use crate::job::{Job, ReduceOp};
use crate::stage::{BatchOutput, BucketStats};
use crate::trace::{Counter, TraceRecorder};

/// One Map task's output: `(key, (partial aggregate, tuples folded))` per
/// key cluster, in key order.
pub(crate) type ClusterList = Vec<(Key, (f64, usize))>;

/// Map + local combine over one block into `out` (whatever it held before),
/// in key order. Each run — one per key, keys ascending — folds into a local
/// accumulator that goes straight onto `out`: no table, no sort. A job that
/// reads runs alone ([`Columns::Runs`], a count under the identity map)
/// answers each key with its run's length: `n` applies of `+1` sum to exactly
/// `n` below 2⁵³. Otherwise each key's `apply` sequence is the per-tuple
/// fold's, so the output is bit-identical to it. The distributed worker runs
/// this same fold on the block it decodes, so map outputs are bit-identical
/// across backends.
pub(crate) fn map_block(block: &DataBlock, job: &Job, out: &mut ClusterList) {
    out.clear();
    if job.columns() == Columns::Runs {
        // One push a run, as below: a table that grows grows by doubling.
        for run in &block.runs {
            out.push((run.key, (run.count as f64, run.count)));
        }
        return;
    }
    let op = job.reduce();
    for (key, values) in block.key_runs() {
        debug_assert!(
            out.last().is_none_or(|&(last, _)| last.0 < key.0),
            "run keys ascend"
        );
        let mut mapped = values.iter().filter_map(|&v| (job.map())(key, v));
        if let Some(v) = mapped.next() {
            let folded = mapped.fold((op.apply(None, v), 1), |(a, n), v| {
                (op.apply(Some(a), v), n + 1)
            });
            out.push((key, folded));
        }
    }
}

/// What one batch's shuffle routed: the `ScatterFragments` /
/// `SplitKeyFragments` counters, tallied beside the batch and recorded once
/// it has an answer — a batch is counted once however often it was attempted.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ShuffleTally {
    fragments: u64,
    split_key_fragments: u64,
}

impl ShuffleTally {
    pub(crate) fn record(self, rec: &TraceRecorder) {
        rec.incr(Counter::ScatterFragments, self.fragments);
        rec.incr(Counter::SplitKeyFragments, self.split_key_fragments);
    }
}

impl std::ops::AddAssign for ShuffleTally {
    fn add_assign(&mut self, other: ShuffleTally) {
        self.fragments += other.fragments;
        self.split_key_fragments += other.split_key_fragments;
    }
}

/// One Map task's Algorithm 3 buffers, kept from block to block: the
/// assigner's input, each cluster's split flag and each cluster's bucket.
#[derive(Clone, Debug, Default)]
pub(crate) struct Assignment {
    descs: Vec<KeyCluster>,
    /// Whether each cluster's key is split across blocks: the one look-up
    /// of the split-key table per cluster, which the assigner, the tally
    /// and the local shuffle all read.
    pub(crate) split: Vec<bool>,
    /// The Reduce bucket of each cluster.
    pub(crate) buckets: Vec<u32>,
}

/// Shuffle-assign Map task `task`'s output into `into`: route each `(key,
/// size)` cluster to its Reduce bucket. A pure function of the block's own
/// output (§5: "no coordination between Map tasks"), so callers may run it
/// for any block, in any order, as often as they like. `split_keys` is the
/// batch's split-key table in ascending order
/// ([`prompt_core::reduce::sort_split_keys`]). Adds
/// the routings performed, and how many carried a split key, to `tally`.
pub(crate) fn assign_block(
    task: usize,
    clusters: impl Iterator<Item = (Key, usize)>,
    split_keys: &[Key],
    assigner: &dyn ReduceAssigner,
    r: usize,
    tally: Option<&mut ShuffleTally>,
    into: &mut Assignment,
) {
    let Assignment {
        descs,
        split,
        buckets,
    } = into;
    descs.clear();
    descs.extend(clusters.map(|(key, size)| KeyCluster { key, size }));
    split_flags(descs, split_keys, split);
    assigner.assign(task, descs, split, r, buckets);
    // Every executor zips clusters with buckets: a short list or a bucket
    // nobody reduces would drop keys from the answer without a sound.
    assert_eq!(buckets.len(), descs.len(), "assigner output length");
    assert!(
        buckets.iter().all(|&b| (b as usize) < r),
        "bucket out of range"
    );
    if let Some(tally) = tally {
        tally.fragments += buckets.len() as u64;
        tally.split_key_fragments += split.iter().filter(|&&s| s).count() as u64;
    }
}

/// One `(key, partial, tuples)` item of a Reduce bucket.
pub(crate) type BucketItem = (Key, f64, usize);

/// Reduce one bucket: merge its `(key, partial, tuples)` items per key into
/// `out` (whatever it held before), keys ascending. Callers present items in
/// block order, then key order within a block; a stable sort by key keeps
/// each key's partials in that order, so each key folds in the one merge
/// sequence that keeps `f64` aggregates bit-identical across backends. The
/// sort reorders `items` in place, in `sort`'s kept buffers, and the fold
/// merges each key's partials as neighbours: no table.
pub(crate) fn reduce_bucket(
    items: &mut [BucketItem],
    op: ReduceOp,
    sort: &mut RadixSort<BucketItem>,
    out: &mut Vec<(Key, f64)>,
) -> BucketStats {
    sort.sort(items, |&(key, ..)| key.0);
    out.clear();
    let mut tuples = 0;
    for &(key, value, n) in items.iter() {
        tuples += n;
        match out.last_mut() {
            Some((last, acc)) if *last == key => *acc = op.merge(*acc, value),
            _ => out.push((key, value)),
        }
    }
    BucketStats {
        tuples,
        keys: out.len(),
        fragments: items.len(),
    }
}

/// Gather the reduced buckets, in bucket order, into the batch's output and
/// per-bucket shuffle statistics. The output is sized up front for the sum of
/// the buckets' key counts: exactly its final size, the buckets being
/// disjoint.
///
/// A key answered twice has one partial for an answer, so it is
/// `Err((bucket, key))`, naming the later bucket that answered for `key`.
/// Locally that is a plan bug — a split-key table that leaves out a key
/// spanning blocks, whose partials then skip the merge as single ones, in
/// one bucket or in two; on the fleet it is also what a reducer lying about
/// its bucket looks like.
pub(crate) fn gather_buckets<M: IntoIterator<Item = (Key, f64)>>(
    reduced: impl IntoIterator<Item = (M, BucketStats)>,
) -> Result<(BatchOutput, Vec<BucketStats>), (usize, Key)> {
    let reduced: Vec<(M, BucketStats)> = reduced.into_iter().collect();
    let mut aggregates: KeyMap<f64> = KeyMap::default();
    aggregates.reserve(reduced.iter().map(|(_, s)| s.keys).sum());
    let mut stats = Vec::with_capacity(reduced.len());
    for (b, (bucket, s)) in reduced.into_iter().enumerate() {
        stats.push(s);
        for (k, v) in bucket {
            if aggregates.insert(k, v).is_some() {
                return Err((b, k));
            }
        }
    }
    Ok((BatchOutput { aggregates }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::cost::CostModel;
    use crate::net::wire::{encode_map_task, encode_map_task_columnar, Message};
    use crate::net::{DistributedOptions, DistributedRuntime, LaunchMode};
    use crate::stage::{execute_columnar_traced, times_from_stats, StageTimes};
    use crate::threaded::ThreadedExecutor;
    use crate::trace::TraceLevel;
    use prompt_core::batch::{MicroBatch, PartitionPlan};
    use prompt_core::columnar::ColumnarPlan;
    use prompt_core::partitioner::Technique;
    use prompt_core::reduce::PromptReduceAllocator;
    use prompt_core::types::{Interval, Time, Tuple};
    use proptest::prelude::*;

    /// `spec` = `(key, count)`s, arrivals interleaved round-robin over the
    /// keys, values varied so a Sum's fold order shows in its bits.
    fn batch(spec: &[(u64, usize)]) -> MicroBatch {
        let mut remaining = spec.to_vec();
        let mut tuples = Vec::new();
        while remaining.iter().any(|&(_, left)| left > 0) {
            for (key, left) in remaining.iter_mut().filter(|(_, left)| *left > 0) {
                *left -= 1;
                let i = tuples.len() as u64;
                let value = (i % 17) as f64 * 0.25 - 1.5;
                tuples.push(Tuple::new(Time(1 + i), Key(*key), value));
            }
        }
        let end = Time(tuples.len() as u64 + 2);
        MicroBatch::new(tuples, Interval::new(Time::ZERO, end))
    }

    /// Everything one execution of a plan is compared on.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        /// Key-sorted `(key, aggregate bits)`.
        aggregates: Vec<(Key, u64)>,
        stats: Vec<BucketStats>,
        times: StageTimes,
        scatter_fragments: u64,
        split_key_fragments: u64,
    }

    /// Run `exec` with a fresh allocator and recorder and digest its result.
    fn outcome(
        plan: &PartitionPlan,
        exec: impl FnOnce(
            &dyn ReduceAssigner,
            Option<&TraceRecorder>,
        ) -> (BatchOutput, Vec<BucketStats>),
    ) -> Outcome {
        let rec = TraceRecorder::new(TraceLevel::Summary);
        let (output, stats) = exec(&PromptReduceAllocator::new(5), Some(&rec));
        let mut aggregates: Vec<(Key, u64)> = output
            .aggregates
            .iter()
            .map(|(&k, &v)| (k, v.to_bits()))
            .collect();
        aggregates.sort_unstable_by_key(|&(k, _)| k.0);
        Outcome {
            aggregates,
            times: times_from_stats(plan, &stats, &CostModel::default(), &Cluster::new(1, 8)),
            stats,
            scatter_fragments: rec.counter(Counter::ScatterFragments),
            split_key_fragments: rec.counter(Counter::SplitKeyFragments),
        }
    }

    /// The per-tuple fold `map_block` ran on every block before it walked key
    /// runs, verbatim but for reading a block's pairs: one table entry per
    /// mapped tuple, in placement order, then a drain and a sort. The
    /// reference the run walk must equal bit for bit.
    fn per_tuple_fold(pairs: &[(Key, f64)], job: &Job) -> ClusterList {
        let mut clusters: KeyMap<(f64, usize)> = KeyMap::default();
        for &(key, value) in pairs {
            if let Some(v) = (job.map())(key, value) {
                match clusters.entry(key) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let (acc, n) = e.get_mut();
                        *acc = job.reduce().apply(Some(*acc), v);
                        *n += 1;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((job.reduce().apply(None, v), 1));
                    }
                }
            }
        }
        let mut out: ClusterList = clusters.into_iter().collect();
        out.sort_unstable_by_key(|(k, _)| k.0);
        out
    }

    /// A cluster list with its aggregates as bits.
    fn bits(out: &ClusterList) -> Vec<(Key, u64, usize)> {
        out.iter().map(|&(k, (v, n))| (k, v.to_bits(), n)).collect()
    }

    /// The bucket merge as both executors ran it before the sort: every item
    /// into a table sized for them all, in the order given. The reference
    /// the radix merge must equal bit for bit.
    fn merge_in_a_table(
        items: impl IntoIterator<Item = BucketItem>,
        n_items: usize,
        op: ReduceOp,
        acc: &mut KeyMap<f64>,
    ) -> BucketStats {
        debug_assert!(acc.is_empty(), "a bucket merges into an empty table");
        acc.reserve(n_items);
        let (mut tuples, mut fragments) = (0, 0);
        for (key, value, n) in items {
            tuples += n;
            fragments += 1;
            acc.entry(key)
                .and_modify(|a| *a = op.merge(*a, value))
                .or_insert(value);
        }
        BucketStats {
            tuples,
            keys: acc.len(),
            fragments,
        }
    }

    /// `items` merged by the table, then by the kernel through a sorter and
    /// an output that already hold another bucket's: each answer as
    /// key-ascending `(key, bits)`, with its statistics.
    fn both_merges(items: &[BucketItem], op: ReduceOp) -> [(Vec<(Key, u64)>, BucketStats); 2] {
        let mut table = KeyMap::default();
        let table_stats = merge_in_a_table(items.iter().copied(), items.len(), op, &mut table);
        let mut want: Vec<(Key, u64)> = table.iter().map(|(&k, &v)| (k, v.to_bits())).collect();
        want.sort_unstable_by_key(|&(k, _)| k.0);

        let (mut sort, mut out) = (RadixSort::default(), Vec::new());
        let mut other: Vec<BucketItem> = (0..200).map(|i| (Key(i % 70), 1.5, 1)).collect();
        reduce_bucket(&mut other, op, &mut sort, &mut out);
        let stats = reduce_bucket(&mut items.to_vec(), op, &mut sort, &mut out);
        let got = out.iter().map(|&(k, v)| (k, v.to_bits())).collect();
        [(got, stats), (want, table_stats)]
    }

    const OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Count, ReduceOp::Max, ReduceOp::Min];

    /// The buckets a random draw seldom makes: none, one item, and one key
    /// from every block.
    #[test]
    fn empty_and_one_item_buckets_merge_as_the_table() {
        let one_key: Vec<BucketItem> = (0..70).map(|i| (Key(9), i as f64 * 0.1, 2)).collect();
        for items in [vec![], vec![(Key(u64::MAX), -0.5, 3)], one_key] {
            for op in OPS {
                let [got, want] = both_merges(&items, op);
                assert_eq!(got, want, "{op:?} over {} items", items.len());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run walk against the per-tuple fold: a block placed from
        /// arbitrary `(key, length)` stretches of arrivals — keys repeating,
        /// descending, coming back — values varied so a Sum's fold order
        /// shows in its bits; a map that keeps all, drops whole keys, drops
        /// single tuples or drops everything; every `ReduceOp`. Grouped into
        /// one run per key, each key's values in placement order, the block
        /// must map to the per-tuple fold of its arrivals, bit for bit.
        #[test]
        fn map_block_matches_the_per_tuple_fold(
            stretches in proptest::collection::vec((0u64..12, 1usize..6), 0..40),
            filter in 0u8..4,
            op in 0u8..4,
        ) {
            let keys = (stretches.iter()).flat_map(|&(key, len)| std::iter::repeat_n(Key(key), len));
            let pairs: Vec<(Key, f64)> = (keys.enumerate())
                .map(|(i, key)| (key, (i % 13) as f64 * 0.37 - 2.1))
                .collect();
            let block: DataBlock = pairs.iter().copied().collect();
            let op = [ReduceOp::Sum, ReduceOp::Count, ReduceOp::Max, ReduceOp::Min][op as usize];
            let job = match filter {
                0 => Job::identity("all", op),
                1 => Job::new("drop-keys", |k: Key, v| (!k.0.is_multiple_of(3)).then_some(v), op),
                2 => Job::new("drop-tuples", |_, v: f64| (v >= 0.0).then_some(v), op),
                _ => Job::new("drop-all", |_, _| None, op),
            };
            let want = per_tuple_fold(&pairs, &job);
            let mut out = vec![(Key(1), (0.5, 9))];
            map_block(&block, &job, &mut out);
            prop_assert_eq!(bits(&out), bits(&want), "{:?}", stretches);
        }

        /// The radix merge against the table merge: a bucket of blocks, each
        /// a key-ascending run of `(key, partial, tuples)` items, keys
        /// recurring across blocks — from 0 items (no block, or only empty
        /// ones) up past the sort's comparison fallback, keys narrow or
        /// spread over all 64 bits — values whose Sum shows its fold order in
        /// the bits, every `ReduceOp`. The kernel must answer every key the
        /// table's `f64` bit for bit, keys ascending, with the table's
        /// `BucketStats`.
        #[test]
        fn reduce_bucket_matches_the_table_merge(
            blocks in proptest::collection::vec(
                proptest::collection::vec((0u64..48, 0u16..400, 1usize..9), 0..24),
                0..12,
            ),
            wide in any::<bool>(),
            op in 0u8..4,
        ) {
            let key = |k: u64| Key(if wide { prompt_core::hash::mix64(k) } else { k });
            let value = |v: u16| v as f64 * 0.37 - 2.1 + if v.is_multiple_of(7) { 1e16 } else { 0.0 };
            let items: Vec<BucketItem> = (blocks.iter())
                .flat_map(|block| {
                    let mut run: Vec<BucketItem> =
                        block.iter().map(|&(k, v, n)| (key(k), value(v), n)).collect();
                    run.sort_by_key(|&(k, ..)| k.0);
                    run.dedup_by_key(|&mut (k, ..)| k);
                    run
                })
                .collect();
            let [got, want] = both_merges(&items, OPS[op as usize]);
            prop_assert_eq!(got, want, "{:?}", items);
        }
    }

    /// The technique's own columnar cut of `mb` where it has one, else the
    /// row plan's columnar rendering.
    fn columnar_cut(technique: Technique, mb: &MicroBatch, p: usize) -> ColumnarPlan {
        match technique.build(5).partition_columnar(mb, p) {
            Some((cols, _)) => cols,
            None => ColumnarPlan::from_row_plan(&technique.build(5).partition(mb, p)),
        }
    }

    /// What the fleet's submit-time assignment rests on (`net/driver.rs`): an
    /// identity Map keeps every tuple under its own key, so a block's Map
    /// output, as `(key, tuples folded)`, is the block's fragment table —
    /// whatever cut the block, on the driver and on the worker that decodes
    /// its frame. The columnar frame adapter (`encode_map_task_columnar`)
    /// over the technique's own columnar cut must put the row frame's bytes
    /// on the wire.
    #[test]
    fn an_identity_map_yields_each_blocks_fragment_table() {
        let spec = Job::identity("id", ReduceOp::Sum)
            .wire_spec()
            .expect("an identity Map");
        let check = |rows: &PartitionPlan, cols: &ColumnarPlan, what: &str| {
            for (i, block) in rows.blocks.iter().enumerate() {
                let frame = encode_map_task(1, 2, i as u32, &spec, block);
                let (arena, col) = (&cols.arena, &cols.blocks[i]);
                let columnar = encode_map_task_columnar(1, 2, i as u32, &spec, arena, col);
                assert_eq!(columnar, frame, "{what}: block {i}'s columnar frame");
                let Ok(Message::MapTask { block: decoded, .. }) = Message::decode(&frame) else {
                    panic!("{what}: block {i}'s frame decodes to a Map task");
                };
                let fragments = block.runs.iter().map(|f| (f.key, f.count));
                let fragments: Vec<(Key, usize)> = fragments.collect();
                for op in [ReduceOp::Sum, ReduceOp::Count, ReduceOp::Max, ReduceOp::Min] {
                    let job = Job::identity("id", op);
                    for (side, block) in [("driver", block), ("worker", &decoded)] {
                        let mut mapped = ClusterList::new();
                        map_block(block, &job, &mut mapped);
                        let mapped = mapped.into_iter().map(|(k, (_, n))| (k, n));
                        assert_eq!(
                            mapped.collect::<Vec<_>>(),
                            fragments,
                            "{what}: block {i} on the {side} under {op:?}"
                        );
                    }
                }
            }
        };

        let zipf: Vec<(u64, usize)> = (0..60).map(|k| (k, 900 / (k as usize + 1))).collect();
        let batches = [
            ("skewed", zipf),
            ("all one key", vec![(7, 400)]),
            ("empty", vec![]),
            ("fewer tuples than blocks", vec![(1, 1), (2, 1)]),
        ];
        let techniques = Technique::EVALUATION_SET
            .into_iter()
            .chain([Technique::DChoices(2), Technique::PromptCountTree]);
        for technique in techniques {
            for (name, spec) in &batches {
                for p in [1, 3, 8] {
                    let mb = batch(spec);
                    let rows = technique.build(5).partition(&mb, p);
                    let cols = columnar_cut(technique, &mb, p);
                    check(&rows, &cols, &format!("{technique:?} {name} p={p}"));
                }
            }
        }
    }

    /// The fleet reports no counts: a bucket's tuples and fragments are what
    /// the driver tallied from its assignment at submit, and its keys are
    /// the length of the reducer's answer. That must be what `reduce_bucket`
    /// counts, bucket for bucket, for every technique and `r` — and what the
    /// columnar adapter (`execute_columnar_traced`) over the technique's own
    /// columnar cut is costed from.
    #[test]
    fn the_fleets_submit_tally_is_what_every_merge_counts() {
        let mut opts = DistributedOptions::new(2, 0);
        opts.launch = LaunchMode::Thread;
        let mut fleet = DistributedRuntime::launch(opts).expect("launch");
        let job = Job::identity("sum", ReduceOp::Sum);
        let spec = job.wire_spec().expect("an identity Map crosses the wire");
        let (cost, cluster) = (CostModel::default(), Cluster::new(1, 8));
        let zipf: Vec<(u64, usize)> = (0..120).map(|k| (k, 1800 / (k as usize + 1))).collect();
        let tuples: usize = zipf.iter().map(|&(_, n)| n).sum();
        let mb = batch(&zipf);
        let techniques = Technique::EVALUATION_SET
            .into_iter()
            .chain([Technique::DChoices(2), Technique::PromptCountTree]);
        let mut seq = 0u64;
        for technique in techniques {
            let rows = technique.build(5).partition(&mb, 4);
            let cols = columnar_cut(technique, &mb, 4);
            for r in [1, 3, 16] {
                let assigner = PromptReduceAllocator::new(5);
                let (_, merged, _) =
                    ThreadedExecutor::new(1).execute_plan(&rows, &job, &assigner, r, None);
                assert_eq!(merged.iter().map(|s| s.tuples).sum::<usize>(), tuples);
                seq += 1;
                fleet.submit(seq, &rows, &spec, &assigner, r, None);
                let (_, tallied) = fleet.wait_batch(seq, None).expect("no faults");
                assert_eq!(tallied, merged, "{technique:?}, r = {r}");
                let (_, times) =
                    execute_columnar_traced(&cols, &job, &assigner, r, &cost, &cluster, None);
                let want = times_from_stats(&rows, &tallied, &cost, &cluster);
                assert_eq!(times, want, "{technique:?} over columns, r = {r}");
            }
        }
    }

    /// One plan through every backend: the local executor at 1
    /// (`InProcess`), 2 and 3 threads and a thread-mode worker fleet must
    /// agree on every aggregate bit, every bucket's statistics, the stage
    /// times and the shuffle counters; and so must the columnar adapter
    /// (`execute_columnar_traced`) over the plan's columnar rendering, on
    /// everything it reports (it returns no bucket statistics).
    #[test]
    fn every_backend_agrees_on_every_layout() {
        struct Case {
            name: &'static str,
            technique: Technique,
            spec: Vec<(u64, usize)>,
            p: usize,
            r: usize,
            job: Job,
            check: fn(&PartitionPlan, &Outcome),
        }
        let sum = || Job::identity("sum", ReduceOp::Sum);
        let zipf: Vec<(u64, usize)> = (0..150).map(|k| (k, 2400 / (k as usize + 1))).collect();
        let cases = [
            Case {
                name: "zipf with split keys",
                technique: Technique::Prompt,
                spec: zipf,
                p: 4,
                r: 3,
                job: sum(),
                check: |plan, o| {
                    assert!(!plan.split_keys.is_empty(), "case needs a split key");
                    assert!(o.split_key_fragments >= 2);
                    assert_eq!(o.aggregates.len(), 150);
                },
            },
            Case {
                name: "empty batch",
                technique: Technique::Prompt,
                spec: vec![],
                p: 3,
                r: 2,
                job: sum(),
                check: |_, o| assert!(o.aggregates.is_empty() && o.scatter_fragments == 0),
            },
            Case {
                name: "single key",
                technique: Technique::Prompt,
                spec: vec![(7, 500)],
                p: 4,
                r: 2,
                job: sum(),
                check: |_, o| assert_eq!(o.aggregates.len(), 1),
            },
            Case {
                name: "r > distinct keys",
                technique: Technique::Hash,
                spec: vec![(1, 40), (2, 30), (3, 20), (4, 10), (5, 5)],
                p: 2,
                r: 8,
                job: sum(),
                check: |_, o| assert_eq!((o.aggregates.len(), o.stats.len()), (5, 8)),
            },
            Case {
                name: "map filters every tuple",
                technique: Technique::Prompt,
                spec: vec![(1, 300), (2, 20), (3, 5)],
                p: 3,
                r: 2,
                job: Job::new("drop-all", |_, _| None, ReduceOp::Sum),
                check: |_, o| assert!(o.aggregates.is_empty() && o.scatter_fragments == 0),
            },
            Case {
                name: "map filters one key out",
                technique: Technique::Shuffle,
                spec: vec![(1, 10), (2, 10)],
                p: 2,
                r: 2,
                job: Job::new(
                    "only-key-1",
                    |k: Key, _| (k == Key(1)).then_some(1.0),
                    ReduceOp::Sum,
                ),
                check: |_, o| {
                    let ten = 10.0f64.to_bits();
                    assert_eq!(o.aggregates, [(Key(1), ten)], "filtered key entered");
                },
            },
        ];

        let mut opts = DistributedOptions::new(2, 0);
        opts.launch = LaunchMode::Thread;
        let mut fleet = DistributedRuntime::launch(opts).expect("launch");
        let mut seq = 0u64;
        for case in &cases {
            let Case { name, job, r, .. } = case;
            let rows = case
                .technique
                .build(5)
                .partition(&batch(&case.spec), case.p);
            let local = |threads: usize| {
                outcome(&rows, |assigner, trace| {
                    let (output, stats, _wall) = ThreadedExecutor::new(threads)
                        .execute_plan(&rows, job, assigner, *r, trace);
                    (output, stats)
                })
            };
            let reference = local(1);
            (case.check)(&rows, &reference);
            for threads in [2, 3] {
                assert_eq!(local(threads), reference, "{name}: {threads} threads");
            }
            let cols = ColumnarPlan::from_row_plan(&rows);
            let (cost, cluster) = (CostModel::default(), Cluster::new(1, 8));
            let columnar = outcome(&rows, |assigner, trace| {
                let (output, times) =
                    execute_columnar_traced(&cols, job, assigner, *r, &cost, &cluster, trace);
                assert_eq!(times, reference.times, "{name}: columnar stage times");
                (output, reference.stats.clone())
            });
            assert_eq!(columnar, reference, "{name}: columnar adapter");
            // Closures cannot cross a process boundary.
            let Some(spec) = job.wire_spec() else {
                continue;
            };
            seq += 1;
            let distributed = outcome(&rows, |assigner, trace| {
                fleet.submit(seq, &rows, &spec, assigner, *r, trace);
                fleet.wait_batch(seq, trace).expect("no faults")
            });
            assert_eq!(distributed, reference, "{name}: fleet");
        }
    }
}

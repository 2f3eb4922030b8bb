//! The one place layout matters to execution, and the three kernels every
//! backend is built from.
//!
//! A partitioned batch is either row blocks ([`PartitionPlan`]) or ranges
//! into a column arena ([`ColumnarPlan`]). An executor asks a plan exactly
//! five things — how many blocks, which keys are split, what a block costs,
//! what a block maps to, and what a block looks like on the wire — and
//! [`PlanView`] answers them for either layout (a sixth, each block's
//! fragment list, is all that metrics, the policy and the rebalancer read).
//! The row Map fold walks a block's runs of one key: while their keys
//! ascend, as every Prompt block's do, each run goes straight onto the
//! key-ordered output; a block that breaks the order finishes through a
//! per-key table.
//! Everything downstream of the Map fold sees only [`ClusterList`]s, so the
//! two executors — the local one ([`crate::threaded`], one thread for
//! `InProcess`, `n` for `Threaded`) and the worker fleet ([`crate::net`]) —
//! share [`assign_block`] and [`merge_bucket`] verbatim and cannot diverge by
//! layout or by backend.

use prompt_core::batch::{DataBlock, KeyFragment, PartitionPlan};
use prompt_core::columnar::{ColumnarBatch, ColumnarBlock, ColumnarPlan};
use prompt_core::hash::{KeyMap, KeySet};
pub(crate) use prompt_core::partitioner::Plan;
use prompt_core::reduce::{KeyCluster, ReduceAssigner};
use prompt_core::types::Key;

use crate::job::{Job, JobSpec, ReduceOp};
use crate::net::wire::{encode_map_task, encode_map_task_columnar};
use crate::stage::{BatchOutput, BucketStats};
use crate::trace::{Counter, TraceRecorder};

/// One Map task's output: `(key, (partial aggregate, tuples folded))` per
/// key cluster, in key order.
pub(crate) type ClusterList = Vec<(Key, (f64, usize))>;

/// A partitioned batch as an executor sees it, in whichever layout the
/// batch was sealed.
#[derive(Clone, Copy)]
pub(crate) enum PlanView<'a> {
    Rows(&'a PartitionPlan),
    Columns(&'a ColumnarPlan),
}

impl<'a> PlanView<'a> {
    /// The view of a plan a `PreparedBatch` owns.
    pub(crate) fn of(plan: &'a Plan) -> PlanView<'a> {
        match plan {
            Plan::Rows(p) => PlanView::Rows(p),
            Plan::Columns(p) => PlanView::Columns(p),
        }
    }

    pub(crate) fn n_blocks(self) -> usize {
        match self {
            PlanView::Rows(p) => p.blocks.len(),
            PlanView::Columns(p) => p.blocks.len(),
        }
    }

    pub(crate) fn split_keys(self) -> &'a KeySet {
        match self {
            PlanView::Rows(p) => &p.split_keys,
            PlanView::Columns(p) => &p.split_keys,
        }
    }

    /// Block `i`'s per-key fragment list, sorted by key — the same list in
    /// either layout.
    pub(crate) fn fragments(self, i: usize) -> &'a [KeyFragment] {
        match self {
            PlanView::Rows(p) => &p.blocks[i].fragments,
            PlanView::Columns(p) => &p.blocks[i].fragments,
        }
    }

    /// Block `i`'s `(size, cardinality)` — what the cost model charges a Map
    /// task for (filtering happens inside the user function, so the whole
    /// block is charged).
    pub(crate) fn cost_inputs(self, i: usize) -> (usize, usize) {
        match self {
            PlanView::Rows(p) => (p.blocks[i].size(), p.blocks[i].cardinality()),
            PlanView::Columns(p) => (p.blocks[i].size(), p.blocks[i].cardinality()),
        }
    }

    /// Map + local combine over block `i` into `out`, through `fold`
    /// ([`map_block`]).
    pub(crate) fn map_block(self, i: usize, job: &Job, fold: &mut Fold, out: &mut ClusterList) {
        match self {
            PlanView::Rows(p) => map_block(&p.blocks[i], job, fold, out),
            PlanView::Columns(p) => map_block_columnar(&p.arena, &p.blocks[i], job, fold, out),
        }
    }

    /// Block `i` as one complete `MapTask` frame. The two layouts encode to
    /// identical bytes.
    pub(crate) fn encode_map_task(self, i: usize, seq: u64, epoch: u32, spec: &JobSpec) -> Vec<u8> {
        match self {
            PlanView::Rows(p) => encode_map_task(seq, epoch, i as u32, spec, &p.blocks[i]),
            PlanView::Columns(p) => {
                encode_map_task_columnar(seq, epoch, i as u32, spec, &p.arena, &p.blocks[i])
            }
        }
    }
}

/// A Map task's per-key fold table: `key → (partial aggregate, tuples
/// folded)`, for columnar blocks and row blocks whose key runs do not
/// ascend. Left empty by every kernel that fills it, so a caller that keeps
/// one per task reuses its allocation batch after batch; a caller whose row
/// blocks all ascend never allocates it.
pub(crate) type Fold = KeyMap<(f64, usize)>;

/// Map + local combine over one row block into `out` (whatever it held
/// before), in key order. While the block's runs of one key ascend — every
/// Prompt block's do, to its end — each run folds into a local accumulator
/// that goes straight onto `out`: no table, no sort. At the first run that
/// does not ascend past `out`'s last key, `out` moves into `fold` (empty)
/// and the rest of the block folds tuple by tuple through it, as a baseline
/// technique's block does; `fold` is left empty. Either way each key's
/// `apply` sequence is the per-tuple fold's, so the output is bit-identical
/// to it. The distributed worker runs this same fold on the block it
/// decodes, so map outputs are bit-identical across backends.
pub(crate) fn map_block(block: &DataBlock, job: &Job, fold: &mut Fold, out: &mut ClusterList) {
    debug_assert!(fold.is_empty(), "a block folds into an empty table");
    out.clear();
    let mut done = 0;
    for run in block.tuples.chunk_by(|a, b| a.key == b.key) {
        let key = run[0].key;
        if out.last().is_some_and(|&(last, _)| last.0 >= key.0) {
            fold.reserve(block.cardinality());
            fold.extend(out.drain(..));
            for t in &block.tuples[done..] {
                if let Some(v) = (job.map)(t) {
                    match fold.entry(t.key) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            let (acc, n) = e.get_mut();
                            *acc = job.reduce.apply(Some(*acc), v);
                            *n += 1;
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert((job.reduce.apply(None, v), 1));
                        }
                    }
                }
            }
            return in_key_order(fold, out);
        }
        let (op, mut values) = (job.reduce, run.iter().filter_map(|t| (job.map)(t)));
        if let Some(v) = values.next() {
            let folded = values.fold((op.apply(None, v), 1), |(a, n), v| {
                (op.apply(Some(a), v), n + 1)
            });
            out.push((key, folded));
        }
        done += run.len();
    }
}

/// Map + local combine over one columnar block's ranges — bit-identical to
/// [`map_block`] on the row rendering of the same block by construction:
/// ranges are key-uniform and visited in assignment order, so for every key
/// the `apply` call sequence matches the row fold exactly. Per range the map
/// does ONE hash-table entry operation (at the first mapped tuple), then
/// folds the rest of the range into the held slot — a fully filtered range
/// touches the table not at all, exactly like the row fold. A key spanning
/// several ranges of one block (a heavy key's `S_cut` fragment plus its
/// residual) continues its existing fold through the occupied entry, again
/// matching the row sequence.
pub(crate) fn map_block_columnar(
    arena: &ColumnarBatch,
    block: &ColumnarBlock,
    job: &Job,
    clusters: &mut Fold,
    out: &mut ClusterList,
) {
    debug_assert!(clusters.is_empty(), "a block folds into an empty table");
    clusters.reserve(block.cardinality());
    for &(key, r) in &block.ranges {
        let end = r.end();
        let mut i = r.offset;
        // Scan to the first tuple the job's filter-map keeps.
        let first = loop {
            if i >= end {
                break None;
            }
            let t = arena.tuple_at(i);
            i += 1;
            if let Some(v) = (job.map)(&t) {
                break Some(v);
            }
        };
        let Some(v0) = first else { continue };
        let slot: &mut (f64, usize) = match clusters.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let s = e.into_mut();
                s.0 = job.reduce.apply(Some(s.0), v0);
                s.1 += 1;
                s
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((job.reduce.apply(None, v0), 1))
            }
        };
        for j in i..end {
            if let Some(v) = (job.map)(&arena.tuple_at(j)) {
                slot.0 = job.reduce.apply(Some(slot.0), v);
                slot.1 += 1;
            }
        }
    }
    in_key_order(clusters, out);
}

/// Move `fold`'s clusters to `out` (whatever it held before) in key order,
/// whatever the table's iteration order; `fold` is left empty.
fn in_key_order(fold: &mut Fold, out: &mut ClusterList) {
    out.clear();
    out.extend(fold.drain());
    out.sort_unstable_by_key(|(k, _)| k.0);
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

/// Shuffle-assign Map task `task`'s output: route each `(key, size)` cluster
/// to its Reduce bucket. A pure function of the block's own output (§5: "no
/// coordination between Map tasks"), so callers may run it for any block, in
/// any order, as often as they like. `descs` is the assigner's input, built
/// here from `clusters` in whatever buffer the caller keeps. Adds the
/// routings performed, and how many carried a split key, to `tally`.
pub(crate) fn assign_block(
    task: usize,
    clusters: impl Iterator<Item = (Key, usize)>,
    split_keys: &KeySet,
    assigner: &dyn ReduceAssigner,
    r: usize,
    tally: Option<&mut ShuffleTally>,
    descs: &mut Vec<KeyCluster>,
) -> Vec<usize> {
    descs.clear();
    descs.extend(clusters.map(|(key, size)| KeyCluster { key, size }));
    let assignment = assigner.assign(task, descs, split_keys, r);
    // Every executor zips clusters with buckets: a short list or a bucket
    // nobody reduces would drop keys from the answer without a sound.
    assert_eq!(assignment.len(), descs.len(), "assigner output length");
    assert!(assignment.iter().all(|&b| b < r), "bucket out of range");
    if let Some(tally) = tally {
        tally.fragments += assignment.len() as u64;
        let split = descs.iter().filter(|c| split_keys.contains(&c.key)).count();
        tally.split_key_fragments += split as u64;
    }
    assignment
}

/// Reduce one bucket into `acc` (empty): merge its `n_items` `(key, partial,
/// tuples)` items per key, in the order given. Callers present items in
/// block order, then key order within a block — the one merge sequence that
/// keeps `f64` aggregates bit-identical across backends. The table is sized
/// for `n_items` up front (a bucket has at most that many keys), so it never
/// grows.
pub(crate) fn merge_bucket(
    items: impl IntoIterator<Item = (Key, f64, usize)>,
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

/// Gather the reduced buckets, in bucket order, into the batch's output and
/// per-bucket shuffle statistics. The output is sized up front for the sum of
/// the buckets' key counts: exactly its final size, the buckets being
/// disjoint.
///
/// A key reduced in two buckets has one bucket's partial for an answer, so
/// it is `Err((bucket, key))`, naming the later bucket that answered for `key`.
/// Locally that is a plan bug — a split-key table that leaves out a key
/// spanning blocks, whose fragments the assigner placed apart; on the fleet
/// it is also what a reducer lying about its bucket looks like.
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
    use crate::net::{DistributedOptions, DistributedRuntime, LaunchMode};
    use crate::stage::{times_from_view, StageTimes};
    use crate::threaded::ThreadedExecutor;
    use crate::trace::TraceLevel;
    use prompt_core::batch::MicroBatch;
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
        view: PlanView<'_>,
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
            times: times_from_view(view, &stats, &CostModel::default(), &Cluster::new(1, 8)),
            stats,
            scatter_fragments: rec.counter(Counter::ScatterFragments),
            split_key_fragments: rec.counter(Counter::SplitKeyFragments),
        }
    }

    /// The per-tuple fold `map_block` ran on every block before it walked key
    /// runs, verbatim: one table entry per mapped tuple, then a drain and a
    /// sort. The reference the run walk must equal bit for bit.
    fn per_tuple_fold(block: &DataBlock, job: &Job, clusters: &mut Fold, out: &mut ClusterList) {
        debug_assert!(clusters.is_empty(), "a block folds into an empty table");
        clusters.reserve(block.cardinality());
        for t in &block.tuples {
            if let Some(v) = (job.map)(t) {
                match clusters.entry(t.key) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let (acc, n) = e.get_mut();
                        *acc = job.reduce.apply(Some(*acc), v);
                        *n += 1;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((job.reduce.apply(None, v), 1));
                    }
                }
            }
        }
        in_key_order(clusters, out);
    }

    /// A cluster list with its aggregates as bits.
    fn bits(out: &ClusterList) -> Vec<(Key, u64, usize)> {
        out.iter().map(|&(k, (v, n))| (k, v.to_bits(), n)).collect()
    }

    /// A row block of `runs` — `(key, length)` runs of consecutive tuples,
    /// values varied so a Sum's fold order shows in its bits — with its
    /// fragment table.
    fn block_of_runs(runs: &[(Key, usize)]) -> DataBlock {
        let keys = (runs.iter()).flat_map(|&(key, len)| std::iter::repeat_n(key, len));
        let tuples: Vec<Tuple> = (keys.enumerate())
            .map(|(i, key)| Tuple::new(Time(i as u64), key, (i % 13) as f64 * 0.37 - 2.1))
            .collect();
        let mut counts: KeyMap<usize> = KeyMap::default();
        for t in &tuples {
            *counts.entry(t.key).or_insert(0) += 1;
        }
        let mut fragments: Vec<KeyFragment> = (counts.into_iter())
            .map(|(key, count)| KeyFragment { key, count })
            .collect();
        fragments.sort_unstable_by_key(|f| f.key.0);
        DataBlock { tuples, fragments }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run walk against the per-tuple fold: key-ascending runs, with
        /// or without a stretch of arbitrary runs (a descent, keys coming
        /// back, fresh keys below every other) spliced in at any run; a map
        /// that keeps all, drops whole keys, drops single tuples or drops
        /// everything; every `ReduceOp`. The output must equal the
        /// reference bit for bit, and the fold table must be left empty —
        /// and unallocated when the block ascends.
        #[test]
        fn map_block_matches_the_per_tuple_fold(
            ascending in proptest::collection::vec((1u64..4, 1usize..6), 0..40),
            tail in proptest::collection::vec((0usize..64, 1usize..6), 0..8),
            at in 0usize..64,
            filter in 0u8..4,
            op in 0u8..4,
        ) {
            let mut key = 10;
            let mut runs: Vec<(Key, usize)> = (ascending.iter())
                .map(|&(gap, len)| {
                    key += gap;
                    (Key(key), len)
                })
                .collect();
            // A quarter of the spliced runs take a fresh key below every
            // ascending one; the rest repeat one of the ascending keys.
            let spliced = tail.iter().map(|&(pick, len)| match runs.len() {
                n if n == 0 || pick % 4 == 0 => (Key(pick as u64 % 10), len),
                n => (runs[pick % n].0, len),
            });
            let at = at % (runs.len() + 1);
            let spliced: Vec<(Key, usize)> = spliced.collect();
            runs.splice(at..at, spliced);
            let block = block_of_runs(&runs);
            let op = [ReduceOp::Sum, ReduceOp::Count, ReduceOp::Max, ReduceOp::Min][op as usize];
            let job = match filter {
                0 => Job::identity("all", op),
                1 => Job::new("drop-keys", |t: &Tuple| (!t.key.0.is_multiple_of(3)).then_some(t.value), op),
                2 => Job::new("drop-tuples", |t: &Tuple| (!t.ts.0.is_multiple_of(4)).then_some(t.value), op),
                _ => Job::new("drop-all", |_: &Tuple| None, op),
            };
            let mut want = ClusterList::new();
            per_tuple_fold(&block, &job, &mut Fold::default(), &mut want);
            let ascends = (block.tuples.windows(2)).all(|w| w[0].key.0 <= w[1].key.0);

            let (mut fold, mut out) = (Fold::default(), vec![(Key(1), (0.5, 9))]);
            map_block(&block, &job, &mut fold, &mut out);
            prop_assert_eq!(bits(&out), bits(&want), "{:?}", runs);
            prop_assert!(fold.is_empty(), "the fold table was left filled");
            if ascends {
                prop_assert_eq!(fold.capacity(), 0, "the fold table was allocated");
            }
            // Again, through the table the first call left behind.
            map_block(&block, &job, &mut fold, &mut out);
            prop_assert_eq!(bits(&out), bits(&want), "again: {:?}", runs);
            prop_assert!(fold.is_empty(), "the fold table was left filled");
        }
    }

    /// What the fleet's submit-time assignment rests on (`net/driver.rs`): an
    /// identity Map keeps every tuple under its own key, so a block's Map
    /// output, as `(key, tuples folded)`, is the block's fragment table — in
    /// either layout, whatever cut the block.
    #[test]
    fn an_identity_map_yields_each_blocks_fragment_table() {
        use prompt_core::columnar::{ColRange, ColumnarBatch};
        let check = |rows: &PartitionPlan, cols: &ColumnarPlan, what: &str| {
            for op in [ReduceOp::Sum, ReduceOp::Count, ReduceOp::Max, ReduceOp::Min] {
                let job = Job::identity("id", op);
                for (layout, view) in [
                    ("rows", PlanView::Rows(rows)),
                    ("columns", PlanView::Columns(cols)),
                ] {
                    for i in 0..view.n_blocks() {
                        let fragments = view.fragments(i).iter().map(|f| (f.key, f.count));
                        let mut mapped = ClusterList::new();
                        view.map_block(i, &job, &mut Fold::default(), &mut mapped);
                        let mapped = mapped.into_iter();
                        assert_eq!(
                            mapped.map(|(k, (_, n))| (k, n)).collect::<Vec<_>>(),
                            fragments.collect::<Vec<_>>(),
                            "{what}: block {i} of {layout} under {op:?}"
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
                    // The technique's own columnar cut where it has one.
                    let cols = match technique.build(5).partition_columnar(&mb, p) {
                        Some((cols, _)) => cols,
                        None => ColumnarPlan::from_row_plan(&rows),
                    };
                    check(&rows, &cols, &format!("{technique:?} {name} p={p}"));
                }
            }
        }

        // A heavy key poured into one block twice (its `S_cut` fragment, then
        // its residual): two ranges, one fragment, one cluster.
        let keys = [1, 1, 1, 2, 2, 1, 1].map(Key);
        let tuples: Vec<Tuple> = (keys.iter().enumerate())
            .map(|(i, &k)| Tuple::new(Time(1 + i as u64), k, i as f64 - 2.5))
            .collect();
        let ranges = [(1, 0, 3), (2, 3, 2), (1, 5, 2)];
        let block = ColumnarBlock {
            ranges: (ranges.iter())
                .map(|&(k, at, n)| (Key(k), ColRange::new(at, n)))
                .collect(),
            fragments: [(1, 5), (2, 2)]
                .map(|(k, count)| KeyFragment { key: Key(k), count })
                .to_vec(),
        };
        let arena = std::sync::Arc::new(ColumnarBatch::from_tuples(&tuples));
        let (blocks, split_keys) = (vec![block], KeySet::default());
        let cols = ColumnarPlan {
            arena,
            blocks,
            split_keys,
        };
        check(
            &cols.to_row_plan(),
            &cols,
            "a key in two ranges of one block",
        );
    }

    /// The fleet reports no counts: a bucket's tuples and fragments are what
    /// the driver tallied from its assignment at submit, and its keys are
    /// the length of the reducer's answer. That must be what `merge_bucket`
    /// counts, bucket for bucket, for every technique, layout and `r`.
    #[test]
    fn the_fleets_submit_tally_is_what_every_merge_counts() {
        let mut opts = DistributedOptions::new(2, 0);
        opts.launch = LaunchMode::Thread;
        let mut fleet = DistributedRuntime::launch(opts).expect("launch");
        let job = Job::identity("sum", ReduceOp::Sum);
        let spec = job.wire_spec().expect("an identity Map crosses the wire");
        let zipf: Vec<(u64, usize)> = (0..120).map(|k| (k, 1800 / (k as usize + 1))).collect();
        let tuples: usize = zipf.iter().map(|&(_, n)| n).sum();
        let mb = batch(&zipf);
        let techniques = Technique::EVALUATION_SET
            .into_iter()
            .chain([Technique::DChoices(2), Technique::PromptCountTree]);
        let mut seq = 0u64;
        for technique in techniques {
            let rows = technique.build(5).partition(&mb, 4);
            let cols = match technique.build(5).partition_columnar(&mb, 4) {
                Some((cols, _)) => cols,
                None => ColumnarPlan::from_row_plan(&rows),
            };
            for (layout, view) in [
                ("rows", PlanView::Rows(&rows)),
                ("columns", PlanView::Columns(&cols)),
            ] {
                for r in [1, 3, 16] {
                    let assigner = PromptReduceAllocator::new(5);
                    let (_, merged, _) =
                        ThreadedExecutor::new(1).execute_view(view, &job, &assigner, r, None);
                    assert_eq!(merged.iter().map(|s| s.tuples).sum::<usize>(), tuples);
                    seq += 1;
                    fleet.submit(seq, view, &spec, &assigner, r, None);
                    let (_, tallied) = fleet.wait_batch(seq, None).expect("no faults");
                    assert_eq!(tallied, merged, "{technique:?} over {layout}, r = {r}");
                }
            }
        }
    }

    /// One plan, as `Rows` and as `Columns`, through every backend: the local
    /// executor at 1 (`InProcess`), 2 and 3 threads and a thread-mode worker
    /// fleet must agree on every aggregate bit, every bucket's statistics,
    /// the stage times and the shuffle counters.
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
                job: Job::new("drop-all", |_: &Tuple| None, ReduceOp::Sum),
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
                    |t: &Tuple| (t.key == Key(1)).then_some(1.0),
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
            let cols = ColumnarPlan::from_row_plan(&rows);
            let local = |view: PlanView<'_>, threads: usize| {
                outcome(view, |assigner, trace| {
                    let (output, stats, _wall) =
                        ThreadedExecutor::new(threads).execute_view(view, job, assigner, *r, trace);
                    (output, stats)
                })
            };
            let reference = local(PlanView::Rows(&rows), 1);
            (case.check)(&rows, &reference);
            for (layout, view) in [
                ("rows", PlanView::Rows(&rows)),
                ("columns", PlanView::Columns(&cols)),
            ] {
                for threads in [1, 2, 3] {
                    assert_eq!(
                        local(view, threads),
                        reference,
                        "{name}: {threads} threads over {layout}"
                    );
                }
                // Closures cannot cross a process boundary.
                let Some(spec) = job.wire_spec() else {
                    continue;
                };
                seq += 1;
                let distributed = outcome(view, |assigner, trace| {
                    fleet.submit(seq, view, &spec, assigner, *r, trace);
                    fleet.wait_batch(seq, trace).expect("no faults")
                });
                assert_eq!(distributed, reference, "{name}: fleet over {layout}");
            }
        }
    }
}

//! The local executor: one micro-batch through Map → shuffle → Reduce inside
//! this process, on one thread or on many.
//!
//! The paper's processing phase has one shape (§2.1, Eqn. 1): Map tasks over
//! the `p` blocks in parallel, Algorithm 3 routing every Map output to a
//! Reduce bucket, Reduce tasks over the `r` buckets in parallel.
//! [`ThreadedExecutor`] is that shape, once, for both local backends:
//! `Backend::InProcess` runs it with one thread — the pool is not touched,
//! every phase is a loop on the calling thread — and `Backend::Threaded`
//! with `n`, the calling thread and `n − 1` helpers of the process's
//! persistent fan-out pool ([`map_mut`]). Virtual task
//! times come from the [`crate::cost::CostModel`] either way; the
//! wall-clock time of each phase is reported beside the output, so the
//! examples can show real speedups from balanced partitioning.
//!
//! * **Map** — one `kernel::map_block` per block, in parallel, each
//!   followed by its own Algorithm 3 assignment (`kernel::assign_block`): the
//!   assignment is a pure function of one block's output, so it runs where
//!   that output is made, and it flags each cluster whose key is split.
//! * **Shuffle** — serial, on the calling thread: push every block's
//!   clusters into their buckets, a split key's partial onto the bucket's
//!   merge list, every other key's — its only one in the batch — onto its
//!   single-partial list, as `(key, partial)` alone. ≈ 0.35–0.45 ms of a
//!   500k-tuple `zipf_inproc` batch on a 2-vCPU Xeon — less than a thread
//!   round costs (a bucket-striped parallel scatter stood here and was
//!   slower on every benchmark workload, ROADMAP "Settled").
//! * **Reduce** — one `kernel::merge_bucket` per bucket over its split keys'
//!   partials, in parallel; every bucket was filled in block order then key
//!   order, whatever the thread count. The gather then inserts each bucket's
//!   merged keys and single partials into the output once, and a key it
//!   finds twice is a plan bug: a panic naming the key.
//!
//! An executor keeps its tables from batch to batch: a cluster list and
//! Algorithm 3's buffers per Map task, and a merge list, a single-partial
//! list and a merge table per Reduce bucket. They are indexed by task, not
//! by thread — which thread ran a task never matters — and cleared, never
//! dropped, so a steady-state batch allocates only what its input has
//! outgrown.

use std::time::Instant;

use prompt_core::batch::PartitionPlan;
use prompt_core::hash::KeyMap;
use prompt_core::par::map_mut;
use prompt_core::reduce::{sort_split_keys, ReduceAssigner};
use prompt_core::types::{Duration, Key};

use crate::job::Job;
use crate::kernel::{
    assign_block, gather_buckets, map_block, merge_bucket, Assignment, ClusterList, ShuffleTally,
};
use crate::stage::{BatchOutput, BucketStats};
use crate::trace::{StageKind, TraceRecorder};

/// Wall-clock timings of one locally executed batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct WallTimes {
    /// Wall time of the parallel Map phase (each block's Map and its
    /// Algorithm 3 assignment).
    pub map: std::time::Duration,
    /// Wall time of the serial shuffle (the scatter into buckets).
    pub shuffle: std::time::Duration,
    /// Wall time of the parallel Reduce phase.
    pub reduce: std::time::Duration,
}

impl WallTimes {
    /// Total wall time.
    pub fn total(&self) -> std::time::Duration {
        self.map + self.shuffle + self.reduce
    }

    /// Record the three measurements as wall-clock phases of batch `seq`,
    /// in execution order.
    pub(crate) fn record(&self, rec: &TraceRecorder, seq: u64) {
        for (kind, wall) in [
            (StageKind::MapStage, self.map),
            (StageKind::Scatter, self.shuffle),
            (StageKind::ReduceStage, self.reduce),
        ] {
            rec.phase(seq, kind, Duration::from_micros(wall.as_micros() as u64));
        }
    }
}

/// The local executor at a fixed thread count, with the tables its tasks
/// refill batch after batch.
#[derive(Clone, Debug)]
pub struct ThreadedExecutor {
    /// Threads the Map and Reduce phases run on (1 = the calling thread).
    pub threads: usize,
    /// The batch's split-key table, ascending, as the Map tasks walk it.
    split_keys: Vec<Key>,
    maps: Vec<MapTask>,
    buckets: Vec<ReduceTask>,
}

/// One Map task's tables, on cache lines of their own: neighbouring tasks'
/// tables are written by different workers, key by key.
#[derive(Clone, Debug, Default)]
#[repr(align(128))]
struct MapTask {
    clusters: ClusterList,
    /// Each cluster's split flag and bucket, until the shuffle reads them.
    assignment: Assignment,
    tally: ShuffleTally,
}

/// One Reduce bucket's tables, on cache lines of their own, as a Map task's.
#[derive(Clone, Debug, Default)]
#[repr(align(128))]
struct ReduceTask {
    /// The bucket's split keys' partials, in block order, for the merge.
    split: Vec<(Key, f64, usize)>,
    /// Every other key's partial, its only one in the batch, and the tuples
    /// they fold.
    singles: Vec<(Key, f64)>,
    single_tuples: usize,
    merged: KeyMap<f64>,
}

/// The first `n` of `tasks`, growing it with empty tasks when it is shorter.
fn first<T: Default>(tasks: &mut Vec<T>, n: usize) -> &mut [T] {
    if tasks.len() < n {
        tasks.resize_with(n, T::default);
    }
    &mut tasks[..n]
}

impl ThreadedExecutor {
    /// Create an executor with the given parallelism (≥ 1).
    pub fn new(threads: usize) -> ThreadedExecutor {
        assert!(threads >= 1, "need at least one thread");
        ThreadedExecutor {
            threads,
            split_keys: Vec::new(),
            maps: Vec::new(),
            buckets: Vec::new(),
        }
    }

    /// Execute a partitioned batch for real: parallel Map over blocks,
    /// shuffle via `assigner`, parallel Reduce over buckets.
    pub fn execute(
        &self,
        plan: &PartitionPlan,
        job: &Job,
        assigner: &dyn ReduceAssigner,
        r: usize,
    ) -> (BatchOutput, WallTimes) {
        let (out, _, times) = self.execute_with_stats(plan, job, assigner, r, None);
        (out, times)
    }

    /// [`ThreadedExecutor::execute`] that additionally reports the
    /// per-bucket shuffle statistics, so a driver can cost the batch with
    /// the same [`crate::cost::CostModel`] quantities every backend uses
    /// (see [`crate::stage::times_from_stats`]), and records the shuffle
    /// counters and the three wall times (as phases of batch `seq`) into
    /// `trace = (recorder, seq)`. A one-off call: its tables are its own.
    pub fn execute_with_stats(
        &self,
        plan: &PartitionPlan,
        job: &Job,
        assigner: &dyn ReduceAssigner,
        r: usize,
        trace: Option<(&TraceRecorder, u64)>,
    ) -> (BatchOutput, Vec<BucketStats>, WallTimes) {
        let rec = trace.map(|(rec, _)| rec);
        let mut exec = ThreadedExecutor::new(self.threads);
        let (output, stats, times) = exec.execute_plan(plan, job, assigner, r, rec);
        if let Some((rec, seq)) = trace {
            times.record(rec, seq);
        }
        (output, stats, times)
    }

    /// The executor behind every local entry point. Only the Map phase reads
    /// the plan; everything after it sees cluster lists. `trace` receives the
    /// shuffle counters; stamping the returned wall times is the caller's
    /// choice.
    pub(crate) fn execute_plan(
        &mut self,
        plan: &PartitionPlan,
        job: &Job,
        assigner: &dyn ReduceAssigner,
        r: usize,
        trace: Option<&TraceRecorder>,
    ) -> (BatchOutput, Vec<BucketStats>, WallTimes) {
        assert!(r > 0, "need at least one reduce bucket");
        let t0 = Instant::now();
        let tallied = trace.is_some();
        sort_split_keys(&plan.split_keys, &mut self.split_keys);
        let split_keys = &self.split_keys[..];
        let maps = first(&mut self.maps, plan.blocks.len());
        map_mut(maps, self.threads, |i, task| {
            map_block(&plan.blocks[i], job, &mut task.clusters);
            let clusters = task.clusters.iter().map(|&(key, (_, n))| (key, n));
            task.tally = ShuffleTally::default();
            let tally_into = tallied.then_some(&mut task.tally);
            let into = &mut task.assignment;
            assign_block(i, clusters, split_keys, assigner, r, tally_into, into);
        });
        let map = t0.elapsed();

        let t1 = Instant::now();
        let buckets = first(&mut self.buckets, r);
        for b in buckets.iter_mut() {
            b.split.clear();
            b.singles.clear();
            b.single_tuples = 0;
        }
        let mut tally = ShuffleTally::default();
        for task in maps.iter() {
            let Assignment {
                split, buckets: to, ..
            } = &task.assignment;
            let routed = task.clusters.iter().zip(to).zip(split);
            for ((&(key, (value, n)), &b), &is_split) in routed {
                let bucket = &mut buckets[b as usize];
                if is_split {
                    bucket.split.push((key, value, n));
                } else {
                    bucket.singles.push((key, value));
                    bucket.single_tuples += n;
                }
            }
            tally += task.tally;
        }
        if let Some(rec) = trace {
            tally.record(rec);
        }
        let shuffle = t1.elapsed();

        // Only split keys have partials to merge; a single partial is its
        // key's answer, which the gather inserts once.
        let t2 = Instant::now();
        let stats = map_mut(buckets, self.threads, |_, b| {
            let split = b.split.iter().copied();
            let mut s = merge_bucket(split, b.split.len(), job.reduce(), &mut b.merged);
            s.tuples += b.single_tuples;
            s.keys += b.singles.len();
            s.fragments += b.singles.len();
            s
        });
        let reduced = (buckets.iter_mut().zip(stats))
            .map(|(b, s)| (b.merged.drain().chain(b.singles.iter().copied()), s));
        // Here a key reduced twice, in one bucket or in two, is the plan's
        // bug, not a peer's: panic.
        let (output, stats) =
            gather_buckets(reduced).unwrap_or_else(|(_, k)| panic!("key {k:?} reduced twice"));
        let reduce = t2.elapsed();
        let times = WallTimes {
            map,
            shuffle,
            reduce,
        };
        (output, stats, times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ReduceOp;
    use prompt_core::batch::MicroBatch;
    use prompt_core::partitioner::Technique;
    use prompt_core::reduce::PromptReduceAllocator;
    use prompt_core::types::{Interval, Time, Tuple};

    fn batch(n: usize, keys: u64) -> MicroBatch {
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let tuples: Vec<Tuple> = (0..n)
            .map(|i| Tuple::new(Time::from_micros(i as u64), Key(i as u64 % keys), 1.0))
            .collect();
        MicroBatch::new(tuples, iv)
    }

    #[test]
    fn threaded_matches_expected_counts() {
        let mb = batch(10_000, 97);
        let plan = Technique::Prompt.build(3).partition(&mb, 8);
        let job = Job::identity("count", ReduceOp::Count);
        let exec = ThreadedExecutor::new(4);
        let assigner = PromptReduceAllocator::new(3);
        let (out, times) = exec.execute(&plan, &job, &assigner, 4);
        assert_eq!(out.len(), 97);
        for k in 0..97u64 {
            let expect = (10_000 / 97) + usize::from(k < 10_000 % 97);
            assert_eq!(out.aggregates[&Key(k)], expect as f64, "key {k}");
        }
        assert!(times.total().as_nanos() > 0);
    }

    #[test]
    fn threaded_matches_simulated_output() {
        use crate::cluster::Cluster;
        use crate::cost::CostModel;
        let mb = batch(5_000, 31);
        let plan = Technique::Shuffle.build(1).partition(&mb, 6);
        let job = Job::identity("sum", ReduceOp::Sum);
        let (sim_out, _) = crate::stage::execute_batch(
            &plan,
            &job,
            &PromptReduceAllocator::new(9),
            3,
            &CostModel::default(),
            &Cluster::new(1, 4),
        );
        let (thr_out, _) =
            ThreadedExecutor::new(3).execute(&plan, &job, &PromptReduceAllocator::new(9), 3);
        assert_eq!(sim_out.len(), thr_out.len());
        for (k, v) in &sim_out.aggregates {
            assert_eq!(thr_out.aggregates[k], *v);
        }
    }

    #[test]
    fn single_thread_works() {
        let mb = batch(100, 5);
        let plan = Technique::Hash.build(0).partition(&mb, 2);
        let job = Job::identity("count", ReduceOp::Count);
        let (out, _) =
            ThreadedExecutor::new(1).execute(&plan, &job, &PromptReduceAllocator::new(0), 1);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn traced_execution_stamps_the_three_phases() {
        use crate::trace::{TraceEvent, TraceLevel};
        let mb = batch(5_000, 31);
        let plan = Technique::Prompt.build(1).partition(&mb, 6);
        let job = Job::identity("count", ReduceOp::Count);
        let rec = TraceRecorder::new(TraceLevel::Full);
        let assigner = PromptReduceAllocator::new(1);
        let (out, _, times) =
            ThreadedExecutor::new(3).execute_with_stats(&plan, &job, &assigner, 4, Some((&rec, 7)));
        assert_eq!(out.len(), 31);
        let phases: Vec<(u64, StageKind)> = rec
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Phase { seq, kind, .. } => Some((seq, kind)),
                _ => None,
            })
            .collect();
        assert_eq!(
            phases,
            vec![
                (7, StageKind::MapStage),
                (7, StageKind::Scatter),
                (7, StageKind::ReduceStage)
            ]
        );
        // The recorded wall times match the returned ones at µs granularity.
        let summary = rec.summary();
        let map = summary.wall(StageKind::MapStage).unwrap();
        assert_eq!(map.total_us, times.map.as_micros() as u64);
        assert!(summary.stages.is_empty(), "no virtual span was recorded");
    }

    /// A plan whose split-key table leaves out a key held by two blocks: the
    /// allocator places each fragment on its own, the rotation sends them to
    /// different buckets, and the answer would be one bucket's partial. In
    /// every build that is a panic naming the key, not a silent wrong sum.
    #[test]
    #[should_panic(expected = "key k7 reduced twice")]
    fn an_under_reported_split_key_fails_loudly() {
        use prompt_core::batch::DataBlock;
        use prompt_core::hash::KeySet;
        let block = || DataBlock::from_iter([(Key(7), 1.0)]);
        let plan = PartitionPlan {
            blocks: vec![block(), block()],
            split_keys: KeySet::default(),
        };
        let job = Job::identity("sum", ReduceOp::Sum);
        let _ = ThreadedExecutor::new(1).execute(&plan, &job, &PromptReduceAllocator::new(0), 2);
    }

    /// The same plan bug with both fragments in one bucket (`r = 1`): each
    /// is a single partial, so neither is merged, and the gather finds the
    /// key twice. A panic naming the key, not a silent wrong sum.
    #[test]
    #[should_panic(expected = "key k7 reduced twice")]
    fn an_under_reported_split_key_in_one_bucket_fails_loudly() {
        use prompt_core::batch::DataBlock;
        use prompt_core::hash::KeySet;
        let block = || DataBlock::from_iter([(Key(3), 1.0), (Key(7), 1.0)]);
        let plan = PartitionPlan {
            blocks: vec![block(), DataBlock::from_iter([(Key(5), 2.0)]), block()],
            split_keys: [Key(3)].into_iter().collect::<KeySet>(),
        };
        let job = Job::identity("sum", ReduceOp::Sum);
        let _ = ThreadedExecutor::new(1).execute(&plan, &job, &PromptReduceAllocator::new(0), 1);
    }

    /// The executor as it stood before single partials skipped the bucket
    /// merge, on one thread with fresh tables: every partial of a bucket
    /// through `merge_bucket`, in block order, then the gather. The
    /// reference the executor's output and bucket statistics must equal by
    /// bits.
    fn merge_every_partial(
        plan: &PartitionPlan,
        job: &Job,
        assigner: &dyn ReduceAssigner,
        r: usize,
    ) -> (BatchOutput, Vec<BucketStats>) {
        let mut items: Vec<Vec<(Key, f64, usize)>> = vec![Vec::new(); r];
        let mut split_keys = Vec::new();
        sort_split_keys(&plan.split_keys, &mut split_keys);
        for (i, block) in plan.blocks.iter().enumerate() {
            let mut clusters = ClusterList::new();
            map_block(block, job, &mut clusters);
            let sizes = clusters.iter().map(|&(key, (_, n))| (key, n));
            let mut into = Assignment::default();
            assign_block(i, sizes, &split_keys, assigner, r, None, &mut into);
            for (&(key, (value, n)), &bucket) in clusters.iter().zip(&into.buckets) {
                items[bucket as usize].push((key, value, n));
            }
        }
        let reduced = items.iter().map(|b| {
            let mut merged = KeyMap::default();
            let stats = merge_bucket(b.iter().copied(), b.len(), job.reduce(), &mut merged);
            (merged, stats)
        });
        gather_buckets(reduced).expect("a key in one bucket")
    }

    /// `uniform_state`'s shape at a tenth of its size: Hash, so the split-key
    /// table is empty and every partial is a single one, a Sum of values
    /// whose fold order shows in the bits, at one and two threads, over
    /// consecutive batches through one executor — against merging every
    /// partial. And a skewed Prompt plan, whose split keys take the merge.
    #[test]
    fn single_partials_skip_the_merge_and_change_no_bit() {
        // `n` tuples of keys `key(draw)`, a draw per tuple.
        let drawn = |n: usize, seed: u64, key: fn(u64) -> u64| {
            let iv = Interval::new(Time::ZERO, Time::from_secs(1));
            let tuples: Vec<Tuple> = (0..n as u64)
                .map(|i| {
                    let key = Key(key(prompt_core::hash::mix64(seed ^ i)));
                    let value = (i % 17) as f64 * 0.37 - 2.5;
                    Tuple::new(Time::from_micros(i), key, value)
                })
                .collect();
            MicroBatch::new(tuples, iv)
        };
        let job = Job::identity("sum", ReduceOp::Sum);
        let assigner = PromptReduceAllocator::new(7);
        let bits = |out: &BatchOutput| {
            let mut bits: Vec<(Key, u64)> = (out.aggregates.iter())
                .map(|(&k, &v)| (k, v.to_bits()))
                .collect();
            bits.sort_unstable_by_key(|&(k, _)| k.0);
            bits
        };
        for threads in [1, 2] {
            let mut exec = ThreadedExecutor::new(threads);
            for seed in 0..3 {
                let uniform = drawn(25_000, seed, |d| d % 50_000);
                let skewed = drawn(20_000, seed, |d| 1_000 / (1 + d % 1_000));
                let hash = Technique::Hash.build(3).partition(&uniform, 16);
                let prompt = Technique::Prompt.build(3).partition(&skewed, 8);
                assert!(hash.split_keys.is_empty() && !prompt.split_keys.is_empty());
                for (name, plan) in [("hash", &hash), ("prompt", &prompt)] {
                    let (out, stats, _) = exec.execute_plan(plan, &job, &assigner, 16, None);
                    let (want, want_stats) = merge_every_partial(plan, &job, &assigner, 16);
                    let what = format!("{name}, {threads} threads, batch {seed}");
                    assert_eq!(bits(&out), bits(&want), "{what}");
                    assert_eq!(stats, want_stats, "{what}");
                }
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_answer() {
        // Buckets are filled serially and reduced in parallel; any thread
        // count must produce identical per-key aggregates.
        let mb = batch(20_000, 211);
        let plan = Technique::Prompt.build(7).partition(&mb, 8);
        let job = Job::identity("sum", ReduceOp::Sum);
        let reference = {
            let assigner = PromptReduceAllocator::new(7);
            ThreadedExecutor::new(1)
                .execute(&plan, &job, &assigner, 5)
                .0
        };
        for threads in [2, 3, 4, 8] {
            let assigner = PromptReduceAllocator::new(7);
            let (out, _) = ThreadedExecutor::new(threads).execute(&plan, &job, &assigner, 5);
            assert_eq!(out.len(), reference.len(), "{threads} threads");
            for (k, v) in &reference.aggregates {
                assert_eq!(out.aggregates[k], *v, "{threads} threads, key {k:?}");
            }
        }
    }
}

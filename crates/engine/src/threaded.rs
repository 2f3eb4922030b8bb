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
//! * **Map** — one [`PlanView::map_block`] per block, in parallel, each
//!   followed by its own Algorithm 3 assignment ([`assign_block`]): the
//!   assignment is a pure function of one block's output, so it runs where
//!   that output is made.
//! * **Shuffle** — serial, on the calling thread: push every block's
//!   clusters into their buckets, ≈ 0.6 ms of a 500k-tuple `zipf_inproc`
//!   batch — less than a thread round costs (a bucket-striped parallel
//!   scatter stood here and was slower on every benchmark workload, ROADMAP
//!   "Settled").
//! * **Reduce** — one [`merge_bucket`] per bucket, in parallel; every bucket
//!   was filled in block order then key order, whatever the thread count.
//!
//! An executor keeps its tables from batch to batch: one fold table, cluster
//! list and assigner input per Map task, one item list and merge table per
//! Reduce bucket. They are indexed by task, not by thread — which thread
//! ran a task never matters — and cleared, never dropped, so a steady-state
//! batch allocates only what its input has outgrown.

use std::time::Instant;

use prompt_core::batch::PartitionPlan;
use prompt_core::hash::KeyMap;
use prompt_core::par::map_mut;
use prompt_core::reduce::{KeyCluster, ReduceAssigner};
use prompt_core::types::{Duration, Key};

use crate::job::Job;
use crate::kernel::{
    assign_block, gather_buckets, merge_bucket, ClusterList, Fold, PlanView, ShuffleTally,
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
    maps: Vec<MapTask>,
    buckets: Vec<ReduceTask>,
}

/// One Map task's tables, on cache lines of their own: neighbouring tasks'
/// tables are written by different workers, key by key.
#[derive(Clone, Debug, Default)]
#[repr(align(128))]
struct MapTask {
    fold: Fold,
    clusters: ClusterList,
    descs: Vec<KeyCluster>,
    /// What the assigner returned for `clusters`, until the shuffle reads it.
    assignment: Vec<usize>,
    tally: ShuffleTally,
}

/// One Reduce bucket's tables, on cache lines of their own, as a Map task's.
#[derive(Clone, Debug, Default)]
#[repr(align(128))]
struct ReduceTask {
    items: Vec<(Key, f64, usize)>,
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
        let (output, stats, times) = exec.execute_view(PlanView::Rows(plan), job, assigner, r, rec);
        if let Some((rec, seq)) = trace {
            times.record(rec, seq);
        }
        (output, stats, times)
    }

    /// The executor behind every local entry point. Only the Map phase reads
    /// the plan; everything after it sees cluster lists, so the two layouts
    /// cannot diverge downstream of the fold. `trace` receives the shuffle
    /// counters; stamping the returned wall times is the caller's choice.
    pub(crate) fn execute_view(
        &mut self,
        view: PlanView<'_>,
        job: &Job,
        assigner: &dyn ReduceAssigner,
        r: usize,
        trace: Option<&TraceRecorder>,
    ) -> (BatchOutput, Vec<BucketStats>, WallTimes) {
        assert!(r > 0, "need at least one reduce bucket");
        let t0 = Instant::now();
        let tallied = trace.is_some();
        let maps = first(&mut self.maps, view.n_blocks());
        map_mut(maps, self.threads, |i, task| {
            view.map_block(i, job, &mut task.fold, &mut task.clusters);
            let clusters = task.clusters.iter().map(|&(key, (_, n))| (key, n));
            task.tally = ShuffleTally::default();
            let tally_into = tallied.then_some(&mut task.tally);
            let split = view.split_keys();
            let descs = &mut task.descs;
            task.assignment = assign_block(i, clusters, split, assigner, r, tally_into, descs);
        });
        let map = t0.elapsed();

        let t1 = Instant::now();
        let buckets = first(&mut self.buckets, r);
        buckets.iter_mut().for_each(|b| b.items.clear());
        let mut tally = ShuffleTally::default();
        for task in maps.iter() {
            for (&(key, (value, n)), &bucket) in task.clusters.iter().zip(&task.assignment) {
                buckets[bucket].items.push((key, value, n));
            }
            tally += task.tally;
        }
        if let Some(rec) = trace {
            tally.record(rec);
        }
        let shuffle = t1.elapsed();

        let t2 = Instant::now();
        let stats = map_mut(buckets, self.threads, |_, b| {
            merge_bucket(
                b.items.iter().copied(),
                b.items.len(),
                job.reduce,
                &mut b.merged,
            )
        });
        let reduced = buckets
            .iter_mut()
            .zip(stats)
            .map(|(b, s)| (b.merged.drain(), s));
        // Here a key in two buckets is the plan's bug, not a peer's: panic.
        let (output, stats) = gather_buckets(reduced)
            .unwrap_or_else(|(_, k)| panic!("key {k:?} reduced in two buckets"));
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
    #[should_panic(expected = "key k7 reduced in two buckets")]
    fn an_under_reported_split_key_fails_loudly() {
        use prompt_core::batch::{DataBlock, KeyFragment};
        use prompt_core::hash::KeySet;
        let block = || DataBlock {
            tuples: vec![Tuple::new(Time(1), Key(7), 1.0)],
            fragments: vec![KeyFragment {
                key: Key(7),
                count: 1,
            }],
        };
        let plan = PartitionPlan {
            blocks: vec![block(), block()],
            split_keys: KeySet::default(),
        };
        let job = Job::identity("sum", ReduceOp::Sum);
        let _ = ThreadedExecutor::new(1).execute(&plan, &job, &PromptReduceAllocator::new(0), 2);
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

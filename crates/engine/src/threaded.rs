//! A real multi-threaded execution backend.
//!
//! The simulated cluster (`stage::execute_batch`) is what the experiments
//! use — it is deterministic and models task times explicitly. This module
//! is the complementary "it actually runs in parallel" backend: Map tasks
//! execute concurrently on OS threads (`std::thread::scope`), the shuffle
//! applies the same [`ReduceAssigner`] logic, and Reduce tasks execute
//! concurrently too. Wall-clock stage times are reported, so the examples
//! can demonstrate real speedups from balanced partitioning.
//!
//! No locks anywhere on the hot path: every phase hands each worker an
//! owned, disjoint slice of the work and collects the results through the
//! join handles.
//!
//! * **Map** — workers claim block indices from an atomic counter and return
//!   their `(index, clusters)` pairs.
//! * **Shuffle** — cluster→bucket *assignment* stays serial because
//!   Algorithm 3's allocator is stateful (its running bucket loads must see
//!   map outputs in a deterministic order), but it only touches compact
//!   `KeyCluster` descriptors. The *scatter* of the actual data is
//!   parallelised by striping bucket ownership across workers
//!   (`bucket % workers == w`), so no two threads ever write the same
//!   bucket and the per-bucket content order (map-output order, then
//!   within-output key order) is identical to the old serial loop.
//! * **Reduce** — workers claim buckets from an atomic counter and return
//!   per-bucket aggregate maps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use prompt_core::batch::PartitionPlan;
use prompt_core::hash::KeyMap;
use prompt_core::reduce::ReduceAssigner;
use prompt_core::types::Key;

use crate::job::Job;
use crate::kernel::{assign_block, gather_buckets, merge_bucket, ClusterList, PlanView};
use crate::stage::{BatchOutput, BucketStats};
use crate::trace::{StageKind, TraceRecorder};

/// Wall-clock timings of a threaded batch execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct WallTimes {
    /// Wall time of the parallel Map phase.
    pub map: std::time::Duration,
    /// Wall time of the shuffle (serial assignment + parallel scatter).
    pub shuffle: std::time::Duration,
    /// Wall time of the parallel Reduce phase.
    pub reduce: std::time::Duration,
}

impl WallTimes {
    /// Total wall time.
    pub fn total(&self) -> std::time::Duration {
        self.map + self.shuffle + self.reduce
    }
}

/// A thread-pool-of-`threads` executor.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedExecutor {
    /// Worker threads for the Map, shuffle-scatter and Reduce phases.
    pub threads: usize,
}

impl ThreadedExecutor {
    /// Create an executor with the given parallelism (≥ 1).
    pub fn new(threads: usize) -> ThreadedExecutor {
        assert!(threads >= 1, "need at least one thread");
        ThreadedExecutor { threads }
    }

    /// Execute a partitioned batch for real: parallel Map over blocks,
    /// shuffle via `assigner`, parallel Reduce over buckets.
    pub fn execute(
        &self,
        plan: &PartitionPlan,
        job: &Job,
        assigner: &mut dyn ReduceAssigner,
        r: usize,
    ) -> (BatchOutput, WallTimes) {
        self.execute_traced(plan, job, assigner, r, None)
    }

    /// [`ThreadedExecutor::execute`] that additionally records the measured
    /// Map / scatter / Reduce wall times as phase events of batch `seq`.
    /// The recorder is shared by reference and all its recording methods
    /// take `&self`, so worker threads could record into it concurrently;
    /// here the phases are stamped after each parallel section completes.
    pub fn execute_traced(
        &self,
        plan: &PartitionPlan,
        job: &Job,
        assigner: &mut dyn ReduceAssigner,
        r: usize,
        trace: Option<(&TraceRecorder, u64)>,
    ) -> (BatchOutput, WallTimes) {
        let (out, _, times) = self.execute_with_stats(plan, job, assigner, r, trace);
        (out, times)
    }

    /// [`ThreadedExecutor::execute_traced`] that additionally reports the
    /// per-bucket shuffle statistics, so a driver can cost the batch with
    /// the same [`crate::cost::CostModel`] quantities the serial simulator
    /// uses (see [`crate::stage::times_from_stats`]).
    pub fn execute_with_stats(
        &self,
        plan: &PartitionPlan,
        job: &Job,
        assigner: &mut dyn ReduceAssigner,
        r: usize,
        trace: Option<(&TraceRecorder, u64)>,
    ) -> (BatchOutput, Vec<BucketStats>, WallTimes) {
        self.execute_core(PlanView::Rows(plan), job, assigner, r, trace)
    }

    /// The three-phase executor behind every entry point. Only the Map phase
    /// reads the plan; everything after it sees cluster lists, so the two
    /// layouts cannot diverge downstream of the fold.
    pub(crate) fn execute_core(
        &self,
        view: PlanView<'_>,
        job: &Job,
        assigner: &mut dyn ReduceAssigner,
        r: usize,
        trace: Option<(&TraceRecorder, u64)>,
    ) -> (BatchOutput, Vec<BucketStats>, WallTimes) {
        assert!(r > 0, "need at least one reduce bucket");
        let n_blocks = view.n_blocks();
        let mut times = WallTimes::default();

        // --- Parallel Map: one cluster list per block. ---
        let t0 = Instant::now();
        let map_outputs = {
            let next = AtomicUsize::new(0);
            let mut slots: Vec<Option<ClusterList>> = Vec::new();
            slots.resize_with(n_blocks, || None);
            std::thread::scope(|scope| {
                let workers = self.threads.min(n_blocks.max(1));
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let next = &next;
                        scope.spawn(move || {
                            let mut local: Vec<(usize, ClusterList)> = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n_blocks {
                                    break;
                                }
                                local.push((i, view.map_block(i, job)));
                            }
                            local
                        })
                    })
                    .collect();
                for h in handles {
                    for (i, out) in h.join().expect("map worker panicked") {
                        slots[i] = Some(out);
                    }
                }
            });
            slots
                .into_iter()
                .map(|o| o.expect("every block mapped"))
                .collect::<Vec<ClusterList>>()
        };
        times.map = t0.elapsed();
        if let Some((rec, seq)) = trace {
            rec.phase(seq, StageKind::MapStage, wall(times.map));
        }

        // --- Shuffle: serial assignment, parallel scatter. ---
        let t1 = Instant::now();
        // Assignment must stay serial: Algorithm 3's allocator carries
        // running bucket loads across calls, so map outputs are presented in
        // block order exactly as the simulated path does.
        let rec = trace.map(|(rec, _)| rec);
        let assignments: Vec<Vec<usize>> = map_outputs
            .iter()
            .map(|ordered| {
                let clusters = ordered.iter().map(|&(key, (_, n))| (key, n));
                assign_block(clusters, view.split_keys(), assigner, r, rec)
            })
            .collect();
        // Scatter: worker `w` owns buckets `b` with `b % workers == w`, so
        // writes are disjoint and each bucket is filled in the same order a
        // serial loop would fill it.
        let buckets: Vec<Vec<(Key, f64, usize)>> = {
            let workers = self.threads.min(r);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let map_outputs = &map_outputs;
                        let assignments = &assignments;
                        scope.spawn(move || {
                            let owned = (r - w).div_ceil(workers);
                            let mut mine: Vec<Vec<(Key, f64, usize)>> = vec![Vec::new(); owned];
                            for (ordered, assignment) in map_outputs.iter().zip(assignments) {
                                for (&(key, (value, n)), &b) in ordered.iter().zip(assignment) {
                                    if b % workers == w {
                                        mine[b / workers].push((key, value, n));
                                    }
                                }
                            }
                            mine
                        })
                    })
                    .collect();
                let mut buckets: Vec<Vec<(Key, f64, usize)>> = vec![Vec::new(); r];
                for (w, h) in handles.into_iter().enumerate() {
                    for (j, filled) in h
                        .join()
                        .expect("scatter worker panicked")
                        .into_iter()
                        .enumerate()
                    {
                        buckets[w + j * workers] = filled;
                    }
                }
                buckets
            })
        };
        times.shuffle = t1.elapsed();
        if let Some((rec, seq)) = trace {
            rec.phase(seq, StageKind::Scatter, wall(times.shuffle));
        }

        // --- Parallel Reduce: merge partials per bucket. ---
        let t2 = Instant::now();
        let next_bucket = AtomicUsize::new(0);
        let mut reduced: Vec<Option<(KeyMap<f64>, BucketStats)>> = Vec::new();
        reduced.resize_with(r, || None);
        std::thread::scope(|scope| {
            let workers = self.threads.min(r);
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let buckets = &buckets;
                    let next_bucket = &next_bucket;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, (KeyMap<f64>, BucketStats))> = Vec::new();
                        loop {
                            let b = next_bucket.fetch_add(1, Ordering::Relaxed);
                            if b >= r {
                                break;
                            }
                            let items = buckets[b].iter().copied();
                            local.push((b, merge_bucket(items, job.reduce)));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                for (b, acc) in h.join().expect("reduce worker panicked") {
                    reduced[b] = Some(acc);
                }
            }
        });
        let (output, stats) = gather_buckets(
            reduced
                .into_iter()
                .map(|o| o.expect("every bucket reduced")),
        );
        times.reduce = t2.elapsed();
        if let Some((rec, seq)) = trace {
            rec.phase(seq, StageKind::ReduceStage, wall(times.reduce));
        }

        (output, stats, times)
    }
}

/// Convert a wall-clock duration into the trace's µs representation.
fn wall(d: std::time::Duration) -> prompt_core::types::Duration {
    prompt_core::types::Duration::from_micros(d.as_micros() as u64)
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
        let mut assigner = PromptReduceAllocator::new(3);
        let (out, times) = exec.execute(&plan, &job, &mut assigner, 4);
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
            &mut PromptReduceAllocator::new(9),
            3,
            &CostModel::default(),
            &Cluster::new(1, 4),
        );
        let (thr_out, _) =
            ThreadedExecutor::new(3).execute(&plan, &job, &mut PromptReduceAllocator::new(9), 3);
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
            ThreadedExecutor::new(1).execute(&plan, &job, &mut PromptReduceAllocator::new(0), 1);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn traced_execution_stamps_the_three_phases() {
        use crate::trace::{TraceEvent, TraceLevel};
        let mb = batch(5_000, 31);
        let plan = Technique::Prompt.build(1).partition(&mb, 6);
        let job = Job::identity("count", ReduceOp::Count);
        let rec = TraceRecorder::new(TraceLevel::Full);
        let mut assigner = PromptReduceAllocator::new(1);
        let (out, times) =
            ThreadedExecutor::new(3).execute_traced(&plan, &job, &mut assigner, 4, Some((&rec, 7)));
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
        let map = summary.stage(StageKind::MapStage).unwrap();
        assert_eq!(map.total_us, times.map.as_micros() as u64);
    }

    #[test]
    fn thread_count_does_not_change_the_answer() {
        // The scatter stripes bucket ownership across workers; any worker
        // count must produce identical per-key aggregates.
        let mb = batch(20_000, 211);
        let plan = Technique::Prompt.build(7).partition(&mb, 8);
        let job = Job::identity("sum", ReduceOp::Sum);
        let reference = {
            let mut assigner = PromptReduceAllocator::new(7);
            ThreadedExecutor::new(1)
                .execute(&plan, &job, &mut assigner, 5)
                .0
        };
        for threads in [2, 3, 4, 8] {
            let mut assigner = PromptReduceAllocator::new(7);
            let (out, _) = ThreadedExecutor::new(threads).execute(&plan, &job, &mut assigner, 5);
            assert_eq!(out.len(), reference.len(), "{threads} threads");
            for (k, v) in &reference.aggregates {
                assert_eq!(out.aggregates[k], *v, "{threads} threads, key {k:?}");
            }
        }
    }
}

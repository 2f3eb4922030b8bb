//! What executing one micro-batch yields — its per-key output and the
//! shuffle statistics of its Reduce buckets — and what it costs: task times
//! from the [`CostModel`], stage times as cluster makespans (Eqn. 1
//! generalised to wave scheduling). The Map → shuffle → Reduce pipeline itself
//! is [`crate::threaded`]'s; [`execute_batch`] runs it on the calling thread.

use prompt_core::batch::PartitionPlan;
use prompt_core::hash::KeyMap;
use prompt_core::reduce::ReduceAssigner;
use prompt_core::types::Duration;

use crate::cluster::Cluster;
use crate::cost::CostModel;
use crate::job::Job;
use crate::threaded::ThreadedExecutor;
use crate::trace::TraceRecorder;

/// Per-key aggregates produced by one batch (the batch's partial query
/// state, §2.1).
#[derive(Clone, Debug, Default)]
pub struct BatchOutput {
    /// Final per-key aggregate of the batch.
    pub aggregates: KeyMap<f64>,
}

impl BatchOutput {
    /// Number of keys in the output.
    pub fn len(&self) -> usize {
        self.aggregates.len()
    }

    /// Whether the batch produced no output.
    pub fn is_empty(&self) -> bool {
        self.aggregates.is_empty()
    }
}

/// Task- and stage-level timings of one executed batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Per-Map-task execution times (length = number of blocks).
    pub map_tasks: Vec<Duration>,
    /// Per-Reduce-task execution times (length = `r`).
    pub reduce_tasks: Vec<Duration>,
    /// Map stage makespan on the cluster.
    pub map_stage: Duration,
    /// Reduce stage makespan on the cluster.
    pub reduce_stage: Duration,
}

impl StageTimes {
    /// Total processing time: Map stage then Reduce stage (Eqn. 1).
    pub fn processing(&self) -> Duration {
        self.map_stage + self.reduce_stage
    }
}

/// Shuffle-volume statistics of one Reduce bucket — the inputs the
/// [`CostModel`] charges a Reduce task for. Backends that execute for real
/// (threads, processes) report these so their virtual stage times are
/// computed from exactly the same quantities as the serial simulator's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BucketStats {
    /// Mapped tuples folded into the bucket's partials.
    pub tuples: usize,
    /// Distinct keys reduced in the bucket.
    pub keys: usize,
    /// (key, map-task) partials merged — the fragment count.
    pub fragments: usize,
}

/// Derive [`StageTimes`] from a plan plus per-bucket shuffle statistics:
/// Map-task costs come from the blocks (filtering happens inside the user
/// function, so a whole block is charged), Reduce-task costs from the
/// reported stats, stage times as cluster makespans. Every backend's times —
/// the serial simulator's included — are derived here, from the same
/// quantities.
pub fn times_from_stats(
    plan: &PartitionPlan,
    stats: &[BucketStats],
    cost: &CostModel,
    cluster: &Cluster,
) -> StageTimes {
    let map_tasks: Vec<Duration> = (plan.blocks.iter())
        .map(|b| cost.map_task(b.size(), b.cardinality()))
        .collect();
    let reduce_tasks: Vec<Duration> = stats
        .iter()
        .map(|s| cost.reduce_task(s.tuples, s.keys, s.fragments))
        .collect();
    let map_stage = cluster.makespan(&map_tasks);
    let reduce_stage = cluster.makespan(&reduce_tasks);
    StageTimes {
        map_tasks,
        reduce_tasks,
        map_stage,
        reduce_stage,
    }
}

/// Execute a partitioned batch on the calling thread: run `job` over every
/// block (Map), assign the key clusters to `r` Reduce buckets with `assigner`,
/// aggregate (Reduce), and cost every task.
pub fn execute_batch(
    plan: &PartitionPlan,
    job: &Job,
    assigner: &dyn ReduceAssigner,
    r: usize,
    cost: &CostModel,
    cluster: &Cluster,
) -> (BatchOutput, StageTimes) {
    execute_serial(plan, job, assigner, r, cost, cluster, None)
}

/// [`execute_batch`] over a columnar plan, recording the shuffle counters —
/// scatter routings performed and how many of them carried a split key —
/// into `trace`. The engine runs rows only: this adapter renders the plan as
/// rows ([`ColumnarPlan::to_row_plan`](prompt_core::columnar::ColumnarPlan::to_row_plan),
/// exact) and runs the row executor, so
/// output and stage times are the row path's by construction.
pub fn execute_columnar_traced(
    plan: &prompt_core::columnar::ColumnarPlan,
    job: &Job,
    assigner: &dyn ReduceAssigner,
    r: usize,
    cost: &CostModel,
    cluster: &Cluster,
    trace: Option<&TraceRecorder>,
) -> (BatchOutput, StageTimes) {
    let rows = plan.to_row_plan();
    execute_serial(&rows, job, assigner, r, cost, cluster, trace)
}

/// The local executor ([`ThreadedExecutor`]) at one thread, costed.
fn execute_serial(
    plan: &PartitionPlan,
    job: &Job,
    assigner: &dyn ReduceAssigner,
    r: usize,
    cost: &CostModel,
    cluster: &Cluster,
    trace: Option<&TraceRecorder>,
) -> (BatchOutput, StageTimes) {
    let (output, stats, _wall) =
        ThreadedExecutor::new(1).execute_plan(plan, job, assigner, r, trace);
    (output, times_from_stats(plan, &stats, cost, cluster))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ReduceOp;
    use prompt_core::batch::MicroBatch;
    use prompt_core::partitioner::Technique;
    use prompt_core::reduce::{HashReduceAssigner, PromptReduceAllocator};
    use prompt_core::types::{Interval, Key, Time, Tuple};

    fn batch(spec: &[(u64, usize)]) -> MicroBatch {
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let total: usize = spec.iter().map(|&(_, c)| c).sum();
        let step = iv.len().0 / (total.max(1) as u64 + 1);
        let mut tuples = Vec::new();
        let mut remaining: Vec<(u64, usize)> = spec.to_vec();
        let mut ts = 0;
        while tuples.len() < total {
            for r in remaining.iter_mut() {
                if r.1 > 0 {
                    r.1 -= 1;
                    ts += step;
                    tuples.push(Tuple::new(Time::from_micros(ts), Key(r.0), 2.0));
                }
            }
        }
        MicroBatch::new(tuples, iv)
    }

    fn run(
        tech: Technique,
        spec: &[(u64, usize)],
        p: usize,
        r: usize,
    ) -> (BatchOutput, StageTimes) {
        let mb = batch(spec);
        let plan = tech.build(5).partition(&mb, p);
        let job = Job::identity("sum", ReduceOp::Sum);
        let assigner = PromptReduceAllocator::new(5);
        execute_batch(
            &plan,
            &job,
            &assigner,
            r,
            &CostModel::default(),
            &Cluster::new(1, 8),
        )
    }

    #[test]
    fn aggregates_are_exact_regardless_of_partitioner() {
        let spec = [(1u64, 100usize), (2, 50), (3, 25), (4, 5)];
        for tech in Technique::EVALUATION_SET {
            let (out, _) = run(tech, &spec, 4, 2);
            assert_eq!(out.len(), 4, "{tech:?}");
            for &(k, c) in &spec {
                let v = out.aggregates[&Key(k)];
                assert_eq!(v, 2.0 * c as f64, "{tech:?} key {k}");
            }
        }
    }

    #[test]
    fn count_job_counts() {
        let mb = batch(&[(1, 10), (2, 20)]);
        let plan = Technique::Prompt.build(0).partition(&mb, 2);
        let job = Job::identity("count", ReduceOp::Count);
        let (out, times) = execute_batch(
            &plan,
            &job,
            &HashReduceAssigner::new(0),
            2,
            &CostModel::default(),
            &Cluster::new(1, 4),
        );
        assert_eq!(out.aggregates[&Key(1)], 10.0);
        assert_eq!(out.aggregates[&Key(2)], 20.0);
        assert_eq!(times.map_tasks.len(), 2);
        assert_eq!(times.reduce_tasks.len(), 2);
        assert!(times.processing() > Duration::ZERO);
    }

    #[test]
    fn filtered_tuples_do_not_reach_reduce() {
        let mb = batch(&[(1, 10), (2, 10)]);
        let plan = Technique::Shuffle.build(0).partition(&mb, 2);
        let job = Job::new(
            "only-key-1",
            |k: Key, _| (k == Key(1)).then_some(1.0),
            ReduceOp::Sum,
        );
        let (out, _) = execute_batch(
            &plan,
            &job,
            &HashReduceAssigner::new(0),
            2,
            &CostModel::default(),
            &Cluster::new(1, 4),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out.aggregates[&Key(1)], 10.0);
    }

    #[test]
    fn imbalanced_plan_has_longer_stage_time() {
        // Hash concentrates the hot key; Prompt splits it. Same totals, but
        // the max Map-task time (and hence the stage) differs.
        let spec = [(1u64, 2000usize), (2, 10), (3, 10), (4, 10)];
        let (_, hash_times) = run(Technique::Hash, &spec, 4, 4);
        let (_, prompt_times) = run(Technique::Prompt, &spec, 4, 4);
        assert!(
            prompt_times.map_stage < hash_times.map_stage,
            "prompt {:?} vs hash {:?}",
            prompt_times.map_stage,
            hash_times.map_stage
        );
    }

    #[test]
    fn shuffle_pays_fragment_merges_at_reduce() {
        // Key-sorted arrivals (all of key 1, then key 2, …): shuffle's
        // round-robin splits every key across all blocks, so the reduce
        // tasks pay a per-fragment merge for each (key, map task) partial.
        // Hash keeps locality and pays none.
        let iv = Interval::new(Time::ZERO, Time::from_secs(1));
        let mut tuples = Vec::new();
        for k in 1..=32u64 {
            for _ in 0..64 {
                let ts = Time::from_micros(tuples.len() as u64 * 400);
                tuples.push(Tuple::new(ts, Key(k), 1.0));
            }
        }
        let mb = MicroBatch::new(tuples, iv);
        let job = Job::identity("sum", ReduceOp::Sum);
        let exec = |tech: Technique| {
            let plan = tech.build(5).partition(&mb, 8);
            let assigner = PromptReduceAllocator::new(5);
            execute_batch(
                &plan,
                &job,
                &assigner,
                4,
                &CostModel::default(),
                &Cluster::new(1, 8),
            )
            .1
        };
        let shuffle_times = exec(Technique::Shuffle);
        let hash_times = exec(Technique::Hash);
        let sum = |v: &[Duration]| -> u64 { v.iter().map(|d| d.as_micros()).sum() };
        assert!(
            sum(&shuffle_times.reduce_tasks) > sum(&hash_times.reduce_tasks),
            "shuffle reduce work should exceed hash (fragment merges)"
        );
    }

    #[test]
    fn traced_execution_counts_scatter_fragments() {
        use crate::trace::{TraceLevel, TraceRecorder};
        // A giant key forces Prompt to split it, so some scatter routings
        // must carry a split key.
        let mb = batch(&[(1, 2000), (2, 10), (3, 10)]);
        let plan = Technique::Prompt.build(0).partition(&mb, 4);
        assert!(!plan.split_keys.is_empty(), "test needs a split key");
        let job = Job::identity("sum", ReduceOp::Sum);
        let rec = TraceRecorder::new(TraceLevel::Summary);
        let (out, _) = execute_columnar_traced(
            &prompt_core::columnar::ColumnarPlan::from_row_plan(&plan),
            &job,
            &PromptReduceAllocator::new(0),
            2,
            &CostModel::default(),
            &Cluster::new(1, 4),
            Some(&rec),
        );
        assert_eq!(out.len(), 3);
        let frags = rec.counter(crate::trace::Counter::ScatterFragments);
        let split = rec.counter(crate::trace::Counter::SplitKeyFragments);
        assert!(frags >= 3, "at least one routing per key: {frags}");
        // Key 1 lives in several blocks, so it scatters more than once.
        assert!(
            split >= 2,
            "split key scattered from multiple blocks: {split}"
        );
        assert!(split <= frags);
    }

    #[test]
    fn empty_plan_still_pays_fixed_costs() {
        let mb = batch(&[]);
        let plan = Technique::Shuffle.build(0).partition(&mb, 3);
        let job = Job::identity("sum", ReduceOp::Sum);
        let (out, times) = execute_batch(
            &plan,
            &job,
            &HashReduceAssigner::new(0),
            2,
            &CostModel::default(),
            &Cluster::new(1, 4),
        );
        assert!(out.is_empty());
        assert_eq!(times.map_tasks.len(), 3);
        assert_eq!(times.map_stage, CostModel::default().map_fixed);
    }
}

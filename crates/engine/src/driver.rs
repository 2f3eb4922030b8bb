//! The streaming driver: the per-heartbeat loop that batches, partitions,
//! schedules and executes micro-batches on the simulated cluster, maintaining
//! the pipelined overlap of batching and processing (Fig. 2).
//!
//! All scheduling runs on virtual time. Batch `x` is accumulated during its
//! interval and its processing starts at its heartbeat — unless the pipeline
//! is still busy with earlier batches, in which case it queues, exactly the
//! instability mechanism of §1. End-to-end latency is `batch interval +
//! queue delay + processing time` (§1).
//!
//! # The batch-state machine
//!
//! Each batch advances through four states: **buffering** (its interval is
//! still accumulating tuples), **partitioned** (ingested and planned — a
//! `PreparedBatch`), **executing** (map/reduce in flight on the backend), and
//! **committed** (recovery re-runs, window state, checkpoints, virtual-time
//! scheduling and trace spans applied).
//! [`EngineConfig::pipeline_depth`] bounds how many batches may sit past
//! *buffering* at once: at the default
//! depth 1 the loop is the classic one-lifecycle-per-heartbeat sequence,
//! while at depth `d > 1` the driver prepares up to `d` batches ahead, on
//! every backend (§4.1, Fig. 7): it pulls batch `s + d − 1` from the source
//! on the driver thread, partitions it on a second thread while the driver
//! thread executes and commits batch `s`, and — on the distributed backend —
//! dispatches each prepared batch's Map tasks at once, so they overlap the
//! execution of the batches ahead of it. **Commits are strictly sequential
//! in batch order** regardless of depth, and the schedule is fixed — batch
//! `s` is pulled after `commit(s − d)` — so what a controller (partitioner
//! policy, rebalancer, scaler) has seen when it decides for batch `s` is a
//! function of `(s, d)` alone. A batch carries the actuator state it was
//! pulled under (map and reduce counts, technique, routing-table snapshot)
//! and everything downstream of the pull reads *that*, never the run's
//! current value, which is what keeps answers independent of depth and a
//! depth-`d` run equal to the serial run forced through the same decision
//! sequence — for every feature (DESIGN §4h).

use prompt_core::batch::Columns;
use prompt_core::metrics::PlanMetrics;
use prompt_core::partitioner::{PartitionerRegistry, Technique};
use prompt_core::reduce::{HashReduceAssigner, PromptReduceAllocator, ReduceAssigner};
use prompt_core::types::Duration;

use crate::config::{Backend, EngineConfig, OverheadMode};
use crate::elasticity::ScaleAction;
use crate::job::Job;
use crate::net::NetStats;
use crate::policy::{build_policy, PartitionerPolicy, PolicyDecision, PolicySpec};
use crate::rebalance::{MigrationPlan, RoutingTable};
use crate::recovery::{FaultPlan, NetFaultPlan};
use crate::source::TupleSource;
use crate::state::{KeyedStateStore, StateStats, StatefulOp, STATE_SHARDS};
use crate::trace::TraceRecorder;
use crate::window::{WindowResult, WindowSpec};

mod run;
use run::{partition, PreparedBatch, PulledBatch, Run};

/// Per-batch execution record — the raw material of every figure in §7.2.
#[derive(Clone, Debug)]
pub struct BatchRecord {
    /// Batch sequence number.
    pub seq: u64,
    /// Tuples in the batch.
    pub n_tuples: usize,
    /// Distinct keys in the batch.
    pub n_keys: usize,
    /// Map tasks (blocks) used for this batch.
    pub map_tasks: usize,
    /// Reduce tasks (buckets) used for this batch.
    pub reduce_tasks: usize,
    /// Raw partitioning overhead before early-release hiding.
    pub partition_overhead: Duration,
    /// Overhead that spilled past the early-release slack into processing.
    pub visible_overhead: Duration,
    /// Map stage makespan.
    pub map_stage: Duration,
    /// Reduce stage makespan.
    pub reduce_stage: Duration,
    /// Total processing time (visible overhead + stages).
    pub processing: Duration,
    /// Time the batch waited in the queue before processing started.
    pub queue_delay: Duration,
    /// End-to-end latency: interval + queue delay + processing.
    pub latency: Duration,
    /// `W = processing / batch_interval` — the elasticity signal.
    pub w: f64,
    /// Per-Map-task times.
    pub map_task_times: Vec<Duration>,
    /// Per-Reduce-task times (Fig. 13's latency distribution).
    pub reduce_task_times: Vec<Duration>,
    /// Partition-quality metrics of the plan (BSI/BCI/KSR/MPI).
    pub plan_metrics: PlanMetrics,
    /// The technique that partitioned this batch: the constructor's under a
    /// `Fixed` policy, the policy's per-batch choice under
    /// `Adaptive`/`Forced`.
    pub technique: Technique,
}

/// The outcome of a streaming run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// One record per batch.
    pub batches: Vec<BatchRecord>,
    /// Emitted window results (when a window was configured).
    pub windows: Vec<WindowResult>,
    /// Scale actions taken by the elasticity controller, by batch seq.
    pub scale_events: Vec<(u64, ScaleAction)>,
    /// Whether back-pressure (queue beyond the configured threshold)
    /// triggered at any point.
    pub backpressure: bool,
    /// Number of state-loss recoveries performed (fault injection, §8).
    /// Distributed worker losses count here too — each spends one replica
    /// of the awaited batch and re-dispatches the in-flight plans.
    pub recoveries: u64,
    /// Workers the distributed backend declared lost (each also counts in
    /// [`RunResult::recoveries`]). Always 0 for in-process backends.
    pub worker_losses: u64,
    /// Driver-side wire totals when the run used
    /// [`Backend::Distributed`].
    pub net: Option<NetStats>,
    /// State-layer accounting when the keyed state store was active
    /// (checkpointing configured or a stateful operator attached).
    pub state: Option<StateStats>,
    /// Stateful-operator emissions, one per emitted window, when a
    /// [`StatefulOp`] was attached with [`StreamingEngine::with_stateful`].
    pub stateful: Vec<WindowResult>,
    /// The partitioner policy's per-batch decision log, in batch order.
    /// Empty under a `Fixed` policy (the decision is the constructor's).
    pub policy_decisions: Vec<PolicyDecision>,
    /// Key-group migration plans the rebalancer applied, by batch seq —
    /// each was applied before the named batch was assigned. Replaying
    /// this sequence through a `RebalanceSpec::Forced` run reproduces the
    /// run bit-identically (the differential-test oracle).
    pub migrations: Vec<(u64, MigrationPlan)>,
}

impl RunResult {
    /// Where this run and `other` first differ, or `None` when they are the
    /// same run: every answer (`windows` and `stateful` emissions, by bits)
    /// and every decision (all [`BatchRecord`] fields — plans, virtual times,
    /// `w` by bits, techniques —, `scale_events`, `backpressure`,
    /// `policy_decisions` with scores by bits, `migrations`, `state`).
    ///
    /// Not compared, because they are the cost of getting there rather than
    /// where the run got: [`RunResult::net`], [`RunResult::recoveries`] and
    /// [`RunResult::worker_losses`] (a lost worker changes those and nothing
    /// else).
    pub fn first_difference(&self, other: &RunResult) -> Option<String> {
        // Returns the difference out of `first_difference`.
        macro_rules! same {
            ($a:expr, $b:expr, $($what:tt)+) => {
                if $a != $b {
                    let what = format!($($what)+);
                    return Some(format!("{what}: {:?} != {:?}", $a, $b));
                }
            };
        }
        same!(self.batches.len(), other.batches.len(), "batches");
        for (a, b) in self.batches.iter().zip(&other.batches) {
            macro_rules! same_fields {
                ($($field:ident),+) => {
                    $(same!(a.$field, b.$field, "batch {} {}", a.seq, stringify!($field));)+
                };
            }
            same_fields!(
                seq,
                n_tuples,
                n_keys,
                map_tasks,
                reduce_tasks,
                partition_overhead,
                visible_overhead,
                map_stage,
                reduce_stage,
                processing,
                queue_delay,
                latency,
                map_task_times,
                reduce_task_times,
                plan_metrics,
                technique
            );
            same!(a.w.to_bits(), b.w.to_bits(), "batch {} W (bits)", a.seq);
        }
        for (what, a, b) in [
            ("windows", &self.windows, &other.windows),
            ("stateful emissions", &self.stateful, &other.stateful),
        ] {
            same!(a.len(), b.len(), "{what}");
            for (i, (a, b)) in a.iter().zip(b).enumerate() {
                same!(a.last_batch_seq, b.last_batch_seq, "{what}[{i}] last batch");
                let at = format!("{what}[{i}] (at batch {})", a.last_batch_seq);
                same!(a.aggregates.len(), b.aggregates.len(), "{at} keys");
                for (key, v) in &a.aggregates {
                    let theirs = b.aggregates.get(key).map(|v| v.to_bits());
                    same!(Some(v.to_bits()), theirs, "{at} {key:?} (bits)");
                }
            }
        }
        same!(self.scale_events, other.scale_events, "scale events");
        same!(self.backpressure, other.backpressure, "backpressure");
        same!(self.migrations, other.migrations, "migrations");
        let decisions = |run: &RunResult| -> Vec<_> {
            let log = run.policy_decisions.iter();
            log.map(|d| {
                let scores: Vec<_> = d.scores.iter().map(|&(t, s)| (t, s.to_bits())).collect();
                (d.seq, d.technique, d.prev, d.switched, scores)
            })
            .collect()
        };
        same!(
            decisions(self),
            decisions(other),
            "policy decisions (seq, technique, prev, switched, score bits)"
        );
        same!(self.state, other.state, "state");
        None
    }

    /// Mean of a per-batch scalar over the second half of the run (warm-up
    /// excluded, matching the paper's methodology §7).
    pub fn steady_state_mean(&self, f: impl Fn(&BatchRecord) -> f64) -> f64 {
        let n = self.batches.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.batches[n / 2..];
        tail.iter().map(&f).sum::<f64>() / tail.len() as f64
    }

    /// Whether the run is stable: no back-pressure, and the last batch waited
    /// in the queue no longer than its own processing time — the pipeline
    /// was at most one batch behind, not accumulating a backlog.
    pub fn stable(&self) -> bool {
        if self.backpressure {
            return false;
        }
        match self.batches.last() {
            Some(b) => b.queue_delay.0 <= b.processing.0.max(1),
            None => true,
        }
    }

    /// A compact distribution summary of the run: tuples, latency and W
    /// statistics, recovery/back-pressure flags. The CLI and examples print
    /// this; tests assert on its fields.
    pub fn summary(&self, batch_interval: Duration) -> RunSummary {
        let latencies: Vec<f64> = self
            .batches
            .iter()
            .map(|b| b.latency.as_secs_f64())
            .collect();
        let ws: Vec<f64> = self.batches.iter().map(|b| b.w).collect();
        RunSummary {
            batches: self.batches.len(),
            tuples: self.batches.iter().map(|b| b.n_tuples).sum(),
            throughput: self.throughput(batch_interval),
            latency: crate::stats::summarize(&latencies),
            w: crate::stats::summarize(&ws),
            stable: self.stable(),
            backpressure: self.backpressure,
            recoveries: self.recoveries,
            scale_events: self.scale_events.len(),
        }
    }

    /// Total tuples processed per second of stream time — the throughput
    /// actually sustained.
    pub fn throughput(&self, batch_interval: Duration) -> f64 {
        let tuples: usize = self.batches.iter().map(|b| b.n_tuples).sum();
        let span = batch_interval.as_secs_f64() * self.batches.len() as f64;
        if span == 0.0 {
            0.0
        } else {
            tuples as f64 / span
        }
    }
}

/// Compact summary of a [`RunResult`] (see [`RunResult::summary`]).
#[derive(Clone, Copy, Debug)]
pub struct RunSummary {
    /// Batches executed.
    pub batches: usize,
    /// Total tuples processed.
    pub tuples: usize,
    /// Sustained throughput (tuples per second of stream time).
    pub throughput: f64,
    /// End-to-end latency distribution (seconds).
    pub latency: crate::stats::Summary,
    /// `W = processing / interval` distribution.
    pub w: crate::stats::Summary,
    /// Whether the run ended stable.
    pub stable: bool,
    /// Whether back-pressure triggered.
    pub backpressure: bool,
    /// State-loss recoveries performed.
    pub recoveries: u64,
    /// Elasticity actions taken.
    pub scale_events: usize,
}

impl std::fmt::Display for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} batches, {} tuples ({:.0}/s) | latency mean {:.0} ms p95 {:.0} ms | \
             W mean {:.2} max {:.2} | stable: {}{}{}{}",
            self.batches,
            self.tuples,
            self.throughput,
            self.latency.mean * 1e3,
            self.latency.p95 * 1e3,
            self.w.mean,
            self.w.max,
            self.stable,
            if self.backpressure {
                " [backpressure]"
            } else {
                ""
            },
            if self.recoveries > 0 {
                " [recovered]"
            } else {
                ""
            },
            if self.scale_events > 0 {
                " [scaled]"
            } else {
                ""
            },
        )
    }
}

/// Which reduce-side assigner to pair with the batch partitioner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceStrategy {
    /// Conventional hashing (what every baseline uses).
    Hash,
    /// Algorithm 3's Worst-Fit allocator (what Prompt uses).
    Prompt,
}

impl ReduceStrategy {
    /// The strategy the paper pairs with each batching technique.
    pub fn for_technique(t: Technique) -> ReduceStrategy {
        match t {
            Technique::Prompt | Technique::PromptCountTree => ReduceStrategy::Prompt,
            _ => ReduceStrategy::Hash,
        }
    }

    /// Instantiate the assigner with a shared routing seed.
    pub fn build_boxed(self, seed: u64) -> Box<dyn ReduceAssigner> {
        match self {
            ReduceStrategy::Hash => Box::new(HashReduceAssigner::new(seed)),
            ReduceStrategy::Prompt => Box::new(PromptReduceAllocator::new(seed)),
        }
    }
}

/// The one strategy pool every batch is partitioned and assigned from:
/// lazily built partitioners (one instance per technique, reused across
/// batches so stateful partitioners keep their cross-batch state) plus the
/// two reduce assigners, which are pure functions and hold only the routing
/// seed. A `Fixed` run only ever touches its constructor technique's pair; a
/// policy hot-swaps between entries.
struct StrategySet {
    registry: PartitionerRegistry,
    hash_assigner: HashReduceAssigner,
    prompt_assigner: PromptReduceAllocator,
}

impl StrategySet {
    fn new(seed: u64, threads: usize) -> StrategySet {
        StrategySet {
            registry: PartitionerRegistry::with_parallelism(seed, threads),
            hash_assigner: HashReduceAssigner::new(seed),
            prompt_assigner: PromptReduceAllocator::new(seed),
        }
    }

    /// The one place a batch's reduce assigner is resolved, from what the
    /// batch was prepared under: its routing snapshot if the run rebalances,
    /// else the strategy the paper pairs with its technique.
    fn assigner<'a>(
        &'a self,
        t: Technique,
        routing: Option<&'a RoutingTable>,
    ) -> &'a dyn ReduceAssigner {
        match (routing, ReduceStrategy::for_technique(t)) {
            (Some(table), _) => table,
            (None, ReduceStrategy::Hash) => &self.hash_assigner,
            (None, ReduceStrategy::Prompt) => &self.prompt_assigner,
        }
    }
}

/// The micro-batch streaming engine.
pub struct StreamingEngine {
    cfg: EngineConfig,
    /// The constructor's technique: every batch's under a `Fixed` policy,
    /// batch 0's otherwise.
    technique: Technique,
    strategies: StrategySet,
    /// Per-batch technique selection; `None` under a `Fixed`
    /// [`EngineConfig::policy`] (the technique is the constructor's and no
    /// decision is logged).
    policy: Option<Box<dyn PartitionerPolicy>>,
    job: Job,
    window: Option<WindowSpec>,
    stateful: Option<StatefulOp>,
    fault_tolerance: Option<(usize, FaultPlan)>,
    net_faults: NetFaultPlan,
}

impl StreamingEngine {
    /// Build an engine running `job` with the given partitioning technique
    /// (paired with its natural reduce strategy) under `cfg`.
    pub fn new(cfg: EngineConfig, technique: Technique, seed: u64, job: Job) -> StreamingEngine {
        cfg.validate().expect("invalid engine config");
        let mut cfg = cfg;
        if cfg.policy.is_fixed() {
            // The constructor's technique is authoritative: normalise the
            // spec so `config()` reports what actually runs.
            cfg.policy = PolicySpec::Fixed(technique);
        }
        // The batching phase is one serial accumulator; the partitioner runs
        // as wide as the local executor. The fleet's driver partitions on
        // one thread, as `InProcess` does.
        let width = match cfg.backend {
            Backend::Threaded { threads } => threads,
            Backend::InProcess | Backend::Distributed { .. } => 1,
        };
        StreamingEngine {
            technique,
            strategies: StrategySet::new(seed, width),
            policy: build_policy(&cfg.policy, technique, seed),
            cfg,
            job,
            window: None,
            stateful: None,
            fault_tolerance: None,
            net_faults: NetFaultPlan::none(),
        }
    }

    /// Attach a window computation.
    pub fn with_window(mut self, spec: WindowSpec) -> StreamingEngine {
        self.window = Some(spec);
        self
    }

    /// Attach a stateful per-key operator, evaluated over the keyed state
    /// store at every window emission (results land in
    /// [`RunResult::stateful`]). Requires a window; routes the run through
    /// the sharded [`KeyedStateStore`], which is bit-identical to the
    /// serial window path.
    pub fn with_stateful(mut self, op: StatefulOp) -> StreamingEngine {
        self.stateful = Some(op);
        self
    }

    /// Enable batch-level fault tolerance (§8) under a recovery budget of
    /// `replicas`: the replica count of every retained batch input, and the
    /// worker losses one execution of a batch may survive. A non-empty `plan`
    /// retains every in-window batch input and recovers the batches it marks
    /// as lost by recomputing them from the store. Recomputation cost lands
    /// in the affected batch's processing time.
    pub fn with_fault_tolerance(mut self, replicas: usize, plan: FaultPlan) -> StreamingEngine {
        self.fault_tolerance = Some((replicas, plan));
        self
    }

    /// Script real worker kills for the distributed backend: each
    /// [`NetFaultPlan`] entry terminates the named worker's process (or
    /// thread-mode connection) at the scheduled point of the scheduled
    /// batch. The driver detects the loss and re-dispatches the in-flight
    /// batches on the survivors from the plans it still holds, spending one
    /// unit of the recovery budget. A kill naming a worker the fleet does not
    /// have is refused before batch 0 (`run` panics, as for an invalid
    /// config). Ignored by in-process backends.
    pub fn with_net_faults(mut self, plan: NetFaultPlan) -> StreamingEngine {
        self.net_faults = plan;
        self
    }

    /// Access the configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Run the engine for `n_batches` heartbeats over `source`.
    pub fn run(&mut self, source: &mut dyn TupleSource, n_batches: usize) -> RunResult {
        self.run_traced(source, n_batches).0
    }

    /// [`StreamingEngine::run`] that also returns the observability
    /// recorder, populated according to the config's
    /// [`trace`](EngineConfig::trace) level. At
    /// [`TraceLevel::Off`](crate::trace::TraceLevel::Off) (the default)
    /// every recording call is an early return, so `run` is just this with
    /// the recorder dropped.
    ///
    /// The recorded virtual-time spans reconcile exactly with the returned
    /// [`BatchRecord`]s: per batch, the spans of
    /// [`PROCESSING_KINDS`](crate::trace::PROCESSING_KINDS) tile
    /// `[heartbeat + queue_delay, …]` without gaps and sum to `processing`,
    /// the `QueueWait` span equals `queue_delay`, and `Accumulate` equals
    /// the batch interval.
    pub fn run_traced(
        &mut self,
        source: &mut dyn TupleSource,
        n_batches: usize,
    ) -> (RunResult, TraceRecorder) {
        let (depth, n_batches) = (self.cfg.pipeline_depth, n_batches as u64);
        let (overhead, columns) = (self.cfg.overhead, self.job.columns());
        let mut run = Run::new(self, source);
        loop {
            // Fill on this thread: advance batches from *buffering* to
            // *partitioned* until the in-flight window is full (at depth 1)
            // or one slot short of it, or the source is drained.
            while run.prepared.len() < depth.max(2) - 1 && run.may_pull(n_batches) {
                run.fill();
            }
            let overlap = depth > 1 && run.may_pull(n_batches);
            // Execute + commit the oldest in-flight batch, in strict batch
            // order — at depth ≥ 2 while the window's last slot is
            // partitioned beside it.
            let Some(pb) = run.prepared.pop_front() else {
                break;
            };
            let pulled = if overlap { run.pull() } else { None };
            match pulled {
                Some(pulled) => overlapped(&mut run, pb, pulled, columns, overhead),
                None => {
                    let (output, times) = run.execute(&pb);
                    run.commit(pb, output, times);
                    run.recycle();
                }
            }
        }
        run.close()
    }

    /// A fresh keyed state store for this engine's window and job.
    fn new_state_store(&self) -> KeyedStateStore {
        KeyedStateStore::new(
            self.window.expect("the state layer requires a window"),
            self.cfg.batch_interval,
            self.job.reduce(),
            STATE_SHARDS,
        )
    }
}

/// One step of the loop at depth ≥ 2 (§4.1, Fig. 7): batch `s + 1`, already
/// pulled on the driver thread, is partitioned on a second thread while the
/// driver thread executes and commits batch `s` — on the distributed backend
/// that execute is also where `s` goes on the wire. The time the driver
/// thread then blocks at the join is traced as `PartitionWait`. The
/// partitioner is lent out of the registry for the step; `s`'s plan is
/// handed back to it only after the join, so `partition(s + 2)` builds in
/// it and no third plan exists.
/// Everything that reads or moves actuator state stays on the driver thread,
/// in the serial loop's order, so the run is the serial loop's run.
fn overlapped(
    run: &mut Run<'_>,
    pb: PreparedBatch,
    pulled: PulledBatch,
    columns: Columns,
    overhead: OverheadMode,
) {
    let technique = pulled.technique;
    let mut partitioner = run.lend(technique);
    let (lent, batch, p) = (partitioner.as_mut(), &pulled.batch, pulled.p);
    let (partitioned, waited) = std::thread::scope(|scope| {
        let worker = scope.spawn(move || partition(lent, batch, p, columns, overhead));
        let (output, times) = run.execute(&pb);
        run.commit(pb, output, times);
        let t0 = std::time::Instant::now();
        let partitioned = worker
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (partitioned, t0.elapsed())
    });
    run.trace_partition_wait(&pulled, waited);
    run.give_back(technique, partitioner);
    run.recycle();
    run.finish(pulled, partitioned);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::config::{Backend, OverheadMode};
    use crate::cost::CostModel;
    use crate::job::ReduceOp;
    use crate::trace::{StageKind, TraceEvent, TraceLevel};
    use prompt_core::batch::{MicroBatch, PartitionPlan};
    use prompt_core::partitioner::{PartitionPhases, Partitioner};
    use prompt_core::types::{Interval, Key, Time, Tuple};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Constant-rate source: `rate` tuples per interval, keys round-robin
    /// over `keys`.
    fn const_source(rate: usize, keys: u64) -> impl TupleSource {
        move |iv: Interval, out: &mut Vec<Tuple>| {
            let step = iv.len().0 / (rate as u64 + 1);
            for i in 0..rate {
                out.push(Tuple::keyed(
                    Time(iv.start.0 + step * (i as u64 + 1)),
                    Key(i as u64 % keys),
                ));
            }
        }
    }

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            batch_interval: Duration::from_secs(1),
            map_tasks: 4,
            reduce_tasks: 4,
            cluster: Cluster::new(1, 4),
            cost: CostModel::default(),
            ..EngineConfig::default()
        }
    }

    /// Skewed source: `hot_share` of each interval's tuples hit one hot
    /// key, the rest round-robin over `cold_keys`.
    fn skewed_source(rate: usize, hot_share: f64, cold_keys: u64) -> impl TupleSource {
        move |iv: Interval, out: &mut Vec<Tuple>| {
            let step = iv.len().0 / (rate as u64 + 1);
            let hot = (rate as f64 * hot_share) as usize;
            for i in 0..rate {
                let key = if i < hot {
                    Key(0)
                } else {
                    Key(1 + i as u64 % cold_keys)
                };
                out.push(Tuple::keyed(Time(iv.start.0 + step * (i as u64 + 1)), key));
            }
        }
    }

    #[test]
    fn rebalancer_migrates_hot_groups_without_changing_answers() {
        use crate::rebalance::{RebalanceConfig, RebalanceSpec};
        let run = |spec: RebalanceSpec| {
            let mut cfg = small_cfg();
            cfg.rebalance = spec;
            let mut eng = StreamingEngine::new(
                cfg,
                Technique::Hash,
                1,
                Job::identity("count", ReduceOp::Count),
            )
            .with_window(WindowSpec::tumbling(Duration::from_secs(2)));
            eng.run(&mut skewed_source(2000, 0.6, 30), 10)
        };
        let base = run(RebalanceSpec::Off);
        let rebalanced = run(RebalanceSpec::Auto(RebalanceConfig {
            n_groups: 16,
            ..RebalanceConfig::default()
        }));
        assert!(base.migrations.is_empty());
        assert!(
            !rebalanced.migrations.is_empty(),
            "a 60% hot key must trip the rebalancer"
        );
        // Routing only changes placement, never the query answer.
        assert_eq!(base.windows.len(), rebalanced.windows.len());
        for (a, b) in base.windows.iter().zip(&rebalanced.windows) {
            assert_eq!(a.aggregates.len(), b.aggregates.len());
            for (k, v) in &a.aggregates {
                assert_eq!(b.aggregates[k].to_bits(), v.to_bits());
            }
        }
        // Migrating groups off the hot worker lowers the reduce makespan in
        // the steady state.
        let tail = |r: &RunResult| r.steady_state_mean(|b| b.reduce_stage.as_secs_f64());
        assert!(
            tail(&rebalanced) < tail(&base),
            "rebalanced reduce stage {:.4}s should beat static {:.4}s",
            tail(&rebalanced),
            tail(&base)
        );
    }

    #[test]
    fn forced_rebalance_replays_the_recorded_run_bit_identically() {
        use crate::rebalance::{RebalanceConfig, RebalanceSpec};
        let run = |spec: RebalanceSpec| {
            let mut cfg = small_cfg();
            cfg.rebalance = spec;
            let mut eng = StreamingEngine::new(
                cfg,
                Technique::Hash,
                1,
                Job::identity("count", ReduceOp::Count),
            )
            .with_window(WindowSpec::tumbling(Duration::from_secs(2)));
            eng.run(&mut skewed_source(2000, 0.6, 30), 10)
        };
        let auto = run(RebalanceSpec::Auto(RebalanceConfig {
            n_groups: 16,
            ..RebalanceConfig::default()
        }));
        assert!(!auto.migrations.is_empty());
        let forced = run(RebalanceSpec::Forced {
            n_groups: 16,
            plans: auto.migrations.clone(),
        });
        assert_eq!(auto.migrations, forced.migrations);
        assert_eq!(auto.batches.len(), forced.batches.len());
        for (a, b) in auto.batches.iter().zip(&forced.batches) {
            assert_eq!(a.reduce_task_times, b.reduce_task_times, "batch {}", a.seq);
            assert_eq!(a.processing, b.processing, "batch {}", a.seq);
        }
    }

    #[test]
    fn light_load_is_stable_with_no_queueing() {
        let mut eng = StreamingEngine::new(
            small_cfg(),
            Technique::Prompt,
            1,
            Job::identity("count", ReduceOp::Count),
        );
        let res = eng.run(&mut const_source(1000, 50), 10);
        assert_eq!(res.batches.len(), 10);
        assert!(res.stable());
        assert!(!res.backpressure);
        for b in &res.batches {
            assert_eq!(b.queue_delay, Duration::ZERO);
            assert_eq!(b.n_tuples, 1000);
            assert_eq!(b.n_keys, 50);
            assert!(b.w < 1.0, "light load must fit the interval, W = {}", b.w);
            assert_eq!(b.latency, Duration::from_secs(1) + b.processing);
        }
        assert!((res.throughput(Duration::from_secs(1)) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn overload_queues_and_triggers_backpressure() {
        // Inflate per-tuple cost so the load exceeds the interval.
        let mut cfg = small_cfg();
        cfg.cost = CostModel {
            map_per_tuple: Duration::from_micros(2000),
            ..CostModel::default()
        };
        let mut eng = StreamingEngine::new(
            cfg,
            Technique::Shuffle,
            1,
            Job::identity("count", ReduceOp::Count),
        );
        let res = eng.run(&mut const_source(5000, 50), 12);
        assert!(
            res.backpressure,
            "sustained overload must trip back-pressure"
        );
        assert!(!res.stable());
        // Queue delay grows monotonically under constant overload.
        let delays: Vec<u64> = res.batches.iter().map(|b| b.queue_delay.0).collect();
        assert!(delays.windows(2).all(|w| w[1] >= w[0]), "{delays:?}");
    }

    #[test]
    fn window_results_are_emitted() {
        let mut eng = StreamingEngine::new(
            small_cfg(),
            Technique::Prompt,
            1,
            Job::identity("count", ReduceOp::Count),
        )
        .with_window(WindowSpec::sliding(
            Duration::from_secs(3),
            Duration::from_secs(1),
        ));
        let res = eng.run(&mut const_source(300, 3), 6);
        assert_eq!(res.windows.len(), 6);
        // After warm-up each window covers 3 batches × 100 per key.
        let last = res.windows.last().unwrap();
        for k in 0..3u64 {
            assert_eq!(last.aggregates[&Key(k)], 300.0);
        }
    }

    #[test]
    fn query_answers_identical_across_techniques() {
        // Partitioning must never change query results.
        let mut reference: Option<Vec<(u64, f64)>> = None;
        for tech in Technique::EVALUATION_SET {
            let mut eng = StreamingEngine::new(
                small_cfg(),
                tech,
                7,
                Job::identity("count", ReduceOp::Count),
            )
            .with_window(WindowSpec::tumbling(Duration::from_secs(2)));
            let res = eng.run(&mut const_source(500, 21), 6);
            let mut got: Vec<(u64, f64)> = res
                .windows
                .last()
                .unwrap()
                .aggregates
                .iter()
                .map(|(k, v)| (k.0, *v))
                .collect();
            got.sort_by_key(|a| a.0);
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "{tech:?} changed the answer"),
            }
        }
    }

    /// The batching phase is one serial accumulator, so neither the
    /// deprecated ingest geometry nor the backend's width changes a batch:
    /// for `Technique::Prompt` and the paper's count tree alike, every
    /// geometry, on the calling thread and on `Backend::Threaded` at two
    /// threads and depth 2, gives the serial run: its plans' metrics, task
    /// times and windows, a `Sum`'s rounding included.
    #[test]
    #[allow(deprecated)]
    fn ingest_geometry_changes_no_plan_and_no_answer() {
        let run = |technique, backend, depth, shards, threads| {
            let mut cfg = small_cfg();
            cfg.backend = backend;
            cfg.pipeline_depth = depth;
            cfg.ingest_shards = shards;
            cfg.ingest_threads = threads;
            let job = Job::identity("sum", ReduceOp::Sum);
            let mut eng = StreamingEngine::new(cfg, technique, 1, job)
                .with_window(WindowSpec::tumbling(Duration::from_secs(2)));
            // Zipf-like counts over a thousand keys: key `1000 / (r + 1)`,
            // `r` scrambled over the interval, so key 1 takes half the
            // tuples and most keys a few, and values of varied bits.
            let mut zipfish = |iv: Interval, out: &mut Vec<Tuple>| {
                let n = 3_000u64;
                let step = iv.len().0 / (n + 1);
                for i in 0..n {
                    let r = (iv.start.0 / step + i).wrapping_mul(0x9e37_79b9) % 1_000;
                    let ts = Time(iv.start.0 + step * (i + 1));
                    out.push(Tuple::new(ts, Key(1_000 / (r + 1)), 0.1 * (i % 7) as f64));
                }
            };
            eng.run(&mut zipfish, 6)
        };
        let threaded = Backend::Threaded { threads: 2 };
        for technique in [Technique::Prompt, Technique::PromptCountTree] {
            let reference = run(technique, Backend::InProcess, 1, 1, 1);
            for (backend, depth, shards, threads) in [
                (Backend::InProcess, 1, 1, 2),
                (Backend::InProcess, 1, 4, 2),
                (Backend::InProcess, 1, 8, 4),
                (threaded, 2, 1, 1),
                (threaded, 2, 4, 2),
            ] {
                let res = run(technique, backend, depth, shards, threads);
                let label = format!(
                    "{technique:?} on {backend:?} at depth {depth}, \
                     {shards} shards / {threads} threads"
                );
                assert_eq!(reference.first_difference(&res), None, "{label}");
            }
        }
    }

    #[test]
    fn elasticity_scales_out_under_growing_load() {
        let mut cfg = small_cfg();
        cfg.map_tasks = 2;
        cfg.reduce_tasks = 2;
        cfg.cluster = Cluster::new(4, 4);
        cfg.cost = CostModel {
            map_per_tuple: Duration::from_micros(150),
            reduce_per_tuple: Duration::from_micros(150),
            ..CostModel::default()
        };
        cfg.elasticity = Some(crate::elasticity::ScalerConfig {
            d: 2,
            ..Default::default()
        });
        let mut eng = StreamingEngine::new(
            cfg,
            Technique::Prompt,
            1,
            Job::identity("count", ReduceOp::Count),
        );
        // Ramp the rate so W crosses the threshold.
        let mut rate = 2000usize;
        let mut src = move |iv: Interval, out: &mut Vec<Tuple>| {
            rate += 400;
            let step = iv.len().0 / (rate as u64 + 1);
            for i in 0..rate {
                out.push(Tuple::keyed(
                    Time(iv.start.0 + step * (i as u64 + 1)),
                    Key(i as u64 % 64),
                ));
            }
        };
        let res = eng.run(&mut src, 30);
        assert!(
            !res.scale_events.is_empty(),
            "growing load must trigger scale-out"
        );
        assert!(res.scale_events.iter().any(|(_, a)| a.out));
        let last = res.batches.last().unwrap();
        assert!(
            last.map_tasks > 2 || last.reduce_tasks > 2,
            "parallelism should have grown"
        );
    }

    #[test]
    fn fixed_overhead_is_hidden_by_early_release() {
        let mut cfg = small_cfg();
        // 5% of 1 s = 50 ms slack; a 30 ms overhead hides entirely.
        cfg.overhead = OverheadMode::Fixed(Duration::from_millis(30));
        let mut eng = StreamingEngine::new(
            cfg,
            Technique::Prompt,
            1,
            Job::identity("count", ReduceOp::Count),
        );
        let res = eng.run(&mut const_source(100, 5), 3);
        for b in &res.batches {
            assert_eq!(b.partition_overhead, Duration::from_millis(30));
            assert_eq!(b.visible_overhead, Duration::ZERO);
        }
        // A 80 ms overhead leaves 30 ms visible.
        let mut cfg = small_cfg();
        cfg.overhead = OverheadMode::Fixed(Duration::from_millis(80));
        let mut eng = StreamingEngine::new(
            cfg,
            Technique::Prompt,
            1,
            Job::identity("count", ReduceOp::Count),
        );
        let res = eng.run(&mut const_source(100, 5), 3);
        for b in &res.batches {
            assert_eq!(b.visible_overhead, Duration::from_millis(30));
        }
    }

    #[test]
    fn fault_injection_recovers_exactly_once_answers() {
        use crate::recovery::FaultPlan;
        let run = |plan: FaultPlan| {
            let mut eng = StreamingEngine::new(
                small_cfg(),
                Technique::Prompt,
                1,
                Job::identity("count", ReduceOp::Count),
            )
            .with_window(WindowSpec::sliding(
                Duration::from_secs(3),
                Duration::from_secs(1),
            ))
            .with_fault_tolerance(2, plan);
            eng.run(&mut const_source(600, 12), 8)
        };
        let clean = run(FaultPlan::none());
        let faulty = run(FaultPlan::none().lose_once(2).lose_times(5, 2));
        assert_eq!(clean.recoveries, 0);
        assert_eq!(faulty.recoveries, 3);
        // Exactly-once: window answers identical despite the failures.
        assert_eq!(clean.windows.len(), faulty.windows.len());
        for (a, b) in clean.windows.iter().zip(&faulty.windows) {
            assert_eq!(a.aggregates.len(), b.aggregates.len());
            for (k, v) in &a.aggregates {
                assert_eq!(b.aggregates[k], *v);
            }
        }
        // Recovery work shows up in the affected batch's processing time.
        assert!(
            faulty.batches[2].processing > clean.batches[2].processing,
            "recomputation must cost time"
        );
        assert_eq!(faulty.batches[3].processing, clean.batches[3].processing);
    }

    #[test]
    #[should_panic(expected = "injected failure beyond recovery budget")]
    fn losing_more_than_replicas_is_fatal() {
        let mut eng = StreamingEngine::new(
            small_cfg(),
            Technique::Prompt,
            1,
            Job::identity("count", ReduceOp::Count),
        )
        .with_fault_tolerance(1, crate::recovery::FaultPlan::none().lose_times(1, 2));
        let _ = eng.run(&mut const_source(100, 5), 4);
    }

    #[test]
    fn replays_repartition_with_the_technique_retained_next_to_the_input() {
        use crate::recovery::FaultPlan;
        // Every batch runs Hash under the forced policy while the
        // constructor's technique is Prompt. Hash is stateless on both
        // sides of the shuffle, so a replay with the *original* technique
        // reproduces the batch's stage times exactly — and one with the
        // constructor's would not.
        let run = |plan: FaultPlan| {
            let cfg = EngineConfig {
                policy: PolicySpec::Forced(vec![Technique::Hash; 8]),
                ..small_cfg()
            };
            let job = Job::identity("count", ReduceOp::Count);
            StreamingEngine::new(cfg, Technique::Prompt, 1, job)
                .with_window(WindowSpec::sliding(
                    Duration::from_secs(8),
                    Duration::from_secs(1),
                ))
                .with_stateful(StatefulOp::SessionCount)
                .with_fault_tolerance(3, plan)
                .run(&mut skewed_source(2000, 0.6, 30), 8)
        };
        let stages = |b: &BatchRecord| b.map_stage + b.reduce_stage;
        let clean = run(FaultPlan::none());
        // An injected loss of batch 3 replays batch 3 once…
        let lost = run(FaultPlan::none().lose_once(3));
        assert_eq!(
            lost.batches[3].processing,
            clean.batches[3].processing + stages(&clean.batches[3])
        );
        // …and a store loss at batch 5 replays the whole suffix 0..5.
        let restored = run(FaultPlan::none().lose_store_at(5));
        let mut suffix = clean.batches[5].processing;
        for b in &clean.batches[..5] {
            suffix += stages(b);
        }
        assert_eq!(restored.batches[5].processing, suffix);
        assert_windows_identical(&clean, &restored, "store loss under a policy");
    }

    /// A replay is placed by the same pure function as a first execution, so
    /// it shifts nothing after it: with `p` = 4 Map tasks over `r` = 3
    /// buckets (a run-global task counter would drift by one bucket per
    /// replayed batch) every batch but the one billed for the recovery runs
    /// exactly the tasks the fault-free run's did.
    #[test]
    fn a_faulted_run_places_every_other_batch_where_the_clean_run_did() {
        use crate::recovery::FaultPlan;
        let run = |plan: FaultPlan| {
            let cfg = EngineConfig {
                reduce_tasks: 3,
                ..small_cfg()
            };
            let job = Job::identity("count", ReduceOp::Count);
            StreamingEngine::new(cfg, Technique::Prompt, 1, job)
                .with_window(WindowSpec::sliding(
                    Duration::from_secs(8),
                    Duration::from_secs(1),
                ))
                .with_stateful(StatefulOp::SessionCount)
                .with_fault_tolerance(3, plan)
                .run(&mut skewed_source(2000, 0.6, 30), 8)
        };
        let clean = run(FaultPlan::none());
        for (what, plan, billed) in [
            ("a lost batch", FaultPlan::none().lose_once(3), 3),
            ("a lost store", FaultPlan::none().lose_store_at(5), 5),
        ] {
            let faulted = run(plan);
            assert!(
                faulted.batches[billed].processing > clean.batches[billed].processing,
                "{what}: the recovery must cost batch {billed} time"
            );
            let others = clean.batches.iter().zip(&faulted.batches);
            for (a, b) in others.filter(|(a, _)| a.seq != billed as u64) {
                assert_eq!(
                    a.map_task_times, b.map_task_times,
                    "{what}: batch {}",
                    a.seq
                );
                assert_eq!(
                    a.reduce_task_times, b.reduce_task_times,
                    "{what}: batch {}",
                    a.seq
                );
                assert_eq!(a.processing, b.processing, "{what}: batch {}", a.seq);
            }
            assert_windows_identical(&clean, &faulted, what);
        }
    }

    /// A re-run runs under what its batch carries, never the run's current
    /// values: at depth 4 the rebalancer moves groups for younger batches
    /// while a lost batch commits, and every lost batch still costs exactly
    /// its own stages once more — as does each batch a lost store re-runs.
    #[test]
    fn a_rerun_runs_under_the_routing_its_batch_carries() {
        use crate::rebalance::{RebalanceConfig, RebalanceSpec};
        let n = 12;
        let run = |plan: FaultPlan| {
            let cfg = EngineConfig {
                pipeline_depth: 4,
                rebalance: RebalanceSpec::Auto(RebalanceConfig {
                    n_groups: 16,
                    ..RebalanceConfig::default()
                }),
                ..small_cfg()
            };
            let job = Job::identity("count", ReduceOp::Count);
            StreamingEngine::new(cfg, Technique::Hash, 1, job)
                .with_window(WindowSpec::sliding(
                    Duration::from_secs(3),
                    Duration::from_secs(1),
                ))
                .with_stateful(StatefulOp::SessionCount)
                .with_fault_tolerance(1, plan)
                .run(&mut skewed_source(2000, 0.6, 30), n)
        };
        let stages = |b: &BatchRecord| b.map_stage + b.reduce_stage;
        let clean = run(FaultPlan::none());
        // Batches `s − 3 ..= s − 1` are in flight when a plan applies for `s`.
        let (moved_at, _) = clean.migrations.first().expect("a 60% hot key migrates");
        assert!((1..n as u64).contains(moved_at), "{moved_at}");
        let every = (0..n as u64).fold(FaultPlan::none(), |plan, s| plan.lose_once(s));
        let lost = run(every);
        assert_eq!(clean.migrations, lost.migrations);
        for (a, b) in clean.batches.iter().zip(&lost.batches) {
            assert_eq!(b.processing, a.processing + stages(a), "batch {}", a.seq);
        }
        assert_windows_identical(&clean, &lost, "every batch lost once");
        let last = n as u64 - 1;
        let restored = run(FaultPlan::none().lose_store_at(last));
        let mut rebuilt = clean.batches[n - 1].processing;
        for b in &clean.batches[..n - 1] {
            rebuilt += stages(b);
        }
        assert_eq!(restored.batches[n - 1].processing, rebuilt);
        assert_windows_identical(&clean, &restored, "the store lost at the last batch");
    }

    #[test]
    fn committed_batches_expire_with_the_window_after_a_store_loss() {
        // A batch's technique travels in the plan it carries, and a store
        // loss re-runs the committed plans the store does not cover. Without
        // a checkpoint nothing expires while a store loss is ahead; once the
        // one at batch 1 is behind, a long adaptive run keeps committed
        // batches, and their techniques, only while a window can need them —
        // bounded by the 3-batch window, not the run length.
        let cfg = EngineConfig {
            policy: PolicySpec::Adaptive(crate::policy::AdaptiveConfig::default()),
            ..small_cfg()
        };
        let job = Job::identity("count", ReduceOp::Count);
        let faults = FaultPlan::none().lose_once(150).lose_store_at(1);
        let res = StreamingEngine::new(cfg, Technique::Hash, 1, job)
            .with_window(WindowSpec::sliding(
                Duration::from_secs(3),
                Duration::from_secs(1),
            ))
            .with_stateful(StatefulOp::SessionCount)
            .with_fault_tolerance(2, faults)
            .run(&mut skewed_source(300, 0.5, 30), 200);
        assert_eq!(res.policy_decisions.len(), 200);
        assert_eq!(res.recoveries, 1, "batch 150 re-runs the plan it carries");
        let retained = res.state.expect("state on").max_retained_batches;
        assert!(
            (1..=3).contains(&retained),
            "a 3-batch window keeps {retained} committed batches"
        );
    }

    #[test]
    fn run_summary_aggregates_the_run() {
        let mut eng = StreamingEngine::new(
            small_cfg(),
            Technique::Prompt,
            1,
            Job::identity("count", ReduceOp::Count),
        );
        let res = eng.run(&mut const_source(500, 10), 8);
        let s = res.summary(Duration::from_secs(1));
        assert_eq!(s.batches, 8);
        assert_eq!(s.tuples, 4_000);
        assert!((s.throughput - 500.0).abs() < 1e-9);
        assert!(s.stable && !s.backpressure);
        assert_eq!(s.recoveries, 0);
        assert!(s.latency.mean > 1.0, "latency includes the interval");
        let text = s.to_string();
        assert!(text.contains("8 batches"));
        assert!(text.contains("stable: true"));
        assert!(!text.contains("[backpressure]"));
    }

    #[test]
    fn more_tasks_than_slots_run_in_waves() {
        // 8 map tasks on 2 slots: the map stage is the LPT makespan of 4
        // waves, ~4x the single-wave stage of 2 tasks on 2 slots.
        let run = |map_tasks: usize| {
            let cfg = EngineConfig {
                batch_interval: Duration::from_secs(1),
                map_tasks,
                reduce_tasks: 2,
                cluster: Cluster::new(1, 2),
                ..EngineConfig::default()
            };
            let mut eng = StreamingEngine::new(
                cfg,
                Technique::Shuffle,
                1,
                Job::identity("count", ReduceOp::Count),
            );
            eng.run(&mut const_source(8_000, 64), 2)
        };
        let narrow = run(2);
        let wide = run(8);
        let stage = |r: &RunResult| r.batches[1].map_stage.as_secs_f64();
        // Same total work split 8 ways on 2 slots: waves make the stage
        // roughly equal (fixed per-task cost adds a little on top).
        let ratio = stage(&wide) / stage(&narrow);
        assert!(
            (0.9..1.6).contains(&ratio),
            "8 tasks on 2 slots should wave-schedule: ratio {ratio}"
        );
        // And each individual wide task is ~4x cheaper than a narrow task.
        let max_task = |r: &RunResult| {
            r.batches[1]
                .map_task_times
                .iter()
                .max()
                .unwrap()
                .as_secs_f64()
        };
        assert!(max_task(&wide) < max_task(&narrow) * 0.5);
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!(
            "prompt-driver-{tag}-{}-{nanos}",
            std::process::id()
        ))
    }

    fn assert_windows_identical(a: &RunResult, b: &RunResult, what: &str) {
        assert_eq!(a.windows.len(), b.windows.len(), "{what}: window count");
        for (x, y) in a.windows.iter().zip(&b.windows) {
            assert_eq!(x.last_batch_seq, y.last_batch_seq, "{what}");
            assert_eq!(x.aggregates.len(), y.aggregates.len(), "{what}");
            for (k, v) in &x.aggregates {
                assert_eq!(y.aggregates[k], *v, "{what}: key {k:?}");
            }
        }
    }

    #[test]
    fn checkpointed_state_run_matches_plain_window_run() {
        let window = WindowSpec::sliding(Duration::from_secs(3), Duration::from_secs(1));
        let plain = {
            let mut eng = StreamingEngine::new(
                small_cfg(),
                Technique::Prompt,
                1,
                Job::identity("count", ReduceOp::Count),
            )
            .with_window(window);
            eng.run(&mut const_source(400, 13), 8)
        };
        let dir = ckpt_dir("match");
        let ckpt = {
            let mut cfg = small_cfg();
            cfg.checkpoint = Some(crate::state::CheckpointConfig::new(&dir).interval(1));
            let mut eng = StreamingEngine::new(
                cfg,
                Technique::Prompt,
                1,
                Job::identity("count", ReduceOp::Count),
            )
            .with_window(window);
            eng.run(&mut const_source(400, 13), 8)
        };
        assert_windows_identical(&plain, &ckpt, "checkpoint on vs off");
        for (a, b) in plain.batches.iter().zip(&ckpt.batches) {
            assert_eq!(a.n_tuples, b.n_tuples);
            assert_eq!(a.n_keys, b.n_keys);
        }
        let stats = ckpt.state.expect("state layer was on");
        assert_eq!(stats.checkpoints, 8, "one commit per batch at interval 1");
        assert!(stats.snapshots >= 1, "first commit always snapshots");
        assert!(stats.checkpoint_bytes > 0);
        assert_eq!(stats.watermark, Some(7));
        assert!(plain.state.is_none(), "plain run has no state layer");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_recovery_recomputes_only_the_suffix() {
        // Window spans the whole run so the no-checkpoint variant retains
        // every batch and recompute-from-scratch stays feasible.
        let window = WindowSpec::sliding(Duration::from_secs(8), Duration::from_secs(1));
        let run = |ckpt: Option<crate::state::CheckpointConfig>, plan: FaultPlan| {
            let mut cfg = small_cfg();
            cfg.checkpoint = ckpt;
            let mut eng = StreamingEngine::new(
                cfg,
                Technique::Prompt,
                1,
                Job::identity("count", ReduceOp::Count),
            )
            .with_window(window)
            .with_stateful(StatefulOp::SessionCount)
            .with_fault_tolerance(2, plan);
            eng.run(&mut const_source(500, 11), 8)
        };
        let clean = run(None, FaultPlan::none());
        let scratch = run(None, FaultPlan::none().lose_store_at(6));
        let dir = ckpt_dir("suffix");
        let fast = run(
            Some(crate::state::CheckpointConfig::new(&dir).interval(1)),
            FaultPlan::none().lose_store_at(6),
        );
        assert_windows_identical(&clean, &scratch, "recompute-from-scratch");
        assert_windows_identical(&clean, &fast, "restore-from-checkpoint");
        let slow_stats = scratch.state.expect("state on");
        let fast_stats = fast.state.expect("state on");
        assert_eq!(slow_stats.restores, 1);
        assert_eq!(fast_stats.restores, 1);
        assert_eq!(
            slow_stats.recomputed_batches, 6,
            "no checkpoint: recompute everything before the loss"
        );
        assert!(
            fast_stats.recomputed_batches < slow_stats.recomputed_batches,
            "checkpoint must shrink the recompute suffix: {} vs {}",
            fast_stats.recomputed_batches,
            slow_stats.recomputed_batches
        );
        // Stateful emissions also survive the loss bit-identically.
        assert_eq!(clean.stateful.len(), fast.stateful.len());
        for (a, b) in clean.stateful.iter().zip(&fast.stateful) {
            for (k, v) in &a.aggregates {
                assert_eq!(b.aggregates[k], *v);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A late store loss is what makes the run retain inputs at all (only a
    /// `FaultPlan` replay reads them); until it fires, each checkpoint commit
    /// truncates them at its watermark.
    #[test]
    fn watermark_truncates_retained_inputs() {
        let window = WindowSpec::sliding(Duration::from_secs(8), Duration::from_secs(1));
        let run = |interval: usize| {
            let dir = ckpt_dir(&format!("trunc-{interval}"));
            let mut cfg = small_cfg();
            cfg.checkpoint = Some(crate::state::CheckpointConfig::new(&dir).interval(interval));
            let mut eng = StreamingEngine::new(
                cfg,
                Technique::Prompt,
                1,
                Job::identity("count", ReduceOp::Count),
            )
            .with_window(window)
            .with_fault_tolerance(2, FaultPlan::none().lose_store_at(7));
            let res = eng.run(&mut const_source(300, 7), 8);
            let _ = std::fs::remove_dir_all(&dir);
            res.state.expect("state on")
        };
        let tight = run(1);
        let loose = run(4);
        // Interval 1: the commit after each batch truncates the store down
        // to nothing; the high-water mark is the single in-flight batch.
        assert!(
            tight.max_retained_batches <= 1,
            "interval 1 must retain at most the in-flight batch, got {}",
            tight.max_retained_batches
        );
        assert!(tight.max_retained_tuples <= 300);
        // Interval 4: up to 4 batches accumulate between commits.
        assert!(
            (2..=4).contains(&loose.max_retained_batches),
            "interval 4 retention out of range: {}",
            loose.max_retained_batches
        );
        assert!(loose.max_retained_tuples > tight.max_retained_tuples);
    }

    /// The elastic configuration the scaling tests ramp their load against.
    fn ramp_cfg(ckpt: Option<crate::state::CheckpointConfig>) -> EngineConfig {
        let mut cfg = small_cfg();
        cfg.map_tasks = 2;
        cfg.reduce_tasks = 2;
        cfg.cluster = Cluster::new(4, 4);
        cfg.cost = CostModel {
            map_per_tuple: Duration::from_micros(150),
            reduce_per_tuple: Duration::from_micros(150),
            ..CostModel::default()
        };
        cfg.elasticity = Some(crate::elasticity::ScalerConfig {
            d: 2,
            ..Default::default()
        });
        cfg.checkpoint = ckpt;
        cfg
    }

    /// Elasticity and durable state do not touch: a scale action changes the
    /// task counts and nothing about the store — no commit, no snapshot, the
    /// same [`STATE_SHARDS`] shards before and after.
    #[test]
    fn scaling_moves_no_state_and_keeps_answers_bit_identical() {
        let window = WindowSpec::sliding(Duration::from_secs(3), Duration::from_secs(1));
        let source = || {
            let mut rate = 2000usize;
            move |iv: Interval, out: &mut Vec<Tuple>| {
                rate += 400;
                let step = iv.len().0 / (rate as u64 + 1);
                for i in 0..rate {
                    out.push(Tuple::keyed(
                        Time(iv.start.0 + step * (i as u64 + 1)),
                        Key(i as u64 % 64),
                    ));
                }
            }
        };
        let run_for = |ckpt: Option<crate::state::CheckpointConfig>, n_batches: usize| {
            let mut eng = StreamingEngine::new(
                ramp_cfg(ckpt),
                Technique::Prompt,
                1,
                Job::identity("count", ReduceOp::Count),
            )
            .with_window(window);
            eng.run(&mut source(), n_batches)
        };
        let run = |ckpt| run_for(ckpt, 30);
        let plain = run(None);
        assert!(
            plain.scale_events.iter().any(|(_, a)| a.out),
            "load ramp must trigger scale-out"
        );
        let dir = ckpt_dir("scaling");
        let ckpt_cfg = crate::state::CheckpointConfig::new(&dir).interval(2);
        let ckpt = run(Some(ckpt_cfg.clone()));
        assert_windows_identical(&plain, &ckpt, "checkpointed under scaling vs serial window");
        // 15 commits, every one the interval's: the first snapshots and the
        // `snapshot_every` cadence does, a scale action does neither.
        let stats = ckpt.state.expect("state on");
        assert_eq!(stats.checkpoints, 30 / 2);
        let cadence = (stats.checkpoints - 1) / ckpt_cfg.snapshot_every as u64;
        assert_eq!(stats.snapshots, 1 + cadence);
        let shards_in = |dir: &std::path::Path| {
            let restored = crate::state::restore(dir).unwrap();
            let _ = std::fs::remove_dir_all(dir);
            restored.expect("the run committed").store.shard_count()
        };
        assert_eq!(shards_in(&dir), STATE_SHARDS, "after the scale actions");
        // The same run cut short of its first scale-out.
        let (first_out, _) = ckpt.scale_events.iter().find(|(_, a)| a.out).unwrap();
        let before = run_for(Some(ckpt_cfg), *first_out as usize);
        assert!(before.scale_events.iter().all(|(_, a)| !a.out));
        assert_eq!(shards_in(&dir), STATE_SHARDS, "before the first");
    }

    /// A store lost after a scale-out is rebuilt from a checkpoint taken
    /// under the task counts of before it — as it is, nothing re-sharded —
    /// and the suffix recomputed under the new ones: the windows are the
    /// serial window's of a run that lost and checkpointed nothing.
    #[test]
    fn store_lost_after_a_scale_out_restores_from_the_checkpoint_before_it() {
        // Rate and key count both ramp, so a scale-out grows `r` too.
        let mut source = |iv: Interval, out: &mut Vec<Tuple>| {
            let seq = iv.start.0 / iv.len().0;
            let (rate, keys) = (2400 + 400 * seq, 64 + 16 * seq);
            let step = iv.len().0 / (rate + 1);
            out.extend(
                (0..rate).map(|i| Tuple::keyed(Time(iv.start.0 + step * (i + 1)), Key(i % keys))),
            );
        };
        let mut run = |ckpt: Option<crate::state::CheckpointConfig>, plan: FaultPlan| {
            let job = Job::identity("count", ReduceOp::Count);
            let mut eng = StreamingEngine::new(ramp_cfg(ckpt), Technique::Prompt, 1, job)
                .with_window(WindowSpec::sliding(
                    Duration::from_secs(3),
                    Duration::from_secs(1),
                ))
                .with_fault_tolerance(2, plan);
            eng.run(&mut source, 16)
        };
        let plain = run(None, FaultPlan::none());
        let mut pairs = plain.scale_events.windows(2);
        let grown = pairs.find(|w| w[1].1.out && w[1].1.reduce_tasks > w[0].1.reduce_tasks);
        let grown_at = grown.expect("the ramp must scale `r` out")[1].0;
        // Commits at batches 3, 7, 11, …: the last one ahead of the loss
        // precedes the scale-out, and a batch filled under the new counts is
        // in the suffix.
        let lost_at = grown_at + 2;
        let dir = ckpt_dir("lost-after-scale-out");
        let ckpt_cfg = crate::state::CheckpointConfig::new(&dir).interval(4);
        let lossy = run(Some(ckpt_cfg), FaultPlan::none().lose_store_at(lost_at));
        assert_eq!(plain.scale_events, lossy.scale_events);
        let stats = lossy.state.expect("state on");
        let covered = lost_at - stats.recomputed_batches;
        assert_eq!(stats.restores, 1);
        assert!(
            (1..=grown_at).contains(&covered),
            "the checkpoint must predate the scale-out at {grown_at}: covers {covered}"
        );
        assert_windows_identical(&plain, &lossy, "store lost after a scale-out");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_checkpoint_continues_the_stream() {
        let window = WindowSpec::sliding(Duration::from_secs(3), Duration::from_secs(1));
        let mk = |ckpt: Option<crate::state::CheckpointConfig>| {
            StreamingEngine::new(
                {
                    let mut cfg = small_cfg();
                    cfg.checkpoint = ckpt;
                    cfg
                },
                Technique::Prompt,
                1,
                Job::identity("count", ReduceOp::Count),
            )
            .with_window(window)
        };
        let uninterrupted = mk(None).run(&mut const_source(400, 9), 12);
        let dir = ckpt_dir("resume");
        let first = mk(Some(crate::state::CheckpointConfig::new(&dir).interval(1)))
            .run(&mut const_source(400, 9), 8);
        assert_eq!(first.state.expect("state on").watermark, Some(7));
        let second = mk(Some(
            crate::state::CheckpointConfig::new(&dir)
                .interval(1)
                .resume(),
        ))
        .run(&mut const_source(400, 9), 12);
        // Batches 0..=7 are skipped (already durable); only the suffix runs.
        assert_eq!(second.batches.len(), 4);
        let stats = second.state.expect("state on");
        assert_eq!(stats.restores, 1);
        assert_eq!(stats.recomputed_batches, 0, "resume recomputes nothing");
        // The resumed suffix emits exactly the uninterrupted run's windows.
        let want: Vec<&WindowResult> = uninterrupted
            .windows
            .iter()
            .filter(|w| w.last_batch_seq >= 8)
            .collect();
        assert_eq!(second.windows.len(), want.len());
        for (got, want) in second.windows.iter().zip(want) {
            assert_eq!(got.last_batch_seq, want.last_batch_seq);
            for (k, v) in &want.aggregates {
                assert_eq!(got.aggregates[k], *v);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stateful_operator_emits_alongside_windows() {
        let mut eng = StreamingEngine::new(
            small_cfg(),
            Technique::Prompt,
            1,
            Job::identity("count", ReduceOp::Count),
        )
        .with_window(WindowSpec::sliding(
            Duration::from_secs(3),
            Duration::from_secs(1),
        ))
        .with_stateful(StatefulOp::SessionCount);
        let res = eng.run(&mut const_source(300, 5), 6);
        assert_eq!(res.stateful.len(), res.windows.len());
        // Every key appears in every batch, so once warm the session count
        // is the window length in batches.
        let last = res.stateful.last().unwrap();
        assert_eq!(last.aggregates.len(), 5);
        for k in 0..5u64 {
            assert_eq!(last.aggregates[&Key(k)], 3.0, "key {k}");
        }
        // Warm-up: the first emission has seen only one batch.
        assert_eq!(res.stateful[0].aggregates[&Key(0)], 1.0);
    }

    /// The deprecated `columnar` flag changes nothing.
    #[test]
    #[allow(deprecated)]
    fn columnar_runs_bit_identical_to_row() {
        for backend in [Backend::InProcess, Backend::Threaded { threads: 3 }] {
            let run = |columnar: bool| {
                let cfg = EngineConfig {
                    backend,
                    columnar,
                    ..small_cfg()
                };
                let mut eng = StreamingEngine::new(
                    cfg,
                    Technique::Prompt,
                    1,
                    Job::identity("count", ReduceOp::Count),
                )
                .with_window(WindowSpec::sliding(
                    Duration::from_secs(3),
                    Duration::from_secs(1),
                ));
                eng.run(&mut const_source(600, 12), 6)
            };
            let row = run(false);
            let col = run(true);
            assert_eq!(row.batches.len(), col.batches.len());
            for (a, b) in row.batches.iter().zip(&col.batches) {
                assert_eq!(a.n_tuples, b.n_tuples, "{backend:?} seq {}", a.seq);
                assert_eq!(a.map_stage, b.map_stage, "{backend:?} seq {}", a.seq);
                assert_eq!(a.reduce_stage, b.reduce_stage, "{backend:?} seq {}", a.seq);
                assert_eq!(a.processing, b.processing, "{backend:?} seq {}", a.seq);
            }
            assert_eq!(row.windows.len(), col.windows.len());
            for (a, b) in row.windows.iter().zip(&col.windows) {
                assert_eq!(a.aggregates.len(), b.aggregates.len());
                for (k, v) in &a.aggregates {
                    assert_eq!(
                        b.aggregates[k].to_bits(),
                        v.to_bits(),
                        "{backend:?} key {k:?}"
                    );
                }
            }
        }
    }

    /// Every recovery re-runs a plan the run already holds: with a lost
    /// batch and a lost store scheduled, no partitioner sees an interval
    /// twice.
    #[test]
    fn recovery_partitions_nothing() {
        use std::sync::Mutex;
        // Delegating probe: records every interval it is asked to partition
        // a second time.
        struct ProbePartitioner {
            inner: Box<dyn Partitioner>,
            seen: Vec<Interval>,
            again: Arc<Mutex<Vec<Interval>>>,
        }
        impl Partitioner for ProbePartitioner {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn partition_slice(
                &mut self,
                tuples: &[Tuple],
                interval: Interval,
                p: usize,
                columns: Columns,
            ) -> (PartitionPlan, PartitionPhases) {
                if self.seen.contains(&interval) {
                    self.again.lock().unwrap().push(interval);
                } else {
                    self.seen.push(interval);
                }
                self.inner.partition_slice(tuples, interval, p, columns)
            }
        }
        let again = Arc::new(Mutex::new(Vec::new()));
        let probe = ProbePartitioner {
            inner: Technique::Prompt.build(1),
            seen: Vec::new(),
            again: Arc::clone(&again),
        };
        let plan = FaultPlan::none().lose_once(2).lose_store_at(4);
        let mut eng = StreamingEngine::new(
            small_cfg(),
            Technique::Prompt,
            1,
            Job::identity("count", ReduceOp::Count),
        )
        .with_window(WindowSpec::sliding(
            Duration::from_secs(8),
            Duration::from_secs(1),
        ))
        .with_stateful(StatefulOp::SessionCount)
        .with_fault_tolerance(2, plan);
        eng.strategies
            .registry
            .insert(Technique::Prompt, Box::new(probe));
        let res = eng.run(&mut const_source(400, 8), 6);
        assert_eq!(res.recoveries, 1);
        let state = res.state.expect("state on");
        assert_eq!((state.restores, state.recomputed_batches), (1, 4));
        let again = again.lock().unwrap();
        assert!(again.is_empty(), "re-partitioned {again:?}");
    }

    /// The driver asks every partition for the columns its job reads: runs
    /// alone for a count under the identity map, runs and values for any
    /// other op and for a closure map, which may read a value. At depth 2
    /// too, where the partition runs on another thread.
    #[test]
    fn a_plan_carries_the_columns_its_job_reads() {
        use std::sync::Mutex;
        struct ColumnsProbe {
            inner: Box<dyn Partitioner>,
            asked: Arc<Mutex<Vec<Columns>>>,
        }
        impl Partitioner for ColumnsProbe {
            fn name(&self) -> &'static str {
                "columns"
            }
            fn partition_slice(
                &mut self,
                tuples: &[Tuple],
                interval: Interval,
                p: usize,
                columns: Columns,
            ) -> (PartitionPlan, PartitionPhases) {
                self.asked.lock().unwrap().push(columns);
                let (plan, phases) = self.inner.partition_slice(tuples, interval, p, columns);
                for block in &plan.blocks {
                    let want = if block.size() == 0 {
                        Columns::RunsAndValues
                    } else {
                        columns
                    };
                    assert_eq!(block.columns(), want);
                }
                (plan, phases)
            }
        }
        for (job, want) in [
            (Job::identity("c", ReduceOp::Count), Columns::Runs),
            (Job::identity("s", ReduceOp::Sum), Columns::RunsAndValues),
            (Job::identity("m", ReduceOp::Max), Columns::RunsAndValues),
            (
                Job::new("c", |_, v| Some(v), ReduceOp::Count),
                Columns::RunsAndValues,
            ),
        ] {
            for depth in [1, 2] {
                let asked = Arc::new(Mutex::new(Vec::new()));
                let probe = ColumnsProbe {
                    inner: Technique::Prompt.build(1),
                    asked: Arc::clone(&asked),
                };
                let cfg = EngineConfig {
                    pipeline_depth: depth,
                    ..small_cfg()
                };
                let mut eng = StreamingEngine::new(cfg, Technique::Prompt, 1, job.clone());
                eng.strategies
                    .registry
                    .insert(Technique::Prompt, Box::new(probe));
                eng.run(&mut const_source(400, 8), 4);
                let asked = asked.lock().unwrap();
                assert_eq!(*asked, [want; 4], "{job:?} at depth {depth}");
            }
        }
    }

    /// Delegating probe: counts every partition call (`partition` defaults
    /// to `partition_slice`).
    struct CountingPartitioner {
        inner: Box<dyn Partitioner>,
        calls: Arc<AtomicUsize>,
    }

    impl Partitioner for CountingPartitioner {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn partition_slice(
            &mut self,
            tuples: &[Tuple],
            interval: Interval,
            p: usize,
            columns: Columns,
        ) -> (PartitionPlan, PartitionPhases) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.partition_slice(tuples, interval, p, columns)
        }
    }

    /// An engine whose `technique` entry in the registry is a counting probe
    /// around the real partitioner, plus the probe's call counter.
    fn counting_engine(
        cfg: EngineConfig,
        technique: Technique,
    ) -> (StreamingEngine, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let probe = CountingPartitioner {
            inner: technique.build(1),
            calls: Arc::clone(&calls),
        };
        let job = Job::identity("count", ReduceOp::Count);
        let mut eng = StreamingEngine::new(cfg, Technique::Prompt, 1, job);
        eng.strategies.registry.insert(technique, Box::new(probe));
        (eng, calls)
    }

    /// Delegating probe: records the thread every batch is partitioned on.
    /// The serial fill and the overlapped step both enter through
    /// `partition_slice`; an interval seen before is not recorded.
    struct ThreadProbe {
        inner: Box<dyn Partitioner>,
        seen: Vec<Interval>,
        threads: Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>,
    }

    impl Partitioner for ThreadProbe {
        fn name(&self) -> &'static str {
            "thread-probe"
        }
        fn partition_slice(
            &mut self,
            tuples: &[Tuple],
            interval: Interval,
            p: usize,
            columns: Columns,
        ) -> (PartitionPlan, PartitionPhases) {
            if !self.seen.contains(&interval) {
                self.seen.push(interval);
                let here = std::thread::current().id();
                self.threads.lock().unwrap().push(here);
            }
            self.inner.partition_slice(tuples, interval, p, columns)
        }
    }

    /// Fig. 7's overlap is real: at depth 2 every batch after the first is
    /// partitioned on a second thread while the driver thread executes and
    /// commits the one before it, and a scheduled fault changes nothing of
    /// that — its recovery re-runs a plan at commit. Depth 1 partitions on
    /// the driver thread. The answers are the same either way.
    #[test]
    fn at_depth_two_the_next_batch_is_partitioned_off_the_driver_thread() {
        let run = |depth: usize, plan: FaultPlan| {
            let threads = Arc::new(std::sync::Mutex::new(Vec::new()));
            let probe = ThreadProbe {
                inner: Technique::Prompt.build(1),
                seen: Vec::new(),
                threads: Arc::clone(&threads),
            };
            let cfg = EngineConfig {
                backend: Backend::Threaded { threads: 2 },
                pipeline_depth: depth,
                ..small_cfg()
            };
            let job = Job::identity("count", ReduceOp::Count);
            let mut eng = StreamingEngine::new(cfg, Technique::Prompt, 1, job)
                .with_window(WindowSpec::sliding(
                    Duration::from_secs(3),
                    Duration::from_secs(1),
                ))
                .with_stateful(StatefulOp::SessionCount)
                .with_fault_tolerance(2, plan);
            eng.strategies
                .registry
                .insert(Technique::Prompt, Box::new(probe));
            let res = eng.run(&mut const_source(600, 12), 8);
            let driver = std::thread::current().id();
            let threads = threads.lock().unwrap();
            let off: Vec<bool> = threads.iter().map(|t| *t != driver).collect();
            (res, off)
        };
        let (serial, off) = run(1, FaultPlan::none());
        assert_eq!(off, [false; 8], "depth 1 partitions on the driver thread");
        let (overlapped, off) = run(2, FaultPlan::none());
        assert_eq!(off, [false, true, true, true, true, true, true, true]);
        assert_windows_identical(&serial, &overlapped, "depth 2 vs depth 1");
        // Batch 3 loses its state once; the store is lost at batch 5.
        let (faulted, off) = run(2, FaultPlan::none().lose_once(3));
        assert_eq!(off, [false, true, true, true, true, true, true, true]);
        assert_eq!(faulted.recoveries, 1);
        assert_windows_identical(&serial, &faulted, "a lost batch at depth 2 vs depth 1");
        let (restored, off) = run(2, FaultPlan::none().lose_store_at(5));
        assert_eq!(off, [false, true, true, true, true, true, true, true]);
        assert_eq!(restored.state.expect("state on").restores, 1);
        assert_windows_identical(&serial, &restored, "a lost store at depth 2 vs depth 1");
    }

    /// Delegating probe whose partition of every batch after the first
    /// sleeps 30 ms: the slow side of an overlapped step.
    struct SlowProbe(Box<dyn Partitioner>);

    impl Partitioner for SlowProbe {
        fn name(&self) -> &'static str {
            "slow-probe"
        }
        fn partition_slice(
            &mut self,
            tuples: &[Tuple],
            interval: Interval,
            p: usize,
            columns: Columns,
        ) -> (PartitionPlan, PartitionPhases) {
            if interval.start > Time::ZERO {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            self.0.partition_slice(tuples, interval, p, columns)
        }
    }

    /// A partition-bound overlapped step shows in the trace: the driver
    /// thread, done with the older batch long before the 30 ms partition,
    /// records its wait at the join as one `PartitionWait` phase per
    /// overlapped batch. Depth 1 joins nothing and records none.
    #[test]
    fn a_partition_bound_step_traces_the_driver_threads_wait_at_the_join() {
        let run = |depth: usize, trace: TraceLevel| {
            let cfg = EngineConfig {
                pipeline_depth: depth,
                trace,
                ..small_cfg()
            };
            let job = Job::identity("count", ReduceOp::Count);
            let mut eng = StreamingEngine::new(cfg, Technique::Prompt, 1, job);
            let probe = SlowProbe(Technique::Prompt.build(1));
            eng.strategies
                .registry
                .insert(Technique::Prompt, Box::new(probe));
            eng.run_traced(&mut const_source(400, 8), 5).1
        };
        let waits = |rec: &TraceRecorder| -> Vec<(u64, u64)> {
            (rec.events().iter())
                .filter_map(|e| match *e {
                    TraceEvent::Phase {
                        seq,
                        kind: StageKind::PartitionWait,
                        wall_us,
                    } => Some((seq, wall_us)),
                    _ => None,
                })
                .collect()
        };
        let overlapped = run(2, TraceLevel::Full);
        let waited = waits(&overlapped);
        let seqs: Vec<u64> = waited.iter().map(|&(seq, _)| seq).collect();
        assert_eq!(
            seqs,
            [1, 2, 3, 4],
            "one wait per batch partitioned beside an execute"
        );
        assert!(
            waited.iter().all(|&(_, us)| us >= 20_000),
            "the driver thread waits out the partition: {waited:?}"
        );
        let summary = run(2, TraceLevel::Summary).summary();
        let wall = summary
            .wall(StageKind::PartitionWait)
            .expect("kept at Summary");
        assert_eq!(wall.count, 4);
        assert!(wall.total_us >= 4 * 20_000, "{wall:?}");
        let serial = run(1, TraceLevel::Full);
        assert_eq!(waits(&serial), [], "depth 1 joins nothing");
        assert!(serial.summary().wall(StageKind::PartitionWait).is_none());
    }

    #[test]
    fn worker_loss_resubmits_the_plan_in_hand_without_repartitioning() {
        let window = WindowSpec::sliding(Duration::from_secs(3), Duration::from_secs(1));
        let run = |backend: Backend, faults: NetFaultPlan| {
            let cfg = EngineConfig {
                backend,
                ..small_cfg()
            };
            let (eng, calls) = counting_engine(cfg, Technique::Prompt);
            let mut eng = eng.with_window(window).with_net_faults(faults);
            let res = eng.run(&mut const_source(400, 8), 6);
            (res, calls.load(Ordering::Relaxed))
        };
        let (serial, serial_calls) = run(Backend::InProcess, NetFaultPlan::none());
        assert_eq!(serial_calls, 6);
        let dist = Backend::Distributed {
            workers: 3,
            base_port: 0,
        };
        for faults in [
            NetFaultPlan::none().kill_before(2, 1),
            NetFaultPlan::none().kill_after_map(2, 1),
        ] {
            let (res, calls) = run(dist, faults);
            assert_eq!(res.worker_losses, 1);
            assert_eq!(res.recoveries, 1);
            assert_eq!(
                calls, 6,
                "a stateful partitioner must see each batch exactly once: \
                 the loss retry resubmits the plan in hand"
            );
            assert_windows_identical(&serial, &res, "depth-1 worker loss vs serial");
        }
    }

    #[test]
    fn a_registered_partitioner_composes_with_a_policy_and_the_rebalancer() {
        use crate::rebalance::{RebalanceConfig, RebalanceSpec};
        // A custom instance is one more registry entry, so it runs under
        // everything a built-in technique does: here a forced policy picks
        // it (the constructor's technique never partitions) while the
        // rebalancer re-routes its batches.
        let cfg = EngineConfig {
            policy: PolicySpec::Forced(vec![Technique::Hash]),
            rebalance: RebalanceSpec::Auto(RebalanceConfig {
                n_groups: 16,
                ..RebalanceConfig::default()
            }),
            ..small_cfg()
        };
        let (eng, calls) = counting_engine(cfg, Technique::Hash);
        let mut eng = eng.with_window(WindowSpec::tumbling(Duration::from_secs(2)));
        let res = eng.run(&mut skewed_source(2000, 0.6, 30), 10);
        assert_eq!(calls.load(Ordering::Relaxed), 10, "one call per batch");
        assert!(res.batches.iter().all(|b| b.technique == Technique::Hash));
        assert_eq!(res.policy_decisions.len(), 10);
        assert!(!res.migrations.is_empty(), "a 60% hot key must migrate");
    }

    /// Every function of `src` as `(name, first line, lines)`. Relies on
    /// rustfmt layout (CI runs `cargo fmt --check`): an item's closing brace
    /// sits alone on a line at the indentation of its `fn`.
    fn functions_of<'s>(file: &str, src: &'s str) -> Vec<(&'s str, usize, Vec<&'s str>)> {
        let lines: Vec<&str> = src.lines().collect();
        let mut fns = Vec::new();
        for (start, line) in lines.iter().enumerate() {
            let item = line.trim_start();
            let indent = line.len() - item.len();
            let sig = item
                .trim_start_matches("pub(crate) ")
                .trim_start_matches("pub(super) ")
                .trim_start_matches("pub ");
            if !sig.starts_with("fn ") {
                continue;
            }
            let close = format!("{}}}", " ".repeat(indent));
            let len = lines[start..]
                .iter()
                .position(|l| *l == close)
                .unwrap_or_else(|| panic!("{file}:{}: unterminated fn", start + 1))
                + 1;
            let name = sig.split('(').next().unwrap_or(sig);
            fns.push((name, start + 1, lines[start..start + len].to_vec()));
        }
        assert!(
            !fns.is_empty(),
            "{file}: no functions found — scanner broken?"
        );
        fns
    }

    /// ROADMAP aim 2 ("one driver loop a reader can hold in their head"):
    /// the batch loop was a ~940-line function once; no function in the
    /// driver's modules may quietly regrow past 200 lines.
    #[test]
    fn driver_shape_no_function_exceeds_200_lines() {
        const LIMIT: usize = 200;
        for (file, src) in [
            ("driver.rs", include_str!("driver.rs")),
            ("driver/run.rs", include_str!("driver/run.rs")),
            ("backend.rs", include_str!("backend.rs")),
            ("kernel.rs", include_str!("kernel.rs")),
            ("stage.rs", include_str!("stage.rs")),
            ("threaded.rs", include_str!("threaded.rs")),
        ] {
            for (name, at, body) in functions_of(file, src) {
                let len = body.len();
                assert!(
                    len <= LIMIT,
                    "{file}:{at}: `{name}` is {len} lines (limit {LIMIT}); split it into named steps"
                );
            }
        }
    }

    /// Every `.rs` under `dir`, as `(path, source)`.
    fn sources_under(dir: &std::path::Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                sources_under(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).expect("readable source");
                out.push((path.display().to_string(), src));
            }
        }
    }

    /// Shape guard for the execution layer: the engine runs rows only
    /// (`engine_shape_one_data_layout`). Outside its test module no engine
    /// source may grow a `*_columnar` function again beyond the two adapters
    /// `benchmark/` pins; and
    /// assigners are shared references — Algorithm 3 is a pure function of one
    /// Map task's output, so outside test modules no core or engine source
    /// names a mutable assigner, a run-global task counter, an assignment
    /// cache, a per-window assigner lookup or a stage that waits for a turn
    /// at the assigner. The fleet assigns where the assigner lives, at submit,
    /// from the plan's fragment tables (DESIGN §4e): no key-table codec, no
    /// assigner handed to the wait, no second submit spelling, and under
    /// `net/` one function calls the assignment kernel.
    #[test]
    fn engine_shape_one_assign_site_and_no_columnar_twins() {
        const COLUMNAR_FNS: [&str; 2] = ["execute_columnar_traced", "encode_map_task_columnar"];
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let (mut engine, mut files) = (Vec::new(), Vec::new());
        sources_under(&manifest.join("src"), &mut engine);
        sources_under(&manifest.join("../core/src"), &mut files);
        assert!(engine.len() > 20 && files.len() > 20, "scanner broken?");
        // Spelt in halves so a grep for a needle finds only real uses.
        let stateful = [
            ["&mut dyn Reduce", "Assigner"].concat(),
            ["task_", "counter"].concat(),
            ["assign_", "cache"].concat(),
            ["Batch", "Assigners"].concat(),
            ["Window", "Assigners"].concat(),
            ["Wait", "Assign"].concat(),
            ["Drain", "ing"].concat(),
            ["assigner", "_of"].concat(),
            ["key_counts", "_compact"].concat(),
            ["fn submit", "_batch"].concat(),
        ];
        let kernel_call = ["assign_", "block("].concat();
        let (mut twins, mut fleet_assigns) = (Vec::new(), Vec::new());
        for (file, src) in &engine {
            let lines = src.lines().take_while(|l| *l != "#[cfg(test)]");
            let mut inside = "";
            for (n, line) in lines.enumerate() {
                if file.contains("/net/") && line.contains(&kernel_call) {
                    fleet_assigns.push(inside);
                }
                if let Some(sig) = line.split("fn ").nth(1) {
                    let name = sig.split(['(', '<']).next().unwrap_or(sig);
                    inside = name;
                    let snake = name.chars().all(|c| c.is_ascii_lowercase() || c == '_');
                    if snake && name.ends_with("_columnar") && !COLUMNAR_FNS.contains(&name) {
                        twins.push(format!("{file}:{}", n + 1));
                    }
                }
            }
        }
        assert!(twins.is_empty(), "layout twins regrew: {twins:?}");
        assert_eq!(fleet_assigns, ["dispatch_maps"], "fleet assignment sites");
        files.append(&mut engine);
        for (file, src) in &files {
            let lines = src.lines().take_while(|l| *l != "#[cfg(test)]");
            for (n, line) in lines.enumerate() {
                for needle in &stateful {
                    assert!(!line.contains(needle), "{file}:{}: `{needle}`", n + 1);
                }
            }
        }
    }

    /// Shape guard for the fleet's readiness (DESIGN §4e): a worker acks a
    /// block once it is filed, so a fetch is one exchange with a source that
    /// already holds the batch. Outside test modules nothing under `net/`
    /// parks a fetch, re-asks a source, or counts blocks still unfiled.
    #[test]
    fn engine_shape_an_ack_means_filed_and_no_fetch_parks() {
        let mut files = Vec::new();
        let net_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/net");
        sources_under(&net_dir, &mut files);
        assert!(files.len() >= 4, "scanner broken? {} files", files.len());
        // Spelt in halves so a grep for a needle finds only real uses.
        let needles = [
            ["Cond", "var"].concat(),
            ["fetch", "_wait"].concat(),
            ["FETCH", "_PARK"].concat(),
            ["PARK", "_SLICE"].concat(),
            ["NOT", "_READY"].concat(),
            ["pending", "_blocks"].concat(),
            ["begin", "_block"].concat(),
            ["wait", "ers"].concat(),
        ];
        for (file, src) in &files {
            let lines = src.lines().take_while(|l| *l != "#[cfg(test)]");
            for (n, line) in lines.enumerate() {
                for needle in &needles {
                    assert!(!line.contains(needle), "{file}:{}: `{needle}`", n + 1);
                }
            }
        }
    }

    /// Shape guard for what the fleet lets a caller set (DESIGN §4e): the
    /// worker count, the control port and the launch mode. Its timings are
    /// constants, so no production line of the engine names a retry policy,
    /// a heartbeat or deadline setting or a worker-path option, and the
    /// transport is the crate's own: no `pub use` exports its connection,
    /// pool or byte-ledger types, and its module is not public.
    #[test]
    fn engine_shape_the_fleet_keeps_only_what_a_caller_sets() {
        let mut files = Vec::new();
        let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        sources_under(&src_dir, &mut files);
        assert!(files.len() > 20, "scanner broken? {} files", files.len());
        // Spelt in halves so a grep for a needle finds only real uses.
        let settings = [
            ["Retry", "Policy"].concat(),
            ["heartbeat", "_interval"].concat(),
            ["heartbeat", "_timeout"].concat(),
            ["io", "_timeout"].concat(),
            ["worker", "_bin"].concat(),
        ];
        let transport_types = [
            ["Conn", "Pool"].concat(),
            ["Frame", "Conn"].concat(),
            ["Net", "Counters"].concat(),
        ];
        let public_transport = ["pub mod ", "transport"].concat();
        let is_word = |c: char| c.is_alphanumeric() || c == '_';
        for (file, src) in &files {
            let production: Vec<&str> = src.lines().take_while(|l| *l != "#[cfg(test)]").collect();
            for (n, line) in production.iter().enumerate() {
                for needle in &settings {
                    let named = line.match_indices(needle.as_str()).any(|(at, _)| {
                        let before = line[..at].chars().next_back();
                        let after = line[at + needle.len()..].chars().next();
                        !before.is_some_and(is_word) && !after.is_some_and(is_word)
                    });
                    assert!(!named, "{file}:{}: `{needle}`", n + 1);
                }
            }
            let production = production.join("\n");
            assert!(
                !production.contains(&public_transport),
                "{file}: the transport is public"
            );
            for (at, _) in production.match_indices("pub use ") {
                let export = production[at..].split(';').next().unwrap_or_default();
                for ty in &transport_types {
                    assert!(
                        !export.contains(ty.as_str()),
                        "{file}: `{export}` exports `{ty}`"
                    );
                }
            }
        }
    }

    /// Shape guard for what a batch carries (DESIGN §4h): one technique,
    /// resolved through the one strategy set, and one row plan. Outside its
    /// test modules no engine source names an optional technique, a
    /// constructor that takes strategy instances, a row re-rendering of a
    /// columnar plan — but in the benchmark's columnar adapter
    /// (`stage::execute_columnar_traced`), which renders its argument once
    /// and runs the row executor — or a second slice-partitioning entry
    /// point.
    #[test]
    fn engine_shape_one_technique_and_one_plan_per_batch() {
        let mut files = Vec::new();
        let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        sources_under(&src_dir, &mut files);
        assert!(files.len() > 20, "scanner broken? {} files", files.len());
        // Spelt in halves so a grep for a needle finds only real uses.
        let needles = [
            ["Option<", "Technique>"].concat(),
            ["with", "_parts"].concat(),
            [".to_row", "_plan("].concat(),
            ["partition", "_shared"].concat(),
        ];
        for (file, src) in &files {
            let lines: Vec<&str> = src.lines().take_while(|l| *l != "#[cfg(test)]").collect();
            let adapter = pinned_lines(file, &lines);
            for (n, line) in lines.iter().enumerate() {
                for needle in &needles {
                    // The pinned columnar adapter renders its argument as rows.
                    let pinned = adapter.contains(&n) && *needle == needles[2];
                    assert!(
                        pinned || !line.contains(needle),
                        "{file}:{}: `{needle}`",
                        n + 1
                    );
                }
            }
        }
    }

    /// The two columnar adapters `benchmark/` compiles against:
    /// `(file suffix, fn name)`.
    const PINNED_ADAPTERS: [(&str, &str); 2] = [
        ("/stage.rs", "fn execute_columnar_traced"),
        ("/net/wire.rs", "fn encode_map_task_columnar"),
    ];

    /// The 0-based indices of `lines` (a file's production half) that belong
    /// to a pinned columnar adapter: its doc comment, attributes and body.
    fn pinned_lines(file: &str, lines: &[&str]) -> Vec<usize> {
        let pinned = PINNED_ADAPTERS.iter().filter(|(f, _)| file.ends_with(f));
        let mut at = Vec::new();
        for (_, name) in pinned {
            let src = lines.join("\n");
            let fns = functions_of(file, &src);
            let (_, start, body) = (fns.iter())
                .find(|(n, ..)| n == name)
                .unwrap_or_else(|| panic!("{file}: no `{name}`"));
            let mut first = start - 1;
            while first > 0 && {
                let above = lines[first - 1].trim_start();
                above.starts_with("///") || above.starts_with("#[")
            } {
                first -= 1;
            }
            at.extend(first..start - 1 + body.len());
        }
        at
    }

    /// Whether `line` holds `ident` with no identifier character right
    /// before it (`FaultPlan::` does not name `Plan::`).
    fn names(line: &str, ident: &str) -> bool {
        line.match_indices(ident).any(|(at, _)| {
            let before = line[..at].chars().next_back();
            !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
    }

    /// Shape guard for the data layout (ROADMAP aim 2): the engine
    /// partitions, executes, costs and encodes every batch in rows. Outside
    /// their test modules no engine source names a plan-layout view, a
    /// two-layout plan enum, a columnar plan, the columnar partition entry
    /// point or the config's deprecated `columnar` flag — but the two
    /// adapters `benchmark/` pins ([`PINNED_ADAPTERS`]) and the flag's own
    /// declaration in `config.rs`. Core's partitioner declares no
    /// two-layout plan, its spare keeps no column buffers, and a plan is
    /// handed back as rows.
    #[test]
    fn engine_shape_one_data_layout() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut engine = Vec::new();
        sources_under(&manifest.join("src"), &mut engine);
        assert!(engine.len() > 20, "scanner broken? {} files", engine.len());
        // Spelt in halves so a grep for a needle finds only real uses.
        let idents = [
            ["Plan", "View"].concat(),
            ["Plan", "::"].concat(),
            ["Columnar", "Plan"].concat(),
        ];
        let calls = [
            [".partition", "_columnar("].concat(),
            ["cfg.", "columnar"].concat(),
        ];
        for (file, src) in &engine {
            let lines: Vec<&str> = src.lines().take_while(|l| *l != "#[cfg(test)]").collect();
            let pinned = pinned_lines(file, &lines);
            for (n, line) in lines.iter().enumerate() {
                if pinned.contains(&n) {
                    continue;
                }
                for ident in &idents {
                    assert!(!names(line, ident), "{file}:{}: `{ident}`", n + 1);
                }
                for call in &calls {
                    assert!(!line.contains(call), "{file}:{}: `{call}`", n + 1);
                }
            }
        }
        let partitioner = std::fs::read_to_string(manifest.join("../core/src/partitioner/mod.rs"))
            .expect("readable core source");
        let production: Vec<&str> = (partitioner.lines())
            .take_while(|l| *l != "#[cfg(test)]")
            .collect();
        let (plan_enum, spare) = (["enum ", "Plan"].concat(), ["struct ", "Spare"].concat());
        for (n, line) in production.iter().enumerate() {
            let declares = line.match_indices(&plan_enum).any(|(at, _)| {
                let next = line[at + plan_enum.len()..].chars().next();
                !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
            });
            assert!(!declares, "partitioner/mod.rs:{}: `{plan_enum}`", n + 1);
        }
        let fields: Vec<&str> = (production.iter())
            .skip_while(|l| !l.contains(&spare))
            .take_while(|l| **l != "}")
            .copied()
            .collect();
        assert!(!fields.is_empty(), "no `Spare` in partitioner/mod.rs");
        let columns = ["Columnar", "Block"].concat();
        let arena = ["Columnar", "Batch"].concat();
        assert!(
            fields
                .iter()
                .all(|l| !l.contains(&columns) && !l.contains(&arena)),
            "the spare keeps column buffers: {fields:?}"
        );
        let recycle = ["fn recycle(&mut self, plan: ", "PartitionPlan)"].concat();
        assert!(
            production.iter().any(|l| l.contains(&recycle)),
            "`Partitioner::recycle` takes no row plan"
        );
    }

    /// What survives of sharded ingest, each as `(file under core's src,
    /// its function, the file that compiles against it)`: the end-to-end
    /// benchmark's hand pipeline times a sharded count tree and builds its
    /// partitioner through the old three-argument constructor. Each goes
    /// with the `[benchmark]` change that stops calling it (ROADMAP item 1).
    const PINNED_INGEST_ADAPTERS: [(&str, &str, &str); 3] = [
        (
            "buffering/sharded.rs",
            "ShardedAccumulator::new(",
            "benchmark/src/trace.rs",
        ),
        (
            "buffering/sharded.rs",
            ".par_ingest(",
            "benchmark/src/trace.rs",
        ),
        (
            "partitioner/prompt.rs",
            "PromptPartitioner::with_parallelism(",
            "benchmark/src/trace.rs",
        ),
    ];

    /// Shape guard for the batching phase (ROADMAP item 26): one serial
    /// accumulator per batch, and the backend's width the partitioner's
    /// only one. No production line of core or engine reads the deprecated
    /// `ingest_shards` / `ingest_threads`, but their declarations and
    /// `Default` in `config.rs`; the strategy pool, the registry and
    /// `Technique`'s builder take no shard count; no exact shards are left,
    /// and neither the engine nor core's partitioners name the sharded
    /// accumulator. What is left of it is [`PINNED_INGEST_ADAPTERS`], each
    /// still called where the list says.
    #[test]
    fn engine_shape_one_serial_accumulator() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let core = manifest.join("../core/src");
        let mut sources = Vec::new();
        sources_under(&manifest.join("src"), &mut sources);
        sources_under(&core, &mut sources);
        assert!(
            sources.len() > 40,
            "scanner broken? {} files",
            sources.len()
        );
        let production = |src: &str| -> Vec<String> {
            (src.lines())
                .take_while(|l| *l != "#[cfg(test)]")
                .map(str::to_string)
                .collect()
        };
        // Spelt in halves so a grep for a needle finds only real uses.
        let knobs = [
            ["ingest", "_shards"].concat(),
            ["ingest", "_threads"].concat(),
        ];
        let sharded = ["Sharded", "Accumulator"].concat();
        for (file, src) in &sources {
            let lines = production(src);
            for (n, line) in lines.iter().enumerate() {
                for knob in &knobs {
                    if !line.contains(knob.as_str()) {
                        continue;
                    }
                    let declared = [
                        format!("    pub {knob}: usize,"),
                        format!("            {knob}: 1,"),
                    ];
                    assert!(
                        file.ends_with("/config.rs") && declared.contains(line),
                        "{file}:{}: reads `{knob}`",
                        n + 1
                    );
                }
                let partitioner = file.contains("/partitioner/");
                let engine = file.contains("/engine/src/");
                assert!(
                    !((partitioner || engine) && line.contains(&sharded)),
                    "{file}:{}: `{sharded}` on the engine's path",
                    n + 1
                );
            }
        }
        let read = |rel: &str| {
            production(&std::fs::read_to_string(core.join(rel)).expect("readable core source"))
        };
        let sharded_src = read("buffering/sharded.rs");
        let exact = ["pub fn ", "exact("].concat();
        assert!(
            !sharded_src.iter().any(|l| l.contains(&exact)),
            "exact shards are back"
        );
        let driver = production(include_str!("driver.rs"));
        let partitioner = read("partitioner/mod.rs");
        for (lines, signature) in [
            (&driver, "fn new(seed: u64, threads: usize) -> StrategySet"),
            (
                &partitioner,
                "pub fn with_parallelism(seed: u64, threads: usize)",
            ),
            (
                &partitioner,
                "pub fn build_with_parallelism(&self, seed: u64, threads: usize)",
            ),
        ] {
            assert!(
                lines.iter().any(|l| l.contains(signature)),
                "no `{signature}`"
            );
        }
        let shards = ["shards", ":"].concat();
        for (name, lines) in [("driver.rs", &driver), ("partitioner/mod.rs", &partitioner)] {
            for (n, line) in lines.iter().enumerate() {
                assert!(!line.contains(&shards), "{name}:{}: `{shards}`", n + 1);
            }
        }
        for (file, call, caller) in PINNED_INGEST_ADAPTERS {
            let name = call
                .trim_end_matches('(')
                .rsplit(['.', ':'])
                .next()
                .expect("a name");
            let declared = format!("pub fn {name}(");
            assert!(
                read(file).iter().any(|l| l.contains(&declared)),
                "{file}: no `{declared}`"
            );
            let caller_src = std::fs::read_to_string(manifest.join("../..").join(caller))
                .unwrap_or_else(|e| panic!("{caller}: {e}"));
            assert!(
                caller_src.contains(call),
                "{caller} no longer calls `{call}`: delete the adapter and its pin"
            );
        }
    }

    /// Shape guard for what crosses the seal (DESIGN §4e): the timestamp
    /// serves batching alone (§4.1), so after the seal a tuple is its value.
    /// A `DataBlock` holds no `Tuple` — its values under key runs — the Map
    /// takes a key and a value, and no production line of the Map, shuffle
    /// and Reduce kernels, the local executor or the fleet reads a `.ts`.
    #[test]
    fn engine_shape_nothing_after_the_seal_reads_a_timestamp() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let batch = std::fs::read_to_string(manifest.join("../core/src/batch.rs"))
            .expect("readable core source");
        let block: Vec<&str> = (batch.lines())
            .skip_while(|l| !l.starts_with("pub struct DataBlock {"))
            .take_while(|l| *l != "}")
            .collect();
        assert!(block.len() > 2, "no `DataBlock` in batch.rs");
        assert!(
            block.iter().all(|l| !l.contains("Tuple")),
            "a DataBlock holds tuples: {block:?}"
        );
        let map_fn = include_str!("job.rs")
            .lines()
            .find(|l| l.starts_with("pub type MapFn"));
        assert!(
            map_fn.is_some_and(|l| l.contains("dyn Fn(Key, f64) -> Option<f64>")),
            "the Map is not `(Key, f64)`: {map_fn:?}"
        );
        let mut files = vec![
            (
                "kernel.rs".to_string(),
                include_str!("kernel.rs").to_string(),
            ),
            ("stage.rs".to_string(), include_str!("stage.rs").to_string()),
            (
                "threaded.rs".to_string(),
                include_str!("threaded.rs").to_string(),
            ),
        ];
        sources_under(&manifest.join("src/net"), &mut files);
        assert!(files.len() >= 7, "scanner broken? {} files", files.len());
        let field = ".ts";
        for (file, src) in &files {
            let lines = src.lines().take_while(|l| *l != "#[cfg(test)]");
            for (n, line) in lines.enumerate() {
                let reads = line.match_indices(field).any(|(at, _)| {
                    let next = line[at + field.len()..].chars().next();
                    !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
                });
                assert!(!reads, "{file}:{}: reads a timestamp: {line}", n + 1);
            }
        }
    }

    /// Shape guard for what a block is: every technique builds it as one run
    /// per key, keys strictly ascending, so its runs are its fragment table
    /// and the Map has one walk. `DataBlock` holds no second, fragment
    /// table; no production line of the kernel, the local executor or the
    /// worker names a fold table (`Fold`); and the Map is one function
    /// (`map_block`) that names no per-key table (`KeyMap`) — the Reduce's
    /// merge table is the kernel's one.
    #[test]
    fn engine_shape_one_block_shape_one_map_walk() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let batch = std::fs::read_to_string(manifest.join("../core/src/batch.rs"))
            .expect("readable core source");
        let block: Vec<&str> = (batch.lines())
            .skip_while(|l| !l.starts_with("pub struct DataBlock {"))
            .take_while(|l| *l != "}")
            .collect();
        assert!(block.len() > 2, "no `DataBlock` in batch.rs");
        let field = ["pub frag", "ments:"].concat();
        assert!(
            block.iter().all(|l| !l.contains(&field)),
            "a DataBlock holds a fragment table: {block:?}"
        );
        // Spelt in halves so a grep for a needle finds only real uses.
        let (fold, key_map) = (["Fo", "ld"].concat(), ["Key", "Map"].concat());
        let production = |src: &'static str| -> Vec<&'static str> {
            src.lines().take_while(|l| *l != "#[cfg(test)]").collect()
        };
        for (file, src) in [
            ("kernel.rs", include_str!("kernel.rs")),
            ("threaded.rs", include_str!("threaded.rs")),
            ("net/worker.rs", include_str!("net/worker.rs")),
        ] {
            for (n, line) in production(src).iter().enumerate() {
                assert!(!line.contains(&fold), "{file}:{}: `{fold}`", n + 1);
            }
        }
        // Each Map function, from its signature to its closing brace.
        let kernel = production(include_str!("kernel.rs"));
        let signatures = [
            ["fn map_", "block("].concat(),
            ["fn map_", "runs("].concat(),
        ];
        let mut walks = 0;
        for (start, line) in kernel.iter().enumerate() {
            let body = line.trim_start();
            if !signatures.iter().any(|s| body.contains(s)) {
                continue;
            }
            walks += 1;
            let close = format!("{}}}", &line[..line.len() - body.len()]);
            let len = kernel[start..].iter().position(|l| *l == close);
            let len = len.expect("a Map function ends");
            for (n, line) in kernel[start..=start + len].iter().enumerate() {
                let at = start + n + 1;
                assert!(!line.contains(&key_map), "kernel.rs:{at}: `{key_map}`");
            }
        }
        assert_eq!(walks, 1, "one Map walk: `map_block`");
    }

    /// Shape guard for the staleness contract (DESIGN §4h): a batch carries
    /// what it was prepared under, so there is no depth clamp to regrow and no
    /// routing table shared behind a lock between the step that decides and
    /// the steps that read; and the driver's store is the only copy of keyed
    /// state (DESIGN §4f), so no production line ships state to the fleet or
    /// waits for an ack of it — the in-flight window is the event pump's one
    /// wait mode — and its shard count is its own, so none re-shards it or
    /// forces a snapshot commit, and nothing under `state/` knows the Reduce
    /// task count. A lost batch re-runs the plan it carries (DESIGN §4e): no
    /// fault barrier, no store of retained inputs, and in the driver only
    /// `run::partition` calls a partitioner. A batch goes on the wire where
    /// it is executed, not where it is prepared: `BackendRuntime` has no
    /// submit of its own, and the fleet's submit is called only from
    /// `BackendRuntime::execute` and the fleet's one-batch `execute_batch`.
    #[test]
    fn engine_shape_no_depth_clamp_no_shared_routing_no_state_push() {
        let mut files = Vec::new();
        let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        sources_under(&src_dir, &mut files);
        assert!(files.len() > 20, "scanner broken? {} files", files.len());
        // Spelt in halves so this test's own source does not match.
        let clamp = ["effective", "_depth"].concat();
        let locked_table = ["Mutex<", "RoutingTable>"].concat();
        let shipment = [
            ["State", "Push"].concat(),
            ["Group", "Push"].concat(),
            ["State", "Ack"].concat(),
            ["push", "_state"].concat(),
            ["Pending", "Acks"].concat(),
            ["encode", "_group"].concat(),
            ["encode", "_shard"].concat(),
            ["fn mig", "rate"].concat(),
            ["snapshot", "_now"].concat(),
            ["install", "_shards"].concat(),
            ["State", "Migrate"].concat(),
            ["fault", "_barrier"].concat(),
            ["Replicated", "BatchStore"].concat(),
            ["Recovery", "Error"].concat(),
            ["restore", "_times"].concat(),
            ["Arc<[", "Tuple]>"].concat(),
        ];
        let partitioner_calls = [".partition(", ".partition_slice("];
        let mut partitions = Vec::new();
        let task_count = ["reduce", "_tasks"].concat();
        let (submit_fn, submit_call) = (["fn sub", "mit"].concat(), [".sub", "mit("].concat());
        for (file, src) in &files {
            for (n, line) in src.lines().enumerate() {
                assert!(!line.contains(&clamp), "{file}:{}: depth clamp", n + 1);
                assert!(
                    !line.contains(&locked_table),
                    "{file}:{}: routing table behind a lock",
                    n + 1
                );
            }
            let production = src.lines().take_while(|l| *l != "#[cfg(test)]");
            for (n, line) in production.enumerate() {
                for needle in &shipment {
                    assert!(!line.contains(needle), "{file}:{}: `{needle}`", n + 1);
                }
            }
            if file.contains("/state/") {
                for (n, line) in src.lines().enumerate() {
                    assert!(
                        !line.contains(&task_count),
                        "{file}:{}: `{task_count}`",
                        n + 1
                    );
                }
            }
            if file.ends_with("driver.rs") || file.contains("/driver/") {
                let production: Vec<&str> =
                    src.lines().take_while(|l| *l != "#[cfg(test)]").collect();
                let production = production.join("\n");
                for (name, _, body) in functions_of(file, &production) {
                    let calls = body
                        .iter()
                        .any(|l| partitioner_calls.iter().any(|c| l.contains(c)));
                    if calls {
                        let short = file.rsplit("/src/").next().unwrap_or(file);
                        partitions.push(format!("{short}: {name}"));
                    }
                }
            }
            let production: Vec<&str> = src.lines().take_while(|l| *l != "#[cfg(test)]").collect();
            if file.ends_with("backend.rs") {
                assert!(
                    !production.iter().any(|l| l.contains(&submit_fn)),
                    "{file}: `BackendRuntime` dispatches outside `execute`"
                );
            }
            if production.iter().any(|l| l.contains(&submit_call)) {
                for (name, _, body) in functions_of(file, &production.join("\n")) {
                    let sends = body.iter().any(|l| l.contains(&submit_call));
                    let dispatch_site = (file.ends_with("backend.rs")
                        && name.starts_with("fn execute"))
                        || (file.ends_with("net/driver.rs") && name == "fn execute_batch");
                    assert!(
                        !sends || dispatch_site,
                        "{file}: `{name}` puts a batch on the wire outside `BackendRuntime::execute`"
                    );
                }
            }
        }
        assert_eq!(
            partitions,
            ["driver/run.rs: fn partition"],
            "partitioner calls"
        );
    }

    /// Shape guard for the local execution path (DESIGN §4): `InProcess` is
    /// `Threaded` at one thread, so there is one local executor — the only
    /// function outside `net/` that strings Map, assign and Reduce together —
    /// behind one `BackendRuntime` variant, and index-parallel loops go
    /// through the one fan-out primitive (`prompt_core::par`) and its
    /// persistent pool: core starts no scoped thread, and spawns threads only
    /// in `par.rs`. Core and engine production code hold exactly two
    /// `unsafe` sites, each under a `// SAFETY:` invariant: `par.rs`'s one
    /// lifetime erasure and the prefetch hint in `buffering/mod.rs`, which is
    /// also the only user of the platform intrinsics.
    #[test]
    fn engine_shape_one_local_executor_one_fan_out() {
        fn production(src: &str) -> String {
            let lines = src.lines().take_while(|l| *l != "#[cfg(test)]");
            lines.collect::<Vec<_>>().join("\n")
        }
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let (mut engine, mut core) = (Vec::new(), Vec::new());
        sources_under(&manifest.join("src"), &mut engine);
        sources_under(&manifest.join("../core/src"), &mut core);
        assert!(engine.len() > 20 && core.len() > 20, "scanner broken?");

        for (file, src) in [
            ("stage.rs", include_str!("stage.rs")),
            ("threaded.rs", include_str!("threaded.rs")),
            ("backend.rs", include_str!("backend.rs")),
        ] {
            let hand_rolled = production(src).contains("thread::scope");
            assert!(!hand_rolled, "{file}: a fan-out of its own");
        }
        // Spelt in halves so a grep for a needle finds only real uses.
        let (scoped, spawn, unsafe_) = (["thread::", "scope"], ["spa", "wn("], ["un", "safe"]);
        let (scoped, spawn, unsafe_) = (scoped.concat(), spawn.concat(), unsafe_.concat());
        for (file, src) in &core {
            let src = production(src);
            assert!(!src.contains(&scoped), "{file}: a scoped thread in core");
            let spawns = src.contains(&spawn);
            assert!(
                !spawns || file.ends_with("par.rs"),
                "{file}: a thread off the pool"
            );
        }
        let mut erasures = Vec::new();
        for (file, src) in core.iter().chain(&engine) {
            let lines: Vec<&str> = src.lines().take_while(|l| *l != "#[cfg(test)]").collect();
            for n in (0..lines.len()).filter(|&n| lines[n].contains(&unsafe_)) {
                // The comment block right above it opens with the invariant.
                let above = lines[..n]
                    .iter()
                    .rev()
                    .take_while(|l| l.trim().starts_with("//"));
                let justified = above
                    .last()
                    .is_some_and(|l| l.trim().starts_with("// SAFETY:"));
                erasures.push((format!("{file}:{}", n + 1), justified));
            }
        }
        let sites: Vec<&str> = (erasures.iter())
            .map(|(site, _)| site.rsplit_once(':').map_or(&site[..], |(file, _)| file))
            .collect();
        assert!(
            sites.len() == 2
                && sites[0] != sites[1]
                && (sites.iter())
                    .all(|f| f.ends_with("/par.rs") || f.ends_with("/buffering/mod.rs")),
            "`{unsafe_}` in production code: {erasures:?}"
        );
        assert!(
            erasures.iter().all(|(_, justified)| *justified),
            "no `// SAFETY:` comment above it: {erasures:?}"
        );
        // The prefetch hint is the one use of the platform's intrinsics.
        let arch = ["std::", "ar", "ch"].concat();
        for (file, src) in core.iter().chain(&engine) {
            let uses = production(src).contains(&arch);
            assert!(
                !uses || file.ends_with("/buffering/mod.rs"),
                "{file}: `{arch}` outside the prefetch hint"
            );
        }

        // Outside `net/` a thread starts in two places: the batch loop's
        // overlapped step (partition beside execute + commit) and the
        // checkpoint compactor, which outlives every batch. The source is
        // read on the driver thread, so `TupleSource` carries no `Send`.
        let starts = [
            ["thread::", "scope("].concat(),
            ["thread::", "spawn("].concat(),
            ["thread::", "Builder"].concat(),
        ];
        let mut sites = Vec::new();
        for (file, src) in engine.iter().filter(|(f, _)| !f.contains("/net/")) {
            let src = production(src);
            let lines: Vec<&str> = src.lines().collect();
            for n in (0..lines.len()).filter(|&n| starts.iter().any(|s| lines[n].contains(s))) {
                let fns = functions_of(file, &src);
                let enclosing = (fns.iter().rev())
                    .find(|(_, at, body)| *at <= n + 1 && n + 1 < at + body.len())
                    .map_or("(no fn)", |(name, ..)| *name);
                let file = &file[file.find("/src/").expect("under src/") + 5..];
                sites.push(format!("{file}: {enclosing}"));
            }
        }
        sites.sort();
        assert_eq!(
            sites,
            ["driver.rs: fn overlapped", "state/checkpoint.rs: fn spawn"],
            "thread starts outside net/"
        );
        let (_, source) = (core.iter())
            .find(|(file, _)| file.ends_with("/source.rs"))
            .expect("core's source.rs");
        let unbounded = production(source).contains("\npub trait TupleSource {\n");
        assert!(unbounded, "TupleSource gained a bound");
        for (file, src) in core.iter().chain(&engine) {
            for bound in ["TupleSource + Send", "TupleSource + Sync"] {
                assert!(!production(src).contains(bound), "{file}: `{bound}`");
            }
        }

        let mut executors = Vec::new();
        for (file, src) in engine.iter().filter(|(f, _)| !f.contains("/net/")) {
            let src = production(src);
            if !src.contains("assign_block(") {
                continue;
            }
            for (name, _, body) in functions_of(file, &src) {
                let calls = |callee: &str| body.iter().any(|l| l.contains(callee));
                if calls("map_block(") && calls("assign_block(") && calls("merge_bucket(") {
                    executors.push(format!("{file}: {name}"));
                }
            }
        }
        assert_eq!(executors.len(), 1, "Map → assign → Reduce in {executors:?}");
        assert!(
            executors[0].ends_with("threaded.rs: fn execute_plan"),
            "{executors:?}"
        );

        let backend = production(include_str!("backend.rs"));
        let variants = (backend.lines())
            .skip_while(|l| !l.contains("enum BackendRuntime {"))
            .take_while(|l| *l != "}")
            .filter(|l| l.starts_with("    ") && l[4..].starts_with(char::is_uppercase))
            .count();
        assert_eq!(variants, 2, "BackendRuntime variants");
        let fns = functions_of("backend.rs", &backend);
        let (_, _, execute) = (fns.iter())
            .find(|(name, ..)| name.starts_with("fn execute"))
            .expect("BackendRuntime::execute");
        let arms = execute
            .iter()
            .filter(|l| l.trim_start().starts_with("BackendRuntime::") && l.contains("=>"));
        assert_eq!(arms.count(), 2, "one `execute` arm per variant");
    }

    /// `BatchRecord::n_keys` comes from the plan's fragment lists and split-key
    /// table (`total_keys`) instead of a hashing pass over the input; the two
    /// must agree on an empty, a one-key and a skewed batch, for every
    /// technique.
    #[test]
    fn n_keys_is_the_input_batch_distinct_key_count() {
        let mut source = |iv: Interval, out: &mut Vec<Tuple>| {
            let seq = iv.start.0 / iv.len().0;
            let n = [0u64, 50, 4000][seq as usize % 3];
            for i in 0..n {
                // Batch 1: one key. Batch 2: skewed towards the small keys.
                let key = if seq % 3 == 1 { 9 } else { i % (1 + i % 97) };
                out.push(Tuple::keyed(Time(iv.start.0 + 1 + i), Key(key)));
            }
        };
        let expected: Vec<usize> = (0..3u64)
            .map(|seq| {
                let iv = Interval::new(Time(seq * 1_000_000), Time((seq + 1) * 1_000_000));
                let mut tuples = Vec::new();
                source.fill(iv, &mut tuples);
                MicroBatch::new(tuples, iv).distinct_keys()
            })
            .collect();
        assert_eq!(expected[..2], [0, 1]);
        assert!(expected[2] > 50, "skewed batch too narrow: {expected:?}");
        let mut techniques = Technique::EVALUATION_SET.to_vec();
        techniques.extend([Technique::DChoices(5), Technique::PromptCountTree]);
        for technique in techniques {
            let job = Job::identity("count", ReduceOp::Count);
            let res = StreamingEngine::new(small_cfg(), technique, 1, job).run(&mut source, 3);
            let n_keys: Vec<usize> = res.batches.iter().map(|b| b.n_keys).collect();
            assert_eq!(n_keys, expected, "{technique:?}");
        }
    }

    #[test]
    fn steady_state_mean_uses_second_half() {
        let mut eng = StreamingEngine::new(
            small_cfg(),
            Technique::Hash,
            1,
            Job::identity("count", ReduceOp::Count),
        );
        let res = eng.run(&mut const_source(100, 5), 8);
        let mean = res.steady_state_mean(|b| b.n_tuples as f64);
        assert_eq!(mean, 100.0);
        assert_eq!(RunResult::default().steady_state_mean(|b| b.w), 0.0);
    }
}

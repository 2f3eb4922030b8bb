//! One run of the batch loop: the cross-batch state
//! [`StreamingEngine::run_traced`] threads through its three steps —
//! [`Run::fill`] (buffer + partition: [`Run::pull`], the free function
//! [`partition`] and [`Run::finish`]), [`Run::execute`] (Map/Reduce on the
//! backend) and [`Run::commit`] (window state, checkpoints, scheduling) — and
//! the named sub-steps each of them is made of. A `Run` owns the
//! [`BackendRuntime`] its batches execute on: [`Run::new`] launches it and
//! [`Run::close`] shuts it down.

use std::collections::VecDeque;

use prompt_core::batch::{total_keys, Columns, MicroBatch, PartitionPlan};
use prompt_core::metrics::PlanMetrics;
use prompt_core::partitioner::{PartitionPhases, Partitioner, Technique};
use prompt_core::types::{Duration, Interval, Time, Tuple};

use super::{BatchRecord, RunResult, StreamingEngine};
use crate::backend::{BackendRuntime, Planned};
use crate::config::{Backend, OverheadMode};
use crate::elasticity::{AutoScaler, Observation};
use crate::policy::{BatchObservation, PolicyDecision};
use crate::rebalance::{
    group_weights, imbalance_ratio, RebalanceObservation, RebalancePolicy, RoutingTable,
};
use crate::recovery::FaultPlan;
use crate::source::TupleSource;
use crate::stage::{BatchOutput, StageTimes};
use crate::state::{restore, Checkpointer, CommitInfo, KeyedStateStore, StateStats};
use crate::trace::{Counter, StageKind, TraceEvent, TraceLevel, TraceRecorder};
use crate::window::{WindowResult, WindowState};

/// A batch past the *buffering* state of the driver's state machine:
/// ingested, counted and partitioned — everything up to (but excluding)
/// execution and commit.
/// When `pipeline_depth` exceeds 1, up to `depth` of these sit in the
/// prepare queue while older batches execute; on the distributed backend
/// each goes on the wire at the first [`Run::execute`] that sees it queued.
///
/// It is also the only carrier of the actuator state the batch was prepared
/// under — `r`, `technique`, `routing`: everything downstream of
/// [`Run::pull`] reads these, never the run's current values, which a
/// controller may have moved for a younger batch in the meantime. Its plan
/// is the batch's replicated input (§8): every recovery re-runs it.
pub(crate) struct PreparedBatch {
    seq: u64,
    interval: Interval,
    n_tuples: usize,
    n_keys: usize,
    /// The plan: what executes, and what metrics, the policy and the
    /// rebalancer read the fragment lists of.
    plan: PartitionPlan,
    raw_overhead: Duration,
    visible_overhead: Duration,
    /// The Reduce task count in force when the batch was pulled.
    r: usize,
    /// The technique that partitioned this batch (policy-selected or the
    /// constructor's).
    technique: Technique,
    /// The routing table as of this batch's fill, when the run rebalances:
    /// what the batch is assigned through and what the rebalancer is told
    /// it ran under.
    routing: Option<RoutingTable>,
    /// The policy's decision for this batch, when a policy drove it.
    decision: Option<PolicyDecision>,
    /// Plan-quality metrics, computed once at prepare (the policy consumes
    /// them too).
    metrics: PlanMetrics,
}

impl PreparedBatch {
    fn planned<'a>(&'a self, eng: &'a StreamingEngine) -> Planned<'a> {
        let assigner = eng
            .strategies
            .assigner(self.technique, self.routing.as_ref());
        Planned {
            seq: self.seq,
            plan: &self.plan,
            job: &eng.job,
            r: self.r,
            assigner,
        }
    }
}

/// A batch [`Run::pull`] took from the source: its input, and the actuator
/// state in force when it was pulled, which [`partition`] and
/// [`Run::finish`] read instead of the run's (a commit may move the run's
/// `p` and `r` while the batch is partitioned).
pub(crate) struct PulledBatch {
    seq: u64,
    pub(super) batch: MicroBatch,
    /// The Map task count the batch is partitioned into.
    pub(super) p: usize,
    r: usize,
    pub(super) technique: Technique,
    routing: Option<RoutingTable>,
    decision: Option<PolicyDecision>,
    /// Wall-clock µs the policy's decision took (trace only).
    decide_us: u64,
}

/// What [`partition`] makes of a batch.
pub(crate) struct Partitioned {
    plan: PartitionPlan,
    /// Wall-clock phase timings; they only reach the trace.
    phases: PartitionPhases,
    raw_overhead: Duration,
    n_keys: usize,
    metrics: PlanMetrics,
}

/// Partition `batch` into `p` Map blocks carrying `columns`, the ones the
/// run's job reads, with `partitioner`. Reads nothing of a [`Run`], so the
/// loop may call it on another thread while the driver thread executes and
/// commits an older batch.
pub(crate) fn partition(
    partitioner: &mut dyn Partitioner,
    batch: &MicroBatch,
    p: usize,
    columns: Columns,
    overhead: OverheadMode,
) -> Partitioned {
    let t0 = std::time::Instant::now();
    let (plan, phases) = partitioner.partition_slice(&batch.tuples, batch.interval, p, columns);
    let raw_overhead = match overhead {
        OverheadMode::None => Duration::ZERO,
        OverheadMode::Fixed(d) => d,
        OverheadMode::Measured => Duration::from_micros(t0.elapsed().as_micros() as u64),
    };
    // Partitioners conserve tuples, so the plan's distinct keys are the
    // batch's: counted once, for the record and the plan metrics both.
    let blocks = plan.block_fragments();
    let n_keys = total_keys(&blocks, &plan.split_keys);
    let metrics = PlanMetrics::of_blocks(&blocks, n_keys);
    Partitioned {
        plan,
        phases,
        raw_overhead,
        n_keys,
        metrics,
    }
}

/// Everything one run carries from batch to batch. Built once per run by
/// [`Run::new`], consumed by [`Run::close`].
pub(crate) struct Run<'e> {
    eng: &'e mut StreamingEngine,
    source: &'e mut dyn TupleSource,
    rec: TraceRecorder,
    result: RunResult,
    /// What every batch executes on, for the whole run.
    backend: BackendRuntime,
    /// The in-flight window: partitioned batches awaiting execution, oldest
    /// first (at most [`EngineConfig::pipeline_depth`](crate::config::EngineConfig)).
    /// A batch being partitioned beside an execution is not in it yet.
    pub(super) prepared: VecDeque<PreparedBatch>,
    /// The batch [`Run::pull`] takes next: every batch before it has been
    /// pulled (or skipped by a resume), whether or not it is in `prepared`.
    next_seq: u64,
    /// Map / Reduce task counts the next batch is prepared with (moved by
    /// the scaler at commit). A batch in flight keeps the `r` it was filled
    /// under ([`PreparedBatch`]).
    p: usize,
    r: usize,
    /// Virtual time at which the pipeline finishes the last committed batch.
    pipeline_free_at: Time,
    /// Arrival buffer, reused across intervals.
    arrivals: Vec<Tuple>,
    /// Serial window state; `None` when the state layer replaces it.
    window: Option<WindowState>,
    /// The state layer (sharded keyed store, optionally checkpointed):
    /// `Some` for the whole run exactly when checkpointing or a stateful
    /// operator is configured. Bit-identical to the serial window path (see
    /// `crate::state::store`).
    state_store: Option<KeyedStateStore>,
    sstats: StateStats,
    checkpointer: Option<Checkpointer>,
    /// First batch a resumed run processes: the restored checkpoint covers
    /// everything before it (the source still advances through those).
    resume_from: u64,
    scaler: Option<AutoScaler>,
    prev_zone: Option<u8>,
    was_in_grace: bool,
    /// The rebalance policy and the key-group routing table it steers —
    /// what the next batch snapshots. Built fresh (round-robin, version 0)
    /// per run.
    rebalancer: Option<(Box<dyn RebalancePolicy>, RoutingTable)>,
    /// `(seq, worker-load imbalance)` of the most recently committed batch —
    /// the evidence a `Rebalance` trace event cites. Derived from virtual
    /// task times, so identical across backends.
    last_load: Option<(u64, f64)>,
    /// Committed batches, oldest first, each with the replicas it has left:
    /// what a scheduled store loss re-runs (§8 point 2). [`Run::recycle`]
    /// hands back every one before `retain_from` — at once, unless the run
    /// keeps a state store and schedules a store loss.
    committed: VecDeque<(PreparedBatch, usize)>,
    /// The first committed batch a store loss may still re-run.
    retain_from: u64,
    /// The recovery budget: replicas per batch, and how many worker losses
    /// one execution of a batch may survive.
    replicas: usize,
    fault_plan: FaultPlan,
    window_len_batches: u64,
}

impl<'e> Run<'e> {
    pub(crate) fn new(eng: &'e mut StreamingEngine, source: &'e mut dyn TupleSource) -> Run<'e> {
        let cfg = &eng.cfg;
        let bi = cfg.batch_interval;
        let state_on = cfg.checkpoint.is_some() || eng.stateful.is_some();
        assert!(
            !state_on || eng.window.is_some(),
            "checkpointing and stateful operators require a window (with_window)"
        );
        let window = match eng.window {
            Some(spec) if !state_on => Some(WindowState::new(spec, bi, eng.job.reduce())),
            _ => None,
        };
        // A worker loss resubmits the plan in hand and spends only the
        // budget, which exists even when the user configured no fault
        // tolerance; one per worker always suffices (the run aborts anyway
        // once every worker is gone).
        let (replicas, fault_plan) = match (&eng.fault_tolerance, cfg.backend) {
            (Some((replicas, plan)), _) => (*replicas, plan.clone()),
            (None, Backend::Distributed { workers, .. }) => (workers.max(2), FaultPlan::none()),
            (None, _) => (2, FaultPlan::none()),
        };
        let distributed = matches!(cfg.backend, Backend::Distributed { .. });
        assert!(
            !distributed || eng.job.wire_spec().is_some(),
            "Backend::Distributed needs wire-serialisable jobs (build them with Job::identity)"
        );
        let mut backend = BackendRuntime::launch(cfg.backend);
        if let Some(rt) = backend.distributed() {
            rt.set_fault_plan(eng.net_faults.clone())
                .expect("invalid net fault plan");
        }
        let scaler = cfg
            .elasticity
            .map(|sc| AutoScaler::new(sc, cfg.map_tasks, cfg.reduce_tasks));
        // The rebalancer and its routing table are rebuilt every run, so
        // repeated runs of one engine are bit-identical.
        let groups = cfg.rebalance.build().zip(cfg.rebalance.n_groups());
        let rebalancer = groups.map(|(policy, n)| (policy, RoutingTable::new(n, cfg.reduce_tasks)));
        let mut run = Run {
            rec: TraceRecorder::new(cfg.trace),
            result: RunResult::default(),
            backend,
            prepared: VecDeque::new(),
            next_seq: 0,
            p: cfg.map_tasks,
            r: cfg.reduce_tasks,
            pipeline_free_at: Time::ZERO,
            arrivals: Vec::new(),
            window,
            state_store: state_on.then(|| eng.new_state_store()),
            sstats: StateStats::default(),
            checkpointer: None,
            resume_from: 0,
            scaler,
            prev_zone: None,
            was_in_grace: false,
            rebalancer,
            last_load: None,
            committed: VecDeque::new(),
            retain_from: 0,
            replicas,
            fault_plan,
            window_len_batches: eng.window.map_or(1, |spec| spec.in_batches(bi).0 as u64),
            eng,
            source,
        };
        run.resume();
        // Opened after the resume has read the directory: opening sweeps
        // what the durable manifest does not name.
        run.checkpointer = (run.eng.cfg.checkpoint.as_ref())
            .map(|c| Checkpointer::create(c).expect("failed to open checkpoint directory"));
        run
    }

    /// Resume a restarted run from its checkpoint directory: [`Run::pull`]
    /// then skips the batches the restored watermark covers.
    fn resume(&mut self) {
        if !self.eng.cfg.checkpoint.as_ref().is_some_and(|c| c.resume) {
            return;
        }
        let (store, covered, bytes) = self.durable_state();
        if covered > 0 {
            self.state_store = Some(store);
            self.resume_from = covered;
            self.record_restore(0, covered, bytes, 0);
        }
    }

    /// The state a lost or restarted store is rebuilt from, as `(store,
    /// batches covered, bytes read)`: the latest checkpoint, or a fresh store
    /// covering nothing when the run does not checkpoint or has not
    /// committed yet. A snapshot still with the compactor is settled first,
    /// so what is read back (and how many bytes of it) does not depend on the
    /// compactor's speed.
    fn durable_state(&mut self) -> (KeyedStateStore, u64, u64) {
        if let Some(ckpt) = self.checkpointer.as_mut() {
            ckpt.settle().expect("checkpoint write failed");
        }
        let restored = self
            .eng
            .cfg
            .checkpoint
            .as_ref()
            .and_then(|cfg| restore(&cfg.dir).expect("checkpoint restore failed"));
        match restored {
            Some(rs) => (rs.store, rs.watermark + 1, rs.bytes_read),
            None => (self.eng.new_state_store(), 0, 0),
        }
    }

    fn record_restore(&mut self, seq: u64, covered: u64, bytes: u64, recomputed: u64) {
        self.sstats.restores += 1;
        self.sstats.recomputed_batches += recomputed;
        self.rec.incr(Counter::StateRestores, 1);
        self.rec.incr(Counter::RecomputedBatches, recomputed);
        self.rec.event(TraceEvent::StateRestore {
            seq,
            covered,
            bytes,
            recomputed,
        });
    }

    fn interval_of(&self, seq: u64) -> Interval {
        let bi = self.eng.cfg.batch_interval;
        Interval::new(Time(bi.0 * seq), Time(bi.0 * (seq + 1)))
    }

    /// Whether the run has a batch left to pull.
    pub(crate) fn may_pull(&self, n_batches: u64) -> bool {
        self.next_seq < n_batches
    }

    /// Advance the next batch from *buffering* to *partitioned* on this
    /// thread: [`Run::pull`], [`partition`] and [`Run::finish`] in a row.
    pub(crate) fn fill(&mut self) {
        let Some(pulled) = self.pull() else {
            return;
        };
        let (overhead, columns) = (self.eng.cfg.overhead, self.eng.job.columns());
        let partitioner = self.eng.strategies.registry.get_or_build(pulled.technique);
        let partitioned = partition(partitioner, &pulled.batch, pulled.p, columns, overhead);
        self.finish(pulled, partitioned);
    }

    /// The first step of advancing the next batch: ingest its interval and
    /// let every controller that acts at the batch boundary act (policy,
    /// rebalancer). The batch leaves with the run's current actuator state — `p`,
    /// `r`, technique, routing — which it carries from here on. `None` when a
    /// restored checkpoint already covers the batch. The source is read here
    /// and only here, on the driver thread.
    pub(crate) fn pull(&mut self) -> Option<PulledBatch> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let interval = self.interval_of(seq);
        self.arrivals.clear();
        self.source.fill(interval, &mut self.arrivals);
        debug_assert!(
            self.arrivals.windows(2).all(|w| w[0].ts <= w[1].ts),
            "source must emit in timestamp order"
        );
        if seq < self.resume_from {
            return None;
        }
        let batch = MicroBatch::new(std::mem::take(&mut self.arrivals), interval);
        self.rec.incr(Counter::Batches, 1);
        self.rec.incr(Counter::Tuples, batch.len() as u64);
        let (decision, decide_us) = self.decide(seq);
        let technique = decision
            .as_ref()
            .map_or(self.eng.technique, |d| d.technique);
        self.apply_rebalance(seq);
        Some(PulledBatch {
            seq,
            batch,
            p: self.p,
            r: self.r,
            technique,
            routing: self.routing(),
            decision,
            decide_us,
        })
    }

    /// The last step of advancing a batch: trace its partition phases, show
    /// the policy the plan (under the `p` it was pulled with), take the
    /// arrival buffer back for the next interval and queue the batch behind
    /// the batches already in flight. No backend sees it here: it is
    /// dispatched by the next [`Run::execute`].
    pub(crate) fn finish(&mut self, pulled: PulledBatch, part: Partitioned) {
        let PulledBatch {
            seq,
            batch,
            p,
            r,
            technique,
            routing,
            decision,
            decide_us,
        } = pulled;
        self.trace_partition_phases(seq, decision.is_some(), decide_us, &part.phases);
        let n_tuples = batch.len();
        if let Some(pol) = self.eng.policy.as_mut() {
            pol.observe(&BatchObservation {
                seq,
                technique,
                n_tuples,
                n_keys: part.n_keys,
                map_tasks: p,
                metrics: part.metrics,
                blocks: &part.plan.block_fragments(),
            });
        }
        let interval = batch.interval;
        self.arrivals = batch.tuples; // reuse the allocation next interval
        let pb = PreparedBatch {
            seq,
            interval,
            n_tuples,
            n_keys: part.n_keys,
            plan: part.plan,
            raw_overhead: part.raw_overhead,
            visible_overhead: part.raw_overhead - self.eng.cfg.early_release_slack(),
            r,
            technique,
            routing,
            decision,
            metrics: part.metrics,
        };
        self.prepared.push_back(pb);
    }

    /// Trace how long the driver thread waited at an overlapped step's join
    /// for `pulled`'s partition (wall clock).
    pub(crate) fn trace_partition_wait(&self, pulled: &PulledBatch, waited: std::time::Duration) {
        let waited = Duration::from_micros(waited.as_micros() as u64);
        self.rec.phase(pulled.seq, StageKind::PartitionWait, waited);
    }

    /// Lend `technique`'s partitioner out of the registry, for a batch
    /// partitioned on another thread; [`Run::give_back`] returns it.
    pub(crate) fn lend(&mut self, technique: Technique) -> Box<dyn Partitioner> {
        self.eng.strategies.registry.take(technique)
    }

    /// Return a partitioner [`Run::lend`] lent out.
    pub(crate) fn give_back(&mut self, technique: Technique, partitioner: Box<dyn Partitioner>) {
        self.eng.strategies.registry.insert(technique, partitioner);
    }

    /// A scheduled loss of the whole keyed state store at the commit of
    /// batch `seq`, before its output is pushed — when every batch before it
    /// has committed, at any depth: rebuild from the latest checkpoint (or
    /// from scratch when none exists) and re-run the retained plans of the
    /// committed batches it does not cover, each spending one of its
    /// replicas. Returns the re-runs' processing times, billed to `seq`.
    fn restore_lost_store(&mut self, seq: u64) -> Vec<Duration> {
        let mut rerun_times = Vec::new();
        if self.state_store.is_none() || !self.fault_plan.loses_store_at(seq) {
            return rerun_times;
        }
        let (mut rebuilt, covered, bytes) = self.durable_state();
        let mut committed = std::mem::take(&mut self.committed);
        for (pb, replicas_left) in committed.iter_mut().filter(|(pb, _)| pb.seq >= covered) {
            let Some(left) = replicas_left.checked_sub(1) else {
                panic!(
                    "state loss at batch {seq}: every replica of batch {} lost",
                    pb.seq
                );
            };
            *replicas_left = left;
            let (output, times) = self.execute(pb);
            // Re-run into the rebuilt store, discarding emissions — the
            // original run already emitted these windows.
            rebuilt.push(&output);
            rerun_times.push(times.processing());
        }
        self.committed = committed;
        let recomputed = rerun_times.len() as u64;
        assert_eq!(
            recomputed,
            seq - covered,
            "store lost at batch {seq}: a re-run expired"
        );
        self.record_restore(seq, covered, bytes, recomputed);
        self.state_store = Some(rebuilt);
        rerun_times
    }

    /// Each scheduled loss of `pb`'s state re-runs its plan, spending one of
    /// its replicas: `output` becomes the last re-run's and each re-run's
    /// processing time is pushed to `recovery_times`. Returns the replicas
    /// left.
    fn rerun_lost_state(
        &mut self,
        pb: &PreparedBatch,
        output: &mut BatchOutput,
        recovery_times: &mut Vec<Duration>,
    ) -> usize {
        let (seq, mut replicas_left) = (pb.seq, self.replicas);
        for _ in 0..self.fault_plan.losses_for(seq) {
            let Some(left) = replicas_left.checked_sub(1) else {
                panic!(
                    "injected failure beyond recovery budget: every replica of batch {seq} lost"
                );
            };
            replicas_left = left;
            let (rerun, times) = self.execute(pb);
            *output = rerun;
            recovery_times.push(times.processing());
            self.result.recoveries += 1;
            self.rec.incr(Counter::Recoveries, 1);
            self.rec.event(TraceEvent::Recovery { seq, replicas_left });
        }
        replicas_left
    }

    /// Keep committed batch `pb` for a scheduled store loss to re-run, with
    /// the replicas it has left; [`Run::recycle`] hands back whatever no
    /// store loss can need any more. A checkpoint truncates retention at its
    /// watermark ([`Run::record_commit`]); without one, a batch that has left
    /// every window is not needed (§8) — unless a store loss is still to
    /// come, which rebuilds from batch zero.
    fn retain(&mut self, pb: PreparedBatch, replicas_left: usize) {
        let (seq, lose_store) = (pb.seq, &self.fault_plan.lose_store);
        self.committed.push_back((pb, replicas_left));
        if self.state_store.is_none() || lose_store.is_empty() {
            self.retain_from = seq + 1;
            return;
        }
        let rebuild_ahead = lose_store.iter().any(|&s| s > seq);
        if self.checkpointer.is_none() && !rebuild_ahead {
            let out_of_window = (seq + 2).saturating_sub(self.window_len_batches);
            self.retain_from = self.retain_from.max(out_of_window);
        }
        let live = self
            .committed
            .iter()
            .filter(|(pb, _)| pb.seq >= self.retain_from);
        let (batches, tuples) = live.fold((0, 0), |(b, t), (pb, _)| (b + 1, t + pb.n_tuples));
        let stats = &mut self.sstats;
        stats.max_retained_batches = stats.max_retained_batches.max(batches);
        stats.max_retained_tuples = stats.max_retained_tuples.max(tuples as u64);
    }

    /// Rebalancing: the policy decides a migration plan at the batch
    /// boundary, before batch `seq` is partitioned or assigned, from the
    /// commits it has observed (through `seq − depth` in steady state).
    /// Applying the plan moves only the offending key-groups: the run's
    /// table bumps one version, batch `seq` and its successors snapshot the
    /// new ownership, and older batches still in flight keep theirs.
    fn apply_rebalance(&mut self, seq: u64) {
        let Some((reb, table)) = self.rebalancer.as_mut() else {
            return;
        };
        let mplan = reb.decide(seq);
        if mplan.is_empty() {
            return;
        }
        table
            .apply(&mplan)
            .expect("rebalance plan must apply cleanly");
        let (version, n_groups) = (table.version(), table.n_groups());
        self.rec.incr(Counter::Rebalances, 1);
        self.rec
            .incr(Counter::GroupsMoved, mplan.moves.len() as u64);
        self.rec.event(TraceEvent::Rebalance {
            seq,
            version,
            moves: mplan.moves.len() as u64,
            imbalance: self.last_load.map_or(1.0, |(_, imbalance)| imbalance),
            observed_seq: self.last_load.map(|(observed, _)| observed),
        });
        // Ownership is all that moves: the driver's store is the only copy
        // of keyed state on every backend. The event log reports the size of
        // each slice that changed owner (0 when the run keeps no keyed state)
        // — one scan of the store per plan, and only for a recorder that
        // keeps events.
        if self.rec.level() == TraceLevel::Full {
            let state = self.state_store.as_ref();
            let group_bytes = state.map(|s| s.group_bytes(n_groups));
            for mv in &mplan.moves {
                self.rec.event(TraceEvent::GroupMigrate {
                    seq,
                    group: mv.group,
                    from: mv.from,
                    to: mv.to,
                    bytes: group_bytes.as_ref().map_or(0, |b| b[mv.group as usize]),
                });
            }
        }
        self.result.migrations.push((seq, mplan));
    }

    /// A snapshot of the routing table as it stands, when the run rebalances.
    fn routing(&self) -> Option<RoutingTable> {
        self.rebalancer.as_ref().map(|(_, table)| table.clone())
    }

    /// Worker losses survived on the way to a result: each cost one recovery.
    fn charge(&mut self, losses: u64) {
        self.result.worker_losses += losses;
        self.result.recoveries += losses;
    }

    /// Per-batch technique resolution: the policy (when present) scores the
    /// previous batch's statistics and may hot-swap the strategy here, at
    /// the batch boundary. The decision is a pure function of prior
    /// observations — never of trace level or wall clock — so traced and
    /// untraced runs select identical sequences. Returns the decision and
    /// the wall-clock µs it took.
    fn decide(&mut self, seq: u64) -> (Option<PolicyDecision>, u64) {
        let t0 = std::time::Instant::now();
        let decision = self.eng.policy.as_mut().map(|pol| pol.decide(seq));
        let decide_us = t0.elapsed().as_micros() as u64;
        if let Some(d) = decision.as_ref() {
            self.rec.incr(Counter::PolicyDecisions, 1);
            if d.switched {
                self.rec.incr(Counter::PolicySwitches, 1);
                self.rec.event(TraceEvent::PolicySwitch {
                    seq,
                    from: d.prev.label(),
                    to: d.technique.label(),
                });
            }
        }
        (decision, decide_us)
    }

    fn trace_partition_phases(
        &self,
        seq: u64,
        decided: bool,
        decide_us: u64,
        phases: &PartitionPhases,
    ) {
        // The select/score phase: the policy's decision plus the technique's
        // own per-tuple selection work, split out so policy overhead is
        // visible in stage-breakdown tables.
        if decided || phases.select_us > 0 {
            self.rec.phase(
                seq,
                StageKind::Select,
                Duration::from_micros(decide_us + phases.select_us),
            );
        }
        if *phases != PartitionPhases::default() {
            for (kind, us) in [
                (StageKind::Seal, phases.seal_us),
                (StageKind::Order, phases.order_us),
                (StageKind::PartitionSymbolic, phases.symbolic_us),
                (StageKind::PartitionMaterialize, phases.materialize_us),
            ] {
                self.rec.phase(seq, kind, Duration::from_micros(us));
            }
        }
    }

    /// Run a partitioned batch on the backend under what it was prepared
    /// with — `r` buckets, the assigner its `technique` and `routing`
    /// snapshot resolve to — charging any worker losses survived on the way
    /// to the run.
    fn run_plan(
        &mut self,
        seq: u64,
        plan: &PartitionPlan,
        (r, technique, routing): (usize, Technique, Option<&RoutingTable>),
    ) -> (BatchOutput, StageTimes) {
        let eng = &*self.eng;
        let batch = Planned {
            seq,
            plan,
            job: &eng.job,
            r,
            assigner: eng.strategies.assigner(technique, routing),
        };
        let (output, times, losses) = self.backend.execute(
            &batch,
            self.prepared.iter().map(|q| q.planned(eng)),
            &eng.cfg,
            &self.rec,
            self.replicas,
        );
        self.charge(losses);
        (output, times)
    }

    /// Execute a batch's plan on the configured backend: the oldest in-flight
    /// batch, or a re-run of a lost one. On the distributed backend this is
    /// where the batch and every younger queued one not yet in flight go on
    /// the wire — at depth 2 beside the next batch's partition — and waiting
    /// on it also advances the younger batches of the window.
    pub(crate) fn execute(&mut self, pb: &PreparedBatch) -> (BatchOutput, StageTimes) {
        let under = (pb.r, pb.technique, pb.routing.as_ref());
        self.run_plan(pb.seq, &pb.plan, under)
    }

    /// Commit an executed batch. Everything with cross-batch feedback —
    /// recovery, pipeline clock, windows, checkpoints, retention, scaling —
    /// runs here, in strict batch order. The batch is then kept for a
    /// scheduled store loss, or left for [`Run::recycle`] to hand its plan
    /// back to the partitioner that built it.
    pub(crate) fn commit(
        &mut self,
        mut pb: PreparedBatch,
        mut output: BatchOutput,
        times: StageTimes,
    ) {
        let seq = pb.seq;
        let bi = self.eng.cfg.batch_interval;
        self.observe_load(&pb, &times);

        // Recovery re-runs plans the run holds and bills this batch: the
        // committed suffix a store loss needs, then each scheduled loss of
        // this batch's own state.
        let mut recovery_times = self.restore_lost_store(seq);
        let replicas_left = self.rerun_lost_state(&pb, &mut output, &mut recovery_times);
        let mut processing = pb.visible_overhead + times.processing();
        for &d in &recovery_times {
            processing += d;
        }

        // Pipelined scheduling: processing starts at the heartbeat or when
        // the pipeline frees up, whichever is later.
        let heartbeat = pb.interval.end;
        let start = self.pipeline_free_at.max(heartbeat);
        let queue_delay = start.since(heartbeat);
        self.pipeline_free_at = start + processing;
        let w = processing.as_secs_f64() / bi.as_secs_f64();
        self.trace_spans(&pb, &times, start, processing, &recovery_times);
        let limit = self.eng.cfg.backpressure_queue;
        if queue_delay.as_secs_f64() > limit * bi.as_secs_f64() {
            self.result.backpressure = true;
            self.rec.incr(Counter::BackpressureBatches, 1);
            self.rec.event(TraceEvent::Backpressure {
                seq,
                queue_us: queue_delay.0,
                limit_us: bi.mul_f64(limit).0,
            });
        }
        self.step_scaler(&pb, w);
        self.commit_window(seq, output);

        if let Some(d) = pb.decision.take() {
            self.result.policy_decisions.push(d);
        }
        self.result.batches.push(BatchRecord {
            seq,
            n_tuples: pb.n_tuples,
            n_keys: pb.n_keys,
            map_tasks: pb.plan.blocks.len(),
            reduce_tasks: pb.r,
            partition_overhead: pb.raw_overhead,
            visible_overhead: pb.visible_overhead,
            map_stage: times.map_stage,
            reduce_stage: times.reduce_stage,
            processing,
            queue_delay,
            latency: bi + queue_delay + processing,
            w,
            map_task_times: times.map_tasks,
            reduce_task_times: times.reduce_tasks,
            plan_metrics: pb.metrics,
            technique: pb.technique,
        });
        self.retain(pb, replicas_left);
    }

    /// Hand the plan of every committed batch no store loss can re-run any
    /// more back to its technique's partitioner: its buffers are what a
    /// later batch's plan is built in.
    pub(crate) fn recycle(&mut self) {
        let retain_from = self.retain_from;
        while let Some((pb, _)) = self.committed.pop_front_if(|(pb, _)| pb.seq < retain_from) {
            let partitioner = self.eng.strategies.registry.get_or_build(pb.technique);
            partitioner.recycle(pb.plan);
        }
    }

    /// Per-worker load accounting: the trace summary's imbalance signal, and
    /// the rebalancer's observation of this commit — under the routing the
    /// batch ran with, not the run's current table.
    fn observe_load(&mut self, pb: &PreparedBatch, times: &StageTimes) {
        self.rec.worker_busy(&times.reduce_tasks);
        let (Some((reb, _)), Some(table)) = (self.rebalancer.as_mut(), pb.routing.as_ref()) else {
            return;
        };
        let busy: Vec<u64> = times.reduce_tasks.iter().map(|d| d.0).collect();
        let group_tuples = group_weights(&pb.plan.block_fragments(), table.n_groups());
        reb.observe(&RebalanceObservation {
            seq: pb.seq,
            version: table.version(),
            worker_busy_us: &busy,
            group_tuples: &group_tuples,
            owners: table.owners(),
        });
        self.last_load = Some((pb.seq, imbalance_ratio(&busy)));
    }

    /// The batch's lifecycle as virtual-time spans. The `PROCESSING_KINDS`
    /// spans tile `[start, start + processing]` with no gaps, so per batch
    /// they sum to `processing` exactly — the reconciliation invariant the
    /// integration tests assert.
    fn trace_spans(
        &self,
        pb: &PreparedBatch,
        times: &StageTimes,
        start: Time,
        processing: Duration,
        recovery_times: &[Duration],
    ) {
        if !self.rec.enabled() {
            return;
        }
        let (seq, rec) = (pb.seq, &self.rec);
        rec.span(
            seq,
            StageKind::Accumulate,
            pb.interval.start,
            pb.interval.end,
        );
        rec.span(seq, StageKind::QueueWait, pb.interval.end, start);
        let mut cursor = start;
        let tiles = [
            (StageKind::PartitionVisible, pb.visible_overhead),
            (StageKind::MapStage, times.map_stage),
            (StageKind::ReduceStage, times.reduce_stage),
        ];
        let recoveries = recovery_times.iter().map(|&d| (StageKind::Recovery, d));
        for (kind, d) in tiles.into_iter().chain(recoveries) {
            rec.span(seq, kind, cursor, cursor + d);
            cursor = cursor + d;
        }
        debug_assert_eq!(cursor, start + processing, "spans must tile processing");
    }

    /// Elasticity (Algorithm 4): feed the scaler this commit's load; a scale
    /// action changes the task counts the next batch is prepared with. A
    /// batch prepared before the scaler's last action ran under counts that
    /// are no longer the scaler's — its `W` says nothing about the current
    /// configuration, so the scaler never sees it (at depth 1 there is no
    /// such batch).
    fn step_scaler(&mut self, pb: &PreparedBatch, w: f64) {
        let Some(sc) = self.scaler.as_mut() else {
            return;
        };
        if (pb.plan.blocks.len(), pb.r) != (sc.map_tasks(), sc.reduce_tasks()) {
            return;
        }
        let (seq, rec) = (pb.seq, &self.rec);
        let zone = sc.zone(w);
        if self.prev_zone != Some(zone) {
            if self.prev_zone.is_some() {
                rec.incr(Counter::ZoneTransitions, 1);
            }
            rec.event(TraceEvent::Zone { seq, zone, w });
        }
        self.prev_zone = Some(zone);
        let noops_before = sc.noop_decisions();
        if let Some(action) = sc.observe(Observation {
            w,
            n_tuples: pb.n_tuples as u64,
            n_keys: pb.n_keys as u64,
        }) {
            self.p = action.map_tasks;
            self.r = action.reduce_tasks;
            self.result.scale_events.push((seq, action));
            let (rate_trend, key_trend) = sc.last_trends();
            let direction = if action.out {
                Counter::ScaleOut
            } else {
                Counter::ScaleIn
            };
            rec.incr(direction, 1);
            rec.incr(Counter::GraceEntries, 1);
            rec.event(TraceEvent::Scale {
                seq,
                map_tasks: action.map_tasks,
                reduce_tasks: action.reduce_tasks,
                out: action.out,
                rate_trend,
                key_trend,
                // The first batch not yet pulled: one being partitioned
                // beside this commit already carries the old counts.
                effective_seq: self.next_seq,
            });
            rec.event(TraceEvent::Grace { seq, entered: true });
        }
        rec.incr(Counter::NoopDecisions, sc.noop_decisions() - noops_before);
        let in_grace = sc.in_grace();
        if self.was_in_grace && !in_grace {
            rec.event(TraceEvent::Grace {
                seq,
                entered: false,
            });
        }
        self.was_in_grace = in_grace;
    }

    /// Window maintenance, traced as one `WindowCommit` wall phase when the
    /// run keeps a window: through the sharded state store (with checkpoint
    /// commits and watermark truncation) when the state layer is active,
    /// else the serial `WindowState`. The two paths are bit-identical.
    fn commit_window(&mut self, seq: u64, output: BatchOutput) {
        if self.window.is_none() && self.state_store.is_none() {
            return;
        }
        let t0 = std::time::Instant::now();
        self.push_window(output);
        let wall = Duration::from_micros(t0.elapsed().as_micros() as u64);
        self.rec.phase(seq, StageKind::WindowCommit, wall);
    }

    /// [`Run::commit_window`]'s push, and the checkpoint record after it.
    fn push_window(&mut self, output: BatchOutput) {
        let Some(store) = self.state_store.as_mut() else {
            if let Some(res) = self.window.as_mut().and_then(|ws| ws.push(output)) {
                self.result.windows.push(res);
            }
            return;
        };
        let (res, delta) = store.push_with_delta(&output);
        let commit = self
            .checkpointer
            .as_mut()
            .and_then(|ckpt| ckpt.record(&delta, store).expect("checkpoint write failed"));
        if let Some(res) = res {
            if let Some(op) = self.eng.stateful {
                self.result.stateful.push(WindowResult {
                    last_batch_seq: res.last_batch_seq,
                    aggregates: op.eval(store),
                });
            }
            self.result.windows.push(res);
        }
        if let Some(commit) = commit {
            self.record_commit(commit);
        }
    }

    /// Account one checkpoint commit. Everything it covers is durable, so
    /// no store loss re-runs a batch at or before its watermark.
    fn record_commit(&mut self, commit: CommitInfo) {
        self.sstats.checkpoints += 1;
        self.sstats.checkpoint_bytes += commit.bytes;
        self.rec.incr(Counter::Checkpoints, 1);
        self.rec.incr(Counter::CheckpointBytes, commit.bytes);
        if commit.snapshot {
            self.sstats.snapshots += 1;
            self.rec.incr(Counter::Snapshots, 1);
        }
        self.rec.event(TraceEvent::Checkpoint {
            seq: commit.seq,
            snapshot: commit.snapshot,
            bytes: commit.bytes,
            wall_us: commit.wall_us,
        });
        self.retain_from = self.retain_from.max(commit.seq + 1);
    }

    /// Shut the backend down and hand back the run's results and trace.
    pub(crate) fn close(mut self) -> (RunResult, TraceRecorder) {
        if self.state_store.is_some() {
            if let Some(ckpt) = self.checkpointer.as_mut() {
                ckpt.settle().expect("checkpoint write failed");
                self.sstats.snapshot_bytes = ckpt.stats().snapshot_bytes;
                self.sstats.watermark = ckpt.watermark();
                self.rec
                    .incr(Counter::SnapshotBytes, self.sstats.snapshot_bytes);
                self.rec.compactor(ckpt.compactor_times());
            }
            self.result.state = Some(self.sstats);
        }
        self.result.net = self.backend.shutdown();
        (self.result, self.rec)
    }
}

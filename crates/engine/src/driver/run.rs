//! One run of the batch loop: the cross-batch state a driver threads
//! through its three steps — [`Run::fill`] (buffer + partition),
//! [`Run::execute`] (Map/Reduce on the backend) and [`Run::commit`] (window
//! state, checkpoints, scheduling) — and the named sub-steps each of them is
//! made of. [`StreamingEngine::run_traced`] drives one `Run`; the
//! multi-tenant engine ([`crate::tenancy`]) drives one per tenant over a
//! shared backend, which is why a `Run` borrows the [`BackendRuntime`] per
//! step instead of owning it.

use std::collections::VecDeque;

use prompt_core::batch::{total_keys, MicroBatch};
use prompt_core::metrics::PlanMetrics;
use prompt_core::partitioner::{PartitionPhases, Technique};
use prompt_core::types::{Duration, Interval, Time, Tuple};

use super::{BatchRecord, RunResult, StreamingEngine};
use crate::backend::{BackendRuntime, Planned};
use crate::config::{Backend, OverheadMode};
use crate::elasticity::{AutoScaler, Observation};
use crate::kernel::{Plan, PlanView};
use crate::policy::{BatchObservation, PolicyDecision};
use crate::rebalance::{
    group_weights, imbalance_ratio, RebalanceObservation, RebalancePolicy, RoutingTable,
};
use crate::recovery::{FaultPlan, RecoveryError, ReplicatedBatchStore};
use crate::source::TupleSource;
use crate::stage::{BatchOutput, StageTimes};
use crate::state::{restore, Checkpointer, CommitInfo, KeyedStateStore, StateStats};
use crate::straggler::Stage;
use crate::trace::{Counter, StageKind, TraceEvent, TraceLevel, TraceRecorder};
use crate::window::{WindowResult, WindowState};

/// A batch past the *buffering* state of the driver's state machine:
/// ingested, counted, retained in the recovery store when the run keeps one,
/// and partitioned — everything up to (but excluding) execution and commit.
/// When `pipeline_depth` exceeds 1, up to `depth` of these sit in the
/// prepare queue while older batches execute; on the distributed backend
/// their Map tasks are already on the wire.
///
/// It is also the only carrier of the actuator state the batch was prepared
/// under — `r`, `technique`, `routing`: everything downstream of
/// [`Run::fill`] reads these, never the run's current values, which a
/// controller may have moved for a younger batch in the meantime.
pub(crate) struct PreparedBatch {
    seq: u64,
    interval: Interval,
    n_tuples: usize,
    n_keys: usize,
    /// The plan, in the layout it was sealed in: what executes, and what
    /// metrics, the policy and the rebalancer read the fragment lists of.
    plan: Plan,
    raw_overhead: Duration,
    visible_overhead: Duration,
    /// The Reduce task count in force when the batch was filled.
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
    /// Processing time of suffix recomputes after a store loss; billed to
    /// this batch.
    restore_times: Vec<Duration>,
}

impl PreparedBatch {
    fn planned<'a>(&'a self, eng: &'a StreamingEngine, wire: WireSeqs) -> Planned<'a> {
        let assigner = eng
            .strategies
            .assigner(self.technique, self.routing.as_ref());
        Planned {
            seq: wire.of(self.seq),
            tseq: self.seq,
            view: PlanView::of(&self.plan),
            job: &eng.job,
            r: self.r,
            assigner,
        }
    }
}

/// A run's slice of the worker fleet's batch-seq space, as `(stride,
/// offset)`. Every seq handed to
/// [`DistributedRuntime`](crate::net::DistributedRuntime) goes through
/// [`WireSeqs::of`]: a solo run owns the space (`WireSeqs(1, 0)`, the
/// identity), while tenant `i` of `n` takes `WireSeqs(n, i)` and interleaves
/// with its neighbours, so tenants never collide in the workers' per-batch
/// shuffle state. Traces, the retained inputs and every result keep the run's
/// own seqs.
#[derive(Clone, Copy)]
pub(crate) struct WireSeqs(pub(crate) u64, pub(crate) u64);

impl WireSeqs {
    fn of(self, seq: u64) -> u64 {
        seq * self.0 + self.1
    }
}

/// Everything one run carries from batch to batch. Built once per run by
/// [`Run::new`], consumed by [`Run::finish`].
pub(crate) struct Run<'e> {
    eng: &'e mut StreamingEngine,
    source: &'e mut dyn TupleSource,
    rec: TraceRecorder,
    result: RunResult,
    wire: WireSeqs,
    /// The in-flight window: partitioned batches awaiting execution, oldest
    /// first (at most [`EngineConfig::pipeline_depth`](crate::config::EngineConfig)).
    pub(super) prepared: VecDeque<PreparedBatch>,
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
    /// Replicated batch inputs (§8 point 2); `Some` exactly when a
    /// [`FaultPlan`] is configured: its replays ([`Run::replay`]) are all that
    /// read an input back — a worker loss resubmits the plan in hand, and a
    /// resume reads the checkpoint. A checkpointed run truncates them at its
    /// watermark.
    store: Option<ReplicatedBatchStore>,
    /// The recovery budget: replicas per retained input, and how many worker
    /// losses one execution of a batch may survive.
    replicas: usize,
    fault_plan: FaultPlan,
    window_len_batches: u64,
}

impl<'e> Run<'e> {
    pub(crate) fn new(
        eng: &'e mut StreamingEngine,
        source: &'e mut dyn TupleSource,
        wire: WireSeqs,
    ) -> Run<'e> {
        let cfg = &eng.cfg;
        let bi = cfg.batch_interval;
        let state_on = cfg.checkpoint.is_some() || eng.stateful.is_some();
        assert!(
            !state_on || eng.window.is_some(),
            "checkpointing and stateful operators require a window (with_window)"
        );
        let window = match eng.window {
            Some(spec) if !state_on => Some(WindowState::new(spec, bi, eng.job.reduce)),
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
            wire,
            prepared: VecDeque::new(),
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
            store: (!fault_plan.is_empty()).then(|| ReplicatedBatchStore::new(replicas)),
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

    /// Resume a restarted run from its checkpoint directory: [`Run::fill`]
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

    /// A scheduled [`FaultPlan`] event is a barrier: a batch that loses its
    /// state or the store is filled only into an empty window and nothing is
    /// filled behind it until it commits, so its replays (which run under
    /// the run's *current* counts and routing) see exactly the depth-1
    /// world. True when `seq` must wait for the window to drain.
    pub(super) fn fault_barrier(&self, seq: u64) -> bool {
        let faulted = |s| self.fault_plan.losses_for(s) > 0 || self.fault_plan.loses_store_at(s);
        self.prepared
            .back()
            .is_some_and(|last| faulted(seq) || faulted(last.seq))
    }

    /// Advance batch `seq` from *buffering* to *partitioned*: ingest its
    /// interval, let every controller that acts at the batch boundary act
    /// (store-loss restore, policy, rebalancer), retain the input if the run
    /// keeps inputs, partition it under the run's current actuator state —
    /// which the batch carries from here on — and put its Map tasks on the
    /// wire. `None` when a restored checkpoint already covers the batch.
    pub(crate) fn fill(&mut self, seq: u64, backend: &mut BackendRuntime) -> Option<PreparedBatch> {
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
        let n_tuples = batch.len();
        self.rec.incr(Counter::Batches, 1);
        self.rec.incr(Counter::Tuples, n_tuples as u64);
        let restore_times = self.restore_lost_store(seq, backend);
        let (decision, decide_us) = self.decide(seq);
        let technique = decision
            .as_ref()
            .map_or(self.eng.technique, |d| d.technique);
        if let Some(store) = self.store.as_mut() {
            // The buffer is shared (`Arc`), so recovery reads and replica
            // accounting never deep-copy the tuples again. The technique
            // rides along (and expires with the input): a replay must
            // re-partition with the strategy the original run used.
            store.retain(seq, batch.tuples.as_slice().into(), technique);
            let stats = &mut self.sstats;
            stats.max_retained_tuples = stats
                .max_retained_tuples
                .max(store.retained_tuples() as u64);
            stats.max_retained_batches = stats.max_retained_batches.max(store.len() as u64);
        }
        self.apply_rebalance(seq);

        // Partition (optionally measuring real cost). The phase timings —
        // select / seal / symbolic / materialize — only reach the trace.
        let t0 = std::time::Instant::now();
        let eng = &mut *self.eng;
        let partitioner = eng.strategies.registry.get_or_build(technique);
        // Columnar when the flag is on and the technique seals one, else rows
        // — per batch; nothing downstream renders the other layout.
        let columnar = if eng.cfg.columnar {
            partitioner.partition_columnar(&batch, self.p)
        } else {
            None
        };
        let (plan, phases) = match columnar {
            Some((cols, phases)) => (Plan::Columns(cols), phases),
            None => {
                let (rows, phases) = partitioner.partition_phased(&batch, self.p);
                (Plan::Rows(rows), phases)
            }
        };
        let raw_overhead = match eng.cfg.overhead {
            OverheadMode::None => Duration::ZERO,
            OverheadMode::Fixed(d) => d,
            OverheadMode::Measured => Duration::from_micros(t0.elapsed().as_micros() as u64),
        };
        self.trace_partition_phases(seq, decision.is_some(), decide_us, &phases);
        // Partitioners conserve tuples, so the plan's distinct keys are the
        // batch's: counted once, for the record and the plan metrics both.
        let blocks = plan.fragments();
        let n_keys = total_keys(&blocks, PlanView::of(&plan).split_keys());
        let metrics = PlanMetrics::of_blocks(&blocks, n_keys);
        if let Some(pol) = self.eng.policy.as_mut() {
            pol.observe(&BatchObservation {
                seq,
                technique,
                n_tuples,
                n_keys,
                map_tasks: self.p,
                metrics,
                blocks: &blocks,
            });
        }
        self.arrivals = batch.tuples; // reuse the allocation next interval
        let pb = PreparedBatch {
            seq,
            interval,
            n_tuples,
            n_keys,
            plan,
            raw_overhead,
            visible_overhead: raw_overhead - self.eng.cfg.early_release_slack(),
            r: self.r,
            technique,
            routing: self.routing(),
            decision,
            metrics,
            restore_times,
        };
        backend.submit(&pb.planned(self.eng, self.wire), &self.rec);
        Some(pb)
    }

    /// A scheduled loss of the whole keyed state store at batch `seq`:
    /// rebuild from the latest checkpoint (or from scratch when none exists)
    /// and recompute only the post-watermark suffix from retained inputs.
    /// Returns the suffix recomputes' processing times, billed to `seq`.
    fn restore_lost_store(&mut self, seq: u64, backend: &mut BackendRuntime) -> Vec<Duration> {
        let mut replay_times = Vec::new();
        if self.state_store.is_none() || !self.fault_plan.loses_store_at(seq) {
            return replay_times;
        }
        let (mut rebuilt, covered, bytes) = self.durable_state();
        for b in covered..seq {
            let (output, times) = self.replay(b, backend).unwrap_or_else(|e| {
                panic!("state loss at batch {seq}: batch {b} unrecoverable: {e}")
            });
            // Replay into the rebuilt store, discarding emissions — the
            // original run already emitted these windows.
            rebuilt.push(&output);
            replay_times.push(times.processing());
        }
        self.record_restore(seq, covered, bytes, replay_times.len() as u64);
        self.state_store = Some(rebuilt);
        replay_times
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
        view: PlanView<'_>,
        (r, technique, routing): (usize, Technique, Option<&RoutingTable>),
        backend: &mut BackendRuntime,
    ) -> (BatchOutput, StageTimes) {
        let (eng, wire) = (&*self.eng, self.wire);
        let batch = Planned {
            seq: wire.of(seq),
            tseq: seq,
            view,
            job: &eng.job,
            r,
            assigner: eng.strategies.assigner(technique, routing),
        };
        let (output, times, losses) = backend.execute(
            &batch,
            self.prepared.iter().map(|q| q.planned(eng, wire)),
            &eng.cfg,
            &self.rec,
            self.replicas,
        );
        self.charge(losses);
        (output, times)
    }

    /// Recompute batch `b` from its replicated input (§8), spending one
    /// replica: the shared retained buffer is re-partitioned in place — no
    /// deep copy — with the strategy the original run used (retained next to
    /// the input), and executed on the backend under the run's *current*
    /// counts and routing. Replays only happen behind
    /// [`Run::fault_barrier`], where current is what depth 1 would see.
    fn replay(
        &mut self,
        b: u64,
        backend: &mut BackendRuntime,
    ) -> Result<(BatchOutput, StageTimes), RecoveryError> {
        let store = self.store.as_mut().expect("fault plans retain inputs");
        let (input, technique) = store.recover(b)?;
        let interval = self.interval_of(b);
        let partitioner = self.eng.strategies.registry.get_or_build(technique);
        let replan = partitioner.partition_slice(&input, interval, self.p);
        let routing = self.routing();
        let under = (self.r, technique, routing.as_ref());
        Ok(self.run_plan(b, PlanView::Rows(&replan), under, backend))
    }

    /// Execute the oldest in-flight batch on the configured backend. At
    /// depth > 1 a distributed batch is already in flight (maps dispatched
    /// at [`Run::fill`]); waiting on it also advances the younger batches
    /// of the window.
    pub(crate) fn execute(
        &mut self,
        pb: &PreparedBatch,
        backend: &mut BackendRuntime,
    ) -> (BatchOutput, StageTimes) {
        let under = (pb.r, pb.technique, pb.routing.as_ref());
        let (output, mut times) = self.run_plan(pb.seq, PlanView::of(&pb.plan), under, backend);
        self.inject_stragglers(pb.seq, &mut times);
        (output, times)
    }

    /// Inflate the task times scripted stragglers hit and recompute the
    /// stage makespans.
    fn inject_stragglers(&self, seq: u64, times: &mut StageTimes) {
        let (plan, cluster) = (&self.eng.stragglers, &self.eng.cfg.cluster);
        if plan.is_empty() {
            return;
        }
        plan.apply(seq, &mut times.map_tasks, &mut times.reduce_tasks);
        times.map_stage = cluster.makespan(&times.map_tasks);
        times.reduce_stage = cluster.makespan(&times.reduce_tasks);
        if !self.rec.enabled() {
            return;
        }
        for e in plan.events_for(seq) {
            // Mirror `apply`: out-of-range task indices did nothing, so
            // they are not recorded either.
            let (stage, n) = match e.stage {
                Stage::Map => (StageKind::MapStage, times.map_tasks.len()),
                Stage::Reduce => (StageKind::ReduceStage, times.reduce_tasks.len()),
            };
            if e.task < n {
                self.rec.incr(Counter::Stragglers, 1);
                self.rec.event(TraceEvent::Straggler {
                    seq,
                    stage,
                    task: e.task,
                    slowdown: e.slowdown,
                });
            }
        }
    }

    /// Commit an executed batch. Everything with cross-batch feedback —
    /// pipeline clock, windows, checkpoints, retention expiry, scaling —
    /// runs here, in strict batch order.
    pub(crate) fn commit(
        &mut self,
        mut pb: PreparedBatch,
        mut output: BatchOutput,
        times: StageTimes,
        backend: &mut BackendRuntime,
    ) {
        let seq = pb.seq;
        let bi = self.eng.cfg.batch_interval;
        self.observe_load(&pb, &times);

        // Suffix recomputes after a store loss bill this batch, exactly like
        // the injected-loss recomputations below.
        let mut recovery_times = std::mem::take(&mut pb.restore_times);
        let mut processing = pb.visible_overhead + times.processing();
        for &d in &recovery_times {
            processing += d;
        }
        // Fault injection: each scheduled loss of this batch's state forces
        // one recomputation from the replicated input.
        for _ in 0..self.fault_plan.losses_for(seq) {
            let (recovered, retimes) = self
                .replay(seq, backend)
                .expect("injected failure beyond recovery budget");
            output = recovered;
            processing += retimes.processing();
            recovery_times.push(retimes.processing());
            self.result.recoveries += 1;
            self.rec.incr(Counter::Recoveries, 1);
            let replicas_left = self.store.as_ref().and_then(|s| s.replicas_left(seq));
            self.rec.event(TraceEvent::Recovery {
                seq,
                replicas_left: replicas_left.unwrap_or(0),
            });
        }
        if let Some(store) = self.store.as_mut() {
            // Without checkpointing, batches that have produced output and
            // left every window can drop their replicated input (§8) — unless
            // a store loss is still to come, which rebuilds from batch zero.
            // With checkpointing, retention is truncated at the checkpoint
            // watermark on commit instead — durable state covers everything
            // before it.
            let rebuild_ahead = self.fault_plan.lose_store.iter().any(|&s| s > seq);
            if self.checkpointer.is_none() && !rebuild_ahead && seq + 1 >= self.window_len_batches {
                store.expire_through(seq + 1 - self.window_len_batches);
            }
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
        self.commit_window(output);

        if let Some(d) = pb.decision {
            self.result.policy_decisions.push(d);
        }
        self.result.batches.push(BatchRecord {
            seq,
            n_tuples: pb.n_tuples,
            n_keys: pb.n_keys,
            map_tasks: PlanView::of(&pb.plan).n_blocks(),
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
        // Nothing reads the plan any more: its buffers are what the
        // technique builds a later batch's plan in.
        let partitioner = self.eng.strategies.registry.get_or_build(pb.technique);
        partitioner.recycle(pb.plan);
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
        let group_tuples = group_weights(&pb.plan.fragments(), table.n_groups());
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
        if (PlanView::of(&pb.plan).n_blocks(), pb.r) != (sc.map_tasks(), sc.reduce_tasks()) {
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
                effective_seq: self.prepared.back().map_or(seq, |q| q.seq) + 1,
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

    /// Window maintenance: through the sharded state store (with checkpoint
    /// commits and watermark truncation) when the state layer is active,
    /// else the serial `WindowState`. The two paths are bit-identical.
    fn commit_window(&mut self, output: BatchOutput) {
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
    /// input retention is truncated at its watermark.
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
        if let Some(store) = self.store.as_mut() {
            store.expire_through(commit.seq);
        }
    }

    /// Hand back the run's results and trace.
    pub(crate) fn finish(mut self) -> (RunResult, TraceRecorder) {
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
        (self.result, self.rec)
    }
}

//! Multi-tenant execution: N concurrent jobs sharing one cluster.
//!
//! The ROADMAP north-star is a production-scale deployment serving many
//! concurrent queries, but every figure-reproduction drives exactly one job.
//! [`MultiTenantEngine`] closes that gap: each tenant keeps its own
//! partitioner, reduce assigner and window state (so query answers are — by
//! construction — bit-identical to the tenant running alone), while the
//! tenants *compete for task slots* through a weighted-fair scheduler that
//! replaces the per-job LPT makespan of
//! [`Cluster::makespan`](crate::cluster::Cluster::makespan). Contention
//! is therefore purely a timing effect: latency, queueing and back-pressure
//! are per-tenant (isolated), and a [`NoisyNeighbor`] injector can inflate
//! one tenant's task times to measure how well the fair scheduler protects
//! the others.
//!
//! With a single tenant the fair scheduler degenerates bit-exactly to the
//! LPT rule, so a solo [`MultiTenantEngine`] run reproduces
//! [`StreamingEngine`](crate::driver::StreamingEngine) timings too.
//!
//! Tenant batches commit *jointly* at each heartbeat — phase 2's shared-slot
//! schedule needs every tenant's stage times for the same seq — so the
//! multi-tenant loop always runs one lifecycle per heartbeat:
//! [`EngineConfig::pipeline_depth`](crate::config::EngineConfig) is accepted
//! but inert here (every tenant batch runs through the backend's
//! submit→wait path as a window of one, i.e. effective depth 1), and a
//! `pipeline_depth > 1` config is bit-identical to depth 1 for every
//! tenant.

use prompt_core::batch::MicroBatch;
use prompt_core::metrics::PlanMetrics;
use prompt_core::partitioner::{Partitioner, Technique};
use prompt_core::reduce::ReduceAssigner;
use prompt_core::types::{Duration, Interval, Time, Tuple};

use crate::backend::{BackendRuntime, Planned};
use crate::config::{EngineConfig, OverheadMode};
use crate::driver::{BatchRecord, ReduceStrategy, StrategySet};
use crate::job::Job;
use crate::policy::{build_policy, BatchObservation, PartitionerPolicy, PolicySpec};
use crate::rebalance::{
    group_weights, imbalance_ratio, ForcedMigrations, GroupRoutedAssigner, RebalanceObservation,
    RebalancePolicy, RoutingTable, SharedRoutingTable,
};
use crate::source::TupleSource;
use crate::stage::{BatchOutput, StageTimes};
use crate::trace::{Counter, StageKind, TraceEvent, TraceRecorder};
use crate::window::{WindowResult, WindowSpec, WindowState};

/// One tenant job in a shared-cluster run.
pub struct TenantSpec {
    /// Tenant name (used to tag trace lines; must not contain `"`).
    pub name: String,
    /// Batching technique (paired with its natural reduce strategy).
    pub technique: Technique,
    /// Seed for the tenant's partitioner/assigner routing.
    pub seed: u64,
    /// The tenant's query.
    pub job: Job,
    /// Optional window maintained over the tenant's batch outputs.
    pub window: Option<WindowSpec>,
    /// Fair-share weight (≥ 1): a weight-2 tenant is entitled to twice the
    /// slot time of a weight-1 tenant under contention.
    pub weight: u32,
    /// Which partitioner runs each of this tenant's batches. `Fixed` (the
    /// default) keeps [`TenantSpec::technique`] for the whole run; a
    /// non-`Fixed` spec hot-swaps per batch exactly like the solo driver,
    /// with `technique` as batch 0's strategy.
    pub policy: PolicySpec,
}

impl TenantSpec {
    /// A weight-1, windowless tenant.
    pub fn new(name: impl Into<String>, technique: Technique, seed: u64, job: Job) -> TenantSpec {
        let name = name.into();
        assert!(!name.contains('"'), "tenant names must not contain quotes");
        TenantSpec {
            name,
            technique,
            seed,
            job,
            window: None,
            weight: 1,
            policy: PolicySpec::default(),
        }
    }

    /// Attach a window computation.
    pub fn with_window(mut self, spec: WindowSpec) -> TenantSpec {
        self.window = Some(spec);
        self
    }

    /// Set the partitioner-selection policy (validated at engine build).
    pub fn with_policy(mut self, policy: PolicySpec) -> TenantSpec {
        self.policy = policy;
        self
    }

    /// Set the fair-share weight.
    pub fn with_weight(mut self, weight: u32) -> TenantSpec {
        assert!(weight >= 1, "weights start at 1");
        self.weight = weight;
        self
    }
}

/// Scripted interference: inflate one tenant's task times over a batch
/// range, as if its executors were colocated with an antagonist. Timing
/// only — outputs are never touched.
#[derive(Clone, Copy, Debug)]
pub struct NoisyNeighbor {
    /// Index of the tenant to slow down.
    pub tenant: usize,
    /// First affected batch seq (inclusive).
    pub from_seq: u64,
    /// Last affected batch seq (exclusive).
    pub until_seq: u64,
    /// Multiplier applied to every task time (> 1 slows down).
    pub slowdown: f64,
}

impl NoisyNeighbor {
    /// Whether this injection hits `(tenant, seq)`.
    fn applies(&self, tenant: usize, seq: u64) -> bool {
        tenant == self.tenant && (self.from_seq..self.until_seq).contains(&seq)
    }
}

/// Per-tenant outcome of a shared-cluster run.
pub struct TenantRun {
    /// The tenant's name.
    pub name: String,
    /// One record per batch (timings reflect shared-cluster contention).
    pub batches: Vec<BatchRecord>,
    /// Emitted window results.
    pub windows: Vec<WindowResult>,
    /// Whether *this tenant's* queue crossed the back-pressure threshold.
    pub backpressure: bool,
    /// Distributed worker losses recovered during this tenant's batches.
    pub worker_losses: u64,
    /// Migration plans this tenant's rebalancer applied, in batch order —
    /// replaying them through
    /// [`RebalanceSpec::Forced`](crate::rebalance::RebalanceSpec) on a solo
    /// engine reproduces the tenant's routing bit for bit. Empty when
    /// [`EngineConfig::rebalance`](crate::config::EngineConfig) is off.
    pub migrations: ForcedMigrations,
    /// Per-batch slot-contention penalty: how much longer the tenant's
    /// stages took under sharing than they would have alone (LPT).
    pub slot_waits: Vec<Duration>,
    /// The tenant's trace (tag with [`tagged_jsonl`] before merging).
    pub trace: TraceRecorder,
}

/// Outcome of [`MultiTenantEngine::run`].
pub struct MultiTenantResult {
    /// One entry per tenant, in spec order.
    pub tenants: Vec<TenantRun>,
}

impl MultiTenantResult {
    /// All tenants' traces merged into one tenant-tagged JSONL stream.
    pub fn tagged_trace_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.tenants {
            out.push_str(&tagged_jsonl(&t.name, &t.trace));
        }
        out
    }
}

/// Render a tenant's trace as JSONL with `"tenant":"name"` injected as the
/// first field of every line, so merged multi-tenant streams stay
/// attributable. Round-trips through [`parse_tagged_jsonl`].
pub fn tagged_jsonl(name: &str, rec: &TraceRecorder) -> String {
    let mut out = String::new();
    for line in rec.to_jsonl().lines() {
        let rest = line.strip_prefix('{').expect("trace lines are objects");
        out.push_str(&format!("{{\"tenant\":\"{name}\",{rest}\n"));
    }
    out
}

/// Parse a tenant-tagged JSONL stream back into `(tenant, event)` pairs.
pub fn parse_tagged_jsonl(text: &str) -> Result<Vec<(String, TraceEvent)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let rest = line
            .strip_prefix("{\"tenant\":\"")
            .ok_or_else(|| format!("line {}: missing tenant tag", i + 1))?;
        let (name, event_rest) = rest
            .split_once("\",")
            .ok_or_else(|| format!("line {}: malformed tenant tag", i + 1))?;
        let events = crate::trace::parse_jsonl(&format!("{{{event_rest}"))?;
        let event = events
            .into_iter()
            .next()
            .ok_or_else(|| format!("line {}: empty event", i + 1))?;
        out.push((name.to_string(), event));
    }
    Ok(out)
}

/// Weighted-fair slot scheduling for one stage: every tenant's tasks are
/// considered in LPT order, the next placement always goes to the tenant
/// with the smallest `allocated / weight` ratio (ties to the lowest
/// index), and each task lands on the least-loaded slot — the same
/// placement rule as [`makespan_on_slots`](crate::cluster::makespan_on_slots).
/// Returns each tenant's completion time (the finish of its last task).
///
/// With one tenant this is exactly LPT, so the returned makespan equals
/// [`Cluster::makespan`](crate::cluster::Cluster::makespan) bit-for-bit.
pub fn fair_makespans(tenants: &[(u32, Vec<Duration>)], slots: usize) -> Vec<Duration> {
    assert!(slots > 0, "need at least one slot");
    let mut queues: Vec<Vec<Duration>> = tenants
        .iter()
        .map(|(_, tasks)| {
            let mut sorted = tasks.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            sorted.reverse(); // pop() takes the longest remaining task
            sorted
        })
        .collect();
    let mut allocated = vec![0u64; tenants.len()];
    let mut finish = vec![Duration::ZERO; tenants.len()];
    let mut loads = vec![Duration::ZERO; slots];
    loop {
        // Next tenant: smallest allocated/weight with tasks left, exact
        // arithmetic via cross-multiplication, ties to the lowest index.
        let mut pick: Option<usize> = None;
        for (i, q) in queues.iter().enumerate() {
            if q.is_empty() {
                continue;
            }
            pick = Some(match pick {
                None => i,
                Some(j) => {
                    let lhs = allocated[i] as u128 * tenants[j].0 as u128;
                    let rhs = allocated[j] as u128 * tenants[i].0 as u128;
                    if lhs < rhs {
                        i
                    } else {
                        j
                    }
                }
            });
        }
        let Some(i) = pick else { break };
        let task = queues[i].pop().expect("picked tenant has tasks");
        allocated[i] += task.0;
        // First minimum wins, matching `makespan_on_slots`'s min_by_key.
        let slot = loads
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.0)
            .map(|(s, _)| s)
            .expect("slots non-empty");
        loads[slot] += task;
        finish[i] = finish[i].max(loads[slot]);
    }
    finish
}

/// Per-tenant mutable state across the run.
struct TenantState {
    partitioner: Box<dyn Partitioner>,
    assigner: Box<dyn ReduceAssigner>,
    /// Per-technique strategy pool; `Some` exactly when `policy` is.
    strategies: Option<StrategySet>,
    /// Per-batch technique selection for non-`Fixed` tenant policies.
    policy: Option<Box<dyn PartitionerPolicy>>,
    /// Key-group routing table; `Some` exactly when the config rebalances.
    /// Each tenant owns an independent table — streams, loads and
    /// migrations are tenant-local.
    routing: Option<SharedRoutingTable>,
    /// The rebalancing policy; `Some` exactly when `routing` is.
    rebalancer: Option<Box<dyn RebalancePolicy>>,
    /// Last committed batch's reduce imbalance (context for trace events).
    last_imbalance: f64,
    window: Option<WindowState>,
    pipeline_free_at: Time,
    run: TenantRun,
}

/// N concurrent jobs on one shared cluster (see the module docs).
pub struct MultiTenantEngine {
    cfg: EngineConfig,
    tenants: Vec<TenantSpec>,
    noisy: Vec<NoisyNeighbor>,
}

impl MultiTenantEngine {
    /// Build a shared-cluster engine for `tenants` under `cfg`. The config's
    /// task counts, cost model, cluster shape, overhead mode, back-pressure
    /// threshold, trace level and backend apply to every tenant.
    pub fn new(cfg: EngineConfig, tenants: Vec<TenantSpec>) -> MultiTenantEngine {
        cfg.validate().expect("invalid engine config");
        assert!(!tenants.is_empty(), "need at least one tenant");
        for t in &tenants {
            t.policy
                .validate()
                .unwrap_or_else(|e| panic!("tenant '{}' policy invalid: {e}", t.name));
        }
        MultiTenantEngine {
            cfg,
            tenants,
            noisy: Vec::new(),
        }
    }

    /// Attach noisy-neighbor injections.
    pub fn with_noisy_neighbors(mut self, noisy: Vec<NoisyNeighbor>) -> MultiTenantEngine {
        for n in &noisy {
            assert!(n.tenant < self.tenants.len(), "noisy tenant out of range");
            assert!(n.slowdown > 0.0, "slowdown must be positive");
        }
        self.noisy = noisy;
        self
    }

    /// Access the configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Run all tenants for `n_batches` heartbeats, tenant `i` reading from
    /// `sources[i]`. Within each heartbeat every tenant's batch is
    /// partitioned and executed with its own partitioner/assigner/window
    /// (outputs identical to a solo run), then both stages are scheduled
    /// jointly on the shared slots by [`fair_makespans`] — the timing each
    /// tenant's [`BatchRecord`]s report.
    pub fn run(
        &mut self,
        sources: &mut [Box<dyn TupleSource>],
        n_batches: usize,
    ) -> MultiTenantResult {
        assert_eq!(
            sources.len(),
            self.tenants.len(),
            "one source per tenant required"
        );
        let bi = self.cfg.batch_interval;
        let n_tenants = self.tenants.len();
        let mut backend =
            BackendRuntime::launch(self.cfg.backend, self.tenants.iter().map(|t| &t.job));
        let mut states: Vec<TenantState> = self
            .tenants
            .iter()
            .map(|spec| {
                // Rebalancing tenants route through their own key-group
                // table; the recorded plans replay on a solo engine (the
                // cell oracle), mirroring the solo driver's wiring.
                let routing: Option<SharedRoutingTable> =
                    self.cfg.rebalance.n_groups().map(|n_groups| {
                        std::sync::Arc::new(std::sync::Mutex::new(RoutingTable::new(
                            n_groups,
                            self.cfg.reduce_tasks,
                        )))
                    });
                let assigner: Box<dyn ReduceAssigner> = match &routing {
                    Some(table) => Box::new(GroupRoutedAssigner::new(std::sync::Arc::clone(table))),
                    None => ReduceStrategy::for_technique(spec.technique).build_boxed(spec.seed),
                };
                TenantState {
                    partitioner: spec.technique.build(spec.seed),
                    assigner,
                    strategies: (!spec.policy.is_fixed())
                        .then(|| StrategySet::new(spec.seed, 1, 1)),
                    policy: (!spec.policy.is_fixed())
                        .then(|| build_policy(&spec.policy, spec.technique, spec.seed)),
                    routing,
                    rebalancer: self.cfg.rebalance.build(),
                    last_imbalance: 1.0,
                    window: spec
                        .window
                        .map(|w| WindowState::new(w, bi, spec.job.reduce)),
                    pipeline_free_at: Time::ZERO,
                    run: TenantRun {
                        name: spec.name.clone(),
                        batches: Vec::with_capacity(n_batches),
                        windows: Vec::new(),
                        backpressure: false,
                        worker_losses: 0,
                        migrations: Vec::new(),
                        slot_waits: Vec::with_capacity(n_batches),
                        trace: TraceRecorder::new(self.cfg.trace),
                    },
                }
            })
            .collect();
        let p = self.cfg.map_tasks;
        let r = self.cfg.reduce_tasks;
        let n_groups = self.cfg.rebalance.n_groups().unwrap_or(0);
        let mut arrivals: Vec<Tuple> = Vec::new();

        for seq in 0..n_batches as u64 {
            let interval = Interval::new(Time(bi.0 * seq), Time(bi.0 * (seq + 1)));
            // Phase 1: per-tenant ingest, partition and execute. Outputs and
            // per-task times are tenant-local; only slot time is shared.
            let mut outputs: Vec<BatchOutput> = Vec::with_capacity(n_tenants);
            let mut all_times: Vec<StageTimes> = Vec::with_capacity(n_tenants);
            let mut overheads: Vec<(Duration, Duration)> = Vec::with_capacity(n_tenants);
            let mut plan_stats: Vec<(usize, usize, usize, PlanMetrics, Technique)> =
                Vec::with_capacity(n_tenants);
            // Per-tenant key-group tuple weights of this heartbeat's plans
            // (`Some` only for rebalancing tenants) — the phase-3 ledger
            // observations decompose worker load with them.
            let mut group_tuples_all: Vec<Option<Vec<u64>>> = Vec::with_capacity(n_tenants);
            for (i, st) in states.iter_mut().enumerate() {
                let tracing = st.run.trace.enabled();
                arrivals.clear();
                sources[i].fill(interval, &mut arrivals);
                debug_assert!(
                    arrivals.windows(2).all(|w| w[0].ts <= w[1].ts),
                    "source must emit in timestamp order"
                );
                let batch = MicroBatch::new(std::mem::take(&mut arrivals), interval);
                let n_tuples = batch.len();
                let n_keys = batch.distinct_keys();
                st.run.trace.incr(Counter::Batches, 1);
                st.run.trace.incr(Counter::Tuples, n_tuples as u64);
                // Per-batch technique resolution, mirroring the solo driver:
                // a non-Fixed tenant policy may hot-swap the strategy here.
                let dec0 = std::time::Instant::now();
                let decision = st.policy.as_mut().map(|pol| pol.decide(seq));
                let decide_us = dec0.elapsed().as_micros() as u64;
                let technique = decision
                    .as_ref()
                    .map(|d| d.technique)
                    .unwrap_or(self.tenants[i].technique);
                if let Some(d) = decision.as_ref() {
                    st.run.trace.incr(Counter::PolicyDecisions, 1);
                    if d.switched {
                        st.run.trace.incr(Counter::PolicySwitches, 1);
                        st.run.trace.event(TraceEvent::PolicySwitch {
                            seq,
                            from: d.prev.label(),
                            to: d.technique.label(),
                        });
                    }
                    if tracing {
                        st.run.trace.phase(
                            seq,
                            StageKind::Select,
                            Duration::from_micros(decide_us),
                        );
                    }
                }
                // Rebalance boundary, mirroring the solo driver's fill
                // phase: apply the policy's plan before this batch is
                // partitioned and assigned. Tenancy has no keyed-state
                // layer, so group moves carry no payload bytes.
                if let (Some(reb), Some(table)) = (st.rebalancer.as_mut(), st.routing.as_ref()) {
                    let mplan = reb.decide(seq);
                    if !mplan.is_empty() {
                        let version = {
                            let mut t = table.lock().expect("routing table poisoned");
                            t.apply(&mplan).expect("rebalance plan must apply cleanly");
                            t.version()
                        };
                        st.run.trace.incr(Counter::Rebalances, 1);
                        st.run
                            .trace
                            .incr(Counter::GroupsMoved, mplan.moves.len() as u64);
                        st.run.trace.event(TraceEvent::Rebalance {
                            seq,
                            version,
                            moves: mplan.moves.len() as u64,
                            imbalance: st.last_imbalance,
                        });
                        for mv in &mplan.moves {
                            st.run.trace.event(TraceEvent::GroupMigrate {
                                seq,
                                group: mv.group,
                                from: mv.from,
                                to: mv.to,
                                bytes: 0,
                            });
                        }
                        st.run.migrations.push((seq, mplan));
                    }
                }
                let (part, asg): (&mut dyn Partitioner, &mut dyn ReduceAssigner) =
                    match (st.strategies.as_mut(), decision.as_ref()) {
                        (Some(set), Some(d)) => set.pair_mut(d.technique),
                        _ => (st.partitioner.as_mut(), st.assigner.as_mut()),
                    };
                let t0 = std::time::Instant::now();
                let plan = part.partition(&batch, p);
                let raw_overhead = match self.cfg.overhead {
                    OverheadMode::None => Duration::ZERO,
                    OverheadMode::Fixed(d) => d,
                    OverheadMode::Measured => {
                        Duration::from_micros(t0.elapsed().as_micros() as u64)
                    }
                };
                let visible_overhead = raw_overhead - self.cfg.early_release_slack();
                let metrics = PlanMetrics::of(&plan);
                if let Some(pol) = st.policy.as_mut() {
                    pol.observe(&BatchObservation {
                        seq,
                        technique,
                        n_tuples,
                        n_keys,
                        map_tasks: p,
                        metrics,
                        plan: &plan,
                    });
                }
                let planned = Planned {
                    // Namespace wire seqs so tenants never collide in the
                    // workers' per-batch shuffle state.
                    seq: seq * n_tenants as u64 + i as u64,
                    tseq: seq,
                    plan: &plan,
                    columnar: None,
                    job: &self.tenants[i].job,
                    r,
                };
                // Tenancy retains no batch inputs: a worker loss resubmits
                // the plan in hand without spending a replica.
                let (output, mut times, losses) = backend.execute(
                    &planned,
                    std::iter::empty(),
                    asg,
                    &self.cfg,
                    &st.run.trace,
                    None,
                );
                st.run.worker_losses += losses;
                for noise in self.noisy.iter().filter(|n| n.applies(i, seq)) {
                    for t in times.map_tasks.iter_mut().chain(&mut times.reduce_tasks) {
                        *t = t.mul_f64(noise.slowdown);
                    }
                }
                group_tuples_all.push(st.routing.is_some().then(|| group_weights(&plan, n_groups)));
                arrivals = batch.tuples; // reuse the allocation next tenant
                outputs.push(output);
                plan_stats.push((n_tuples, n_keys, plan.n_blocks(), metrics, technique));
                overheads.push((raw_overhead, visible_overhead));
                all_times.push(times);
            }

            // Phase 2: joint stage scheduling on the shared slots.
            let slots = self.cfg.cluster.slots();
            let weights: Vec<u32> = self.tenants.iter().map(|t| t.weight).collect();
            let map_input: Vec<(u32, Vec<Duration>)> = all_times
                .iter()
                .zip(&weights)
                .map(|(t, &w)| (w, t.map_tasks.clone()))
                .collect();
            let reduce_input: Vec<(u32, Vec<Duration>)> = all_times
                .iter()
                .zip(&weights)
                .map(|(t, &w)| (w, t.reduce_tasks.clone()))
                .collect();
            let map_spans = fair_makespans(&map_input, slots);
            let reduce_spans = fair_makespans(&reduce_input, slots);

            // Phase 3: per-tenant accounting (pipelining, back-pressure,
            // windows) — fully isolated.
            for (i, st) in states.iter_mut().enumerate() {
                let times = &all_times[i];
                let (raw_overhead, visible_overhead) = overheads[i];
                let (n_tuples, n_keys, n_blocks, metrics, technique) = plan_stats[i];
                let map_stage = map_spans[i];
                let reduce_stage = reduce_spans[i];
                let solo_map = self.cfg.cluster.makespan(&times.map_tasks);
                let solo_reduce = self.cfg.cluster.makespan(&times.reduce_tasks);
                let slot_wait = (map_stage - solo_map) + (reduce_stage - solo_reduce);
                let processing = visible_overhead + map_stage + reduce_stage;
                let heartbeat = interval.end;
                let start = if st.pipeline_free_at > heartbeat {
                    st.pipeline_free_at
                } else {
                    heartbeat
                };
                let queue_delay = start.since(heartbeat);
                st.pipeline_free_at = start + processing;
                let latency = bi + queue_delay + processing;
                let w = processing.as_secs_f64() / bi.as_secs_f64();

                let rec = &st.run.trace;
                if rec.enabled() {
                    rec.span(seq, StageKind::Accumulate, interval.start, interval.end);
                    rec.span(seq, StageKind::QueueWait, heartbeat, start);
                    let mut cursor = start;
                    rec.span(
                        seq,
                        StageKind::PartitionVisible,
                        cursor,
                        cursor + visible_overhead,
                    );
                    cursor = cursor + visible_overhead;
                    rec.span(seq, StageKind::MapStage, cursor, cursor + map_stage);
                    cursor = cursor + map_stage;
                    rec.span(seq, StageKind::ReduceStage, cursor, cursor + reduce_stage);
                    cursor = cursor + reduce_stage;
                    debug_assert_eq!(cursor, start + processing, "spans must tile processing");
                }
                if queue_delay.as_secs_f64() > self.cfg.backpressure_queue * bi.as_secs_f64() {
                    st.run.backpressure = true;
                    rec.incr(Counter::BackpressureBatches, 1);
                    rec.event(TraceEvent::Backpressure {
                        seq,
                        queue_us: queue_delay.0,
                        limit_us: bi.mul_f64(self.cfg.backpressure_queue).0,
                    });
                }
                // Ledger feed, mirroring the solo driver's commit phase:
                // per-worker busy time into the trace summary, and (for
                // rebalancing tenants) the observation the policy plans
                // from. Tenant-local cost-model times — a neighbor's slot
                // contention is not this tenant's skew.
                rec.worker_busy(&times.reduce_tasks);
                if let (Some(reb), Some(table)) = (st.rebalancer.as_mut(), st.routing.as_ref()) {
                    let busy: Vec<u64> = times.reduce_tasks.iter().map(|d| d.0).collect();
                    let group_tuples = group_tuples_all[i].take().unwrap_or_default();
                    let (version, owners) = {
                        let t = table.lock().expect("routing table poisoned");
                        (t.version(), t.owners().to_vec())
                    };
                    reb.observe(&RebalanceObservation {
                        seq,
                        version,
                        worker_busy_us: &busy,
                        group_tuples: &group_tuples,
                        owners: &owners,
                    });
                    st.last_imbalance = imbalance_ratio(&busy);
                }
                st.run.slot_waits.push(slot_wait);
                st.run.batches.push(BatchRecord {
                    seq,
                    n_tuples,
                    n_keys,
                    map_tasks: n_blocks,
                    reduce_tasks: r,
                    partition_overhead: raw_overhead,
                    visible_overhead,
                    map_stage,
                    reduce_stage,
                    processing,
                    queue_delay,
                    latency,
                    w,
                    map_task_times: times.map_tasks.clone(),
                    reduce_task_times: times.reduce_tasks.clone(),
                    plan_metrics: metrics,
                    technique: Some(technique),
                });
            }
            for (st, output) in states.iter_mut().zip(outputs) {
                if let Some(ws) = st.window.as_mut() {
                    if let Some(res) = ws.push(output) {
                        st.run.windows.push(res);
                    }
                }
            }
        }
        backend.shutdown();
        MultiTenantResult {
            tenants: states.into_iter().map(|s| s.run).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::cost::CostModel;
    use crate::driver::StreamingEngine;
    use crate::job::ReduceOp;
    use crate::trace::TraceLevel;
    use prompt_core::types::Key;

    fn const_source(rate: usize, keys: u64, phase: u64) -> Box<dyn TupleSource> {
        Box::new(move |iv: Interval, out: &mut Vec<Tuple>| {
            let step = iv.len().0 / (rate as u64 + 1);
            for i in 0..rate {
                out.push(Tuple::keyed(
                    Time(iv.start.0 + step * (i as u64 + 1)),
                    Key((i as u64 + phase) % keys),
                ));
            }
        })
    }

    fn cfg() -> EngineConfig {
        EngineConfig {
            batch_interval: Duration::from_secs(1),
            map_tasks: 4,
            reduce_tasks: 4,
            cluster: Cluster::new(1, 4),
            cost: CostModel::default(),
            ..EngineConfig::default()
        }
    }

    fn tenant(name: &str, tech: Technique, seed: u64) -> TenantSpec {
        TenantSpec::new(name, tech, seed, Job::identity(name, ReduceOp::Count)).with_window(
            WindowSpec::sliding(Duration::from_secs(3), Duration::from_secs(1)),
        )
    }

    #[test]
    fn solo_tenant_matches_streaming_engine_bit_for_bit() {
        let mut multi = MultiTenantEngine::new(cfg(), vec![tenant("a", Technique::Prompt, 7)]);
        let res = multi.run(&mut [const_source(900, 30, 0)], 8);
        let mut eng = StreamingEngine::new(
            cfg(),
            Technique::Prompt,
            7,
            Job::identity("a", ReduceOp::Count),
        )
        .with_window(WindowSpec::sliding(
            Duration::from_secs(3),
            Duration::from_secs(1),
        ));
        let solo = eng.run(&mut *const_source(900, 30, 0), 8);
        let t = &res.tenants[0];
        assert_eq!(t.batches.len(), solo.batches.len());
        for (a, b) in t.batches.iter().zip(&solo.batches) {
            assert_eq!(a.map_stage, b.map_stage, "batch {}", a.seq);
            assert_eq!(a.reduce_stage, b.reduce_stage);
            assert_eq!(a.processing, b.processing);
            assert_eq!(a.queue_delay, b.queue_delay);
            assert_eq!(a.plan_metrics, b.plan_metrics);
        }
        assert_eq!(t.windows.len(), solo.windows.len());
        for (a, b) in t.windows.iter().zip(&solo.windows) {
            assert_eq!(a.aggregates.len(), b.aggregates.len());
            for (k, v) in &a.aggregates {
                assert_eq!(v.to_bits(), b.aggregates[k].to_bits());
            }
        }
        assert!(t.slot_waits.iter().all(|&w| w == Duration::ZERO));
    }

    #[test]
    fn two_tenants_answers_match_solo_runs() {
        let specs = vec![
            tenant("a", Technique::Prompt, 1),
            tenant("b", Technique::Hash, 2),
        ];
        let mut multi = MultiTenantEngine::new(cfg(), specs);
        let res = multi.run(&mut [const_source(800, 20, 0), const_source(600, 15, 3)], 8);
        for (i, (tech, seed, rate, keys, phase)) in [
            (Technique::Prompt, 1, 800, 20, 0),
            (Technique::Hash, 2, 600, 15, 3),
        ]
        .into_iter()
        .enumerate()
        {
            let mut eng =
                StreamingEngine::new(cfg(), tech, seed, Job::identity("solo", ReduceOp::Count))
                    .with_window(WindowSpec::sliding(
                        Duration::from_secs(3),
                        Duration::from_secs(1),
                    ));
            let solo = eng.run(&mut *const_source(rate, keys, phase), 8);
            let t = &res.tenants[i];
            assert_eq!(t.windows.len(), solo.windows.len());
            for (a, b) in t.windows.iter().zip(&solo.windows) {
                for (k, v) in &a.aggregates {
                    assert_eq!(v.to_bits(), b.aggregates[k].to_bits(), "tenant {i}");
                }
            }
        }
    }

    #[test]
    fn pipeline_depth_config_is_inert_for_tenancy() {
        // The multi-tenant loop commits all tenants jointly per heartbeat,
        // so a deep in-flight window validates but changes nothing.
        let deep = EngineConfig {
            pipeline_depth: 4,
            ..cfg()
        };
        assert!(deep.validate().is_ok());
        let specs = || {
            vec![
                tenant("a", Technique::Prompt, 1),
                tenant("b", Technique::Hash, 2),
            ]
        };
        let mut base = MultiTenantEngine::new(cfg(), specs());
        let want = base.run(&mut [const_source(800, 20, 0), const_source(600, 15, 3)], 6);
        let mut piped = MultiTenantEngine::new(deep, specs());
        let got = piped.run(&mut [const_source(800, 20, 0), const_source(600, 15, 3)], 6);
        for (a, b) in want.tenants.iter().zip(&got.tenants) {
            assert_eq!(a.batches.len(), b.batches.len());
            for (x, y) in a.batches.iter().zip(&b.batches) {
                assert_eq!(x.processing, y.processing, "batch {}", x.seq);
                assert_eq!(x.plan_metrics, y.plan_metrics, "batch {}", x.seq);
            }
            assert_eq!(a.windows.len(), b.windows.len());
            for (x, y) in a.windows.iter().zip(&b.windows) {
                for (k, v) in &x.aggregates {
                    assert_eq!(v.to_bits(), y.aggregates[k].to_bits());
                }
            }
        }
    }

    #[test]
    fn contention_slows_tenants_but_not_their_answers() {
        // Make tasks expensive enough that two tenants contend for slots.
        let mut c = cfg();
        c.cost = CostModel {
            map_per_tuple: Duration::from_micros(300),
            ..CostModel::default()
        };
        let specs = vec![
            tenant("a", Technique::Prompt, 1),
            tenant("b", Technique::Prompt, 2),
        ];
        let mut multi = MultiTenantEngine::new(c, specs);
        let res = multi.run(&mut [const_source(800, 20, 0), const_source(800, 20, 7)], 6);
        let waited: u64 = res
            .tenants
            .iter()
            .flat_map(|t| t.slot_waits.iter().map(|d| d.0))
            .sum();
        assert!(waited > 0, "shared slots must create contention");
    }

    #[test]
    fn noisy_neighbor_hits_only_its_tenant_and_range() {
        let specs = || {
            vec![
                tenant("a", Technique::Prompt, 1),
                tenant("b", Technique::Prompt, 2),
            ]
        };
        let sources = || -> Vec<Box<dyn TupleSource>> {
            vec![const_source(500, 10, 0), const_source(500, 10, 5)]
        };
        let mut clean_eng = MultiTenantEngine::new(cfg(), specs());
        let clean = clean_eng.run(&mut sources()[..], 6);
        let mut noisy_eng =
            MultiTenantEngine::new(cfg(), specs()).with_noisy_neighbors(vec![NoisyNeighbor {
                tenant: 1,
                from_seq: 2,
                until_seq: 4,
                slowdown: 5.0,
            }]);
        let noisy = noisy_eng.run(&mut sources()[..], 6);
        for seq in 0..6usize {
            let (ca, na) = (
                &clean.tenants[1].batches[seq],
                &noisy.tenants[1].batches[seq],
            );
            if (2..4).contains(&seq) {
                assert!(na.processing > ca.processing, "batch {seq} must slow down");
            } else {
                assert_eq!(na.processing, ca.processing, "batch {seq} unaffected");
            }
        }
        // Answers never change — interference is timing-only.
        for (a, b) in clean.tenants[1]
            .windows
            .iter()
            .zip(&noisy.tenants[1].windows)
        {
            for (k, v) in &a.aggregates {
                assert_eq!(v.to_bits(), b.aggregates[k].to_bits());
            }
        }
    }

    #[test]
    fn weighted_tenants_get_proportional_protection() {
        // Two identical workloads; the weight-3 tenant must finish its
        // stages no later than the weight-1 tenant.
        let mut c = cfg();
        c.cost = CostModel {
            map_per_tuple: Duration::from_micros(400),
            ..CostModel::default()
        };
        let specs = vec![
            tenant("light", Technique::Prompt, 1).with_weight(1),
            tenant("heavy", Technique::Prompt, 1).with_weight(3),
        ];
        let mut multi = MultiTenantEngine::new(c, specs);
        let res = multi.run(&mut [const_source(900, 16, 0), const_source(900, 16, 0)], 4);
        let light: u64 = res.tenants[0].slot_waits.iter().map(|d| d.0).sum();
        let heavy: u64 = res.tenants[1].slot_waits.iter().map(|d| d.0).sum();
        assert!(
            heavy <= light,
            "weight-3 tenant waited {heavy} µs vs weight-1's {light} µs"
        );
    }

    #[test]
    fn fair_makespans_degenerate_to_lpt_for_one_tenant() {
        let d = |us: u64| Duration::from_micros(us);
        for tasks in [
            vec![d(5), d(4), d(3), d(3), d(3)],
            vec![d(10); 4],
            vec![d(100); 7],
            vec![],
        ] {
            let fair = fair_makespans(&[(1, tasks.clone())], 2)[0];
            assert_eq!(fair, crate::cluster::makespan_on_slots(&tasks, 2));
        }
    }

    #[test]
    fn tagged_trace_roundtrip() {
        let mut c = cfg();
        c.trace = TraceLevel::Full;
        let mut multi = MultiTenantEngine::new(
            c,
            vec![
                tenant("alpha", Technique::Prompt, 1),
                tenant("beta", Technique::Hash, 2),
            ],
        );
        let res = multi.run(&mut [const_source(200, 8, 0), const_source(200, 8, 2)], 3);
        let jsonl = res.tagged_trace_jsonl();
        let parsed = parse_tagged_jsonl(&jsonl).expect("round-trip");
        assert!(!parsed.is_empty());
        let names: std::collections::HashSet<&str> =
            parsed.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains("alpha") && names.contains("beta"));
        // Tagged totals match per-tenant event counts.
        let total: usize = res.tenants.iter().map(|t| t.trace.events().len()).sum();
        assert_eq!(parsed.len(), total);
    }
}

//! Multi-tenant execution: N concurrent jobs sharing one cluster.
//!
//! The ROADMAP north-star is a production-scale deployment serving many
//! concurrent queries, but every figure-reproduction drives exactly one job.
//! [`MultiTenantEngine`] closes that gap, and it does so without a batch
//! loop of its own: **a tenant is a [`Run`]**. Each [`TenantSpec`] becomes a
//! solo [`StreamingEngine`] under the shared config, and every heartbeat
//! calls the same `fill` → `execute` → `commit` steps the solo driver calls,
//! once per tenant, over one shared backend. Query answers, plans, policy
//! decisions, migrations and trace events are therefore — by construction —
//! those of the tenant running alone.
//!
//! What sharing adds sits between `execute` and `commit`: the tenants
//! *compete for task slots* through a weighted-fair scheduler
//! ([`fair_makespans`]) whose result replaces the per-job LPT makespans of
//! [`Cluster::makespan`](crate::cluster::Cluster::makespan) in each tenant's
//! stage times. Contention is purely a timing effect: latency, queueing and
//! back-pressure are per-tenant (isolated), and a [`NoisyNeighbor`] injector
//! can inflate one tenant's task times to measure how well the fair
//! scheduler protects the others. With a single tenant the fair scheduler
//! degenerates bit-exactly to the LPT rule, so a solo [`MultiTenantEngine`]
//! run reproduces [`StreamingEngine`] timings too.
//!
//! On [`Backend::Distributed`](crate::config::Backend::Distributed) the
//! tenants share one worker fleet; each run's batch seqs are interleaved
//! into the fleet's seq space so tenants never collide in the workers'
//! per-batch shuffle state. A tenant survives worker losses under the same
//! recovery budget as a solo distributed run.

use std::collections::HashSet;

use prompt_core::partitioner::Technique;
use prompt_core::types::Duration;

use crate::backend::BackendRuntime;
use crate::config::EngineConfig;
use crate::driver::{BatchRecord, Run, StreamingEngine, WireSeqs};
use crate::job::Job;
use crate::policy::PolicySpec;
use crate::rebalance::ForcedMigrations;
use crate::source::TupleSource;
use crate::stage::StageTimes;
use crate::trace::TraceRecorder;
use crate::window::{WindowResult, WindowSpec};

/// One tenant job in a shared-cluster run.
pub struct TenantSpec {
    /// Tenant name, unique within an engine: what its [`TenantRun`] is
    /// reported under.
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
        TenantSpec {
            name: name.into(),
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
    /// The tenant's trace.
    pub trace: TraceRecorder,
}

/// Outcome of [`MultiTenantEngine::run`].
pub struct MultiTenantResult {
    /// One entry per tenant, in spec order.
    pub tenants: Vec<TenantRun>,
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

/// N concurrent jobs on one shared cluster (see the module docs).
pub struct MultiTenantEngine {
    cfg: EngineConfig,
    /// One solo engine per tenant, in spec order.
    engines: Vec<StreamingEngine>,
    names: Vec<String>,
    weights: Vec<u32>,
    noisy: Vec<NoisyNeighbor>,
}

impl MultiTenantEngine {
    /// Build a shared-cluster engine for `tenants` under `cfg`. The config's
    /// task counts, cost model, cluster shape, overhead mode, back-pressure
    /// threshold, ingest parallelism, data plane, rebalancing, trace level
    /// and backend apply to every tenant; each tenant is validated as the
    /// solo engine it is.
    pub fn new(cfg: EngineConfig, tenants: Vec<TenantSpec>) -> MultiTenantEngine {
        cfg.validate().expect("invalid engine config");
        assert!(!tenants.is_empty(), "need at least one tenant");
        let mut engine = MultiTenantEngine {
            cfg,
            engines: Vec::with_capacity(tenants.len()),
            names: Vec::with_capacity(tenants.len()),
            weights: Vec::with_capacity(tenants.len()),
            noisy: Vec::new(),
        };
        let mut seen = HashSet::new();
        for spec in tenants {
            assert!(
                seen.insert(spec.name.clone()),
                "duplicate tenant name {:?}: results could not tell the tenants apart",
                spec.name
            );
            // Tenant batches commit jointly at each heartbeat — the shared
            // slot schedule needs every tenant's task times for the same
            // seq — and the cluster shape is the shared one, so the solo
            // features that pipeline, scale or persist a single run stay
            // inert for tenants.
            let tenant_cfg = EngineConfig {
                policy: spec.policy,
                pipeline_depth: 1,
                elasticity: None,
                checkpoint: None,
                ..engine.cfg.clone()
            };
            let mut solo = StreamingEngine::new(tenant_cfg, spec.technique, spec.seed, spec.job);
            if let Some(window) = spec.window {
                solo = solo.with_window(window);
            }
            engine.engines.push(solo);
            engine.names.push(spec.name);
            engine.weights.push(spec.weight);
        }
        engine
    }

    /// Attach noisy-neighbor injections.
    pub fn with_noisy_neighbors(mut self, noisy: Vec<NoisyNeighbor>) -> MultiTenantEngine {
        for n in &noisy {
            assert!(n.tenant < self.engines.len(), "noisy tenant out of range");
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
    /// `sources[i]`. Within each heartbeat every tenant's batch is filled and
    /// executed by its own [`Run`] (outputs identical to a solo run), then
    /// both stages are scheduled jointly on the shared slots by
    /// [`fair_makespans`] — the stage times each tenant's `commit` sees and
    /// its [`BatchRecord`]s report.
    pub fn run(
        &mut self,
        sources: &mut [Box<dyn TupleSource>],
        n_batches: usize,
    ) -> MultiTenantResult {
        let n = self.engines.len();
        assert_eq!(sources.len(), n, "one source per tenant required");
        let (cluster, slots) = (self.cfg.cluster, self.cfg.cluster.slots());
        let mut backend = BackendRuntime::launch(self.cfg.backend);
        let mut runs: Vec<Run<'_>> = self
            .engines
            .iter_mut()
            .zip(sources.iter_mut())
            .enumerate()
            .map(|(i, (eng, source))| Run::new(eng, &mut **source, WireSeqs(n as u64, i as u64)))
            .collect();
        let mut slot_waits = vec![Vec::new(); n];
        for seq in 0..n_batches as u64 {
            // Per-tenant fill + execute: outputs and per-task times are
            // tenant-local; only slot time is shared.
            let mut executed = Vec::with_capacity(n);
            for (i, run) in runs.iter_mut().enumerate() {
                let pb = run
                    .fill(seq, &mut backend)
                    .expect("tenants never resume from a checkpoint");
                let (output, mut times) = run.execute(&pb, &mut backend);
                for noise in self.noisy.iter().filter(|n| n.applies(i, seq)) {
                    for t in times.map_tasks.iter_mut().chain(&mut times.reduce_tasks) {
                        *t = t.mul_f64(noise.slowdown);
                    }
                }
                executed.push((pb, output, times));
            }
            // Joint stage scheduling on the shared slots.
            let stage = |tasks: fn(&StageTimes) -> &Vec<Duration>| {
                let shares: Vec<(u32, Vec<Duration>)> = executed
                    .iter()
                    .zip(&self.weights)
                    .map(|((_, _, times), &w)| (w, tasks(times).clone()))
                    .collect();
                fair_makespans(&shares, slots)
            };
            let (map_spans, reduce_spans) = (stage(|t| &t.map_tasks), stage(|t| &t.reduce_tasks));
            // Per-tenant commit under the shared schedule — pipelining,
            // back-pressure, ledger and windows stay fully isolated.
            for (i, (pb, output, mut times)) in executed.into_iter().enumerate() {
                let solo_map = cluster.makespan(&times.map_tasks);
                let solo_reduce = cluster.makespan(&times.reduce_tasks);
                times.map_stage = map_spans[i];
                times.reduce_stage = reduce_spans[i];
                slot_waits[i]
                    .push((times.map_stage - solo_map) + (times.reduce_stage - solo_reduce));
                runs[i].commit(pb, output, times, &mut backend);
            }
        }
        backend.shutdown();
        let tenants = runs
            .into_iter()
            .zip(&self.names)
            .zip(slot_waits)
            .map(|((run, name), slot_waits)| {
                let (result, trace) = run.finish();
                TenantRun {
                    name: name.clone(),
                    batches: result.batches,
                    windows: result.windows,
                    backpressure: result.backpressure,
                    worker_losses: result.worker_losses,
                    migrations: result.migrations,
                    slot_waits,
                    trace,
                }
            })
            .collect();
        MultiTenantResult { tenants }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::cost::CostModel;
    use crate::driver::StreamingEngine;
    use crate::job::ReduceOp;
    use crate::trace::{TraceEvent, TraceLevel};
    use prompt_core::types::{Interval, Key, Time, Tuple};

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

    /// A solo engine built like [`tenant`] builds a tenant.
    fn solo_oracle(cfg: EngineConfig, tech: Technique, seed: u64) -> StreamingEngine {
        StreamingEngine::new(cfg, tech, seed, Job::identity("solo", ReduceOp::Count)).with_window(
            WindowSpec::sliding(Duration::from_secs(3), Duration::from_secs(1)),
        )
    }

    /// The event stream with its wall-clock measurements masked.
    fn masked(rec: &TraceRecorder) -> Vec<TraceEvent> {
        rec.events()
            .into_iter()
            .map(|ev| match ev {
                TraceEvent::Phase { seq, kind, .. } => TraceEvent::Phase {
                    seq,
                    kind,
                    wall_us: 0,
                },
                ev => ev,
            })
            .collect()
    }

    fn assert_windows_bit_identical(got: &[WindowResult], want: &[WindowResult]) {
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(want) {
            assert_eq!(a.last_batch_seq, b.last_batch_seq);
            assert_eq!(a.aggregates.len(), b.aggregates.len());
            for (k, v) in &a.aggregates {
                assert_eq!(v.to_bits(), b.aggregates[k].to_bits());
            }
        }
    }

    #[test]
    fn solo_tenant_matches_streaming_engine_bit_for_bit() {
        use crate::config::Backend;
        for (backend, columnar) in [
            (Backend::InProcess, false),
            (Backend::InProcess, true),
            (Backend::Threaded { threads: 3 }, false),
        ] {
            let c = EngineConfig {
                backend,
                columnar,
                trace: TraceLevel::Full,
                ..cfg()
            };
            let mut multi =
                MultiTenantEngine::new(c.clone(), vec![tenant("a", Technique::Prompt, 7)]);
            let res = multi.run(&mut [const_source(3000, 30, 0)], 8);
            let (solo, solo_trace) =
                solo_oracle(c, Technique::Prompt, 7).run_traced(&mut *const_source(3000, 30, 0), 8);
            let t = &res.tenants[0];
            let what = format!("{backend:?}, columnar {columnar}");
            // Every `BatchRecord` field, through its `Debug` rendering.
            assert_eq!(
                format!("{:#?}", t.batches),
                format!("{:#?}", solo.batches),
                "{what}"
            );
            assert_windows_bit_identical(&t.windows, &solo.windows);
            assert_eq!(t.backpressure, solo.backpressure, "{what}");
            assert_eq!(t.migrations, solo.migrations, "{what}");
            assert!(t.slot_waits.iter().all(|&w| w == Duration::ZERO), "{what}");
            assert_eq!(masked(&t.trace), masked(&solo_trace), "{what}");
        }
    }

    #[test]
    fn rebalance_with_a_non_fixed_tenant_policy_runs_like_solo() {
        use crate::rebalance::{RebalanceConfig, RebalanceSpec};
        let c = EngineConfig {
            rebalance: RebalanceSpec::Auto(RebalanceConfig {
                n_groups: 16,
                ..RebalanceConfig::default()
            }),
            ..cfg()
        };
        // The policy picks each batch's partitioner, the routing table where
        // its keys reduce: the tenant matches the solo engine of the same
        // config, migrations included.
        let policy = PolicySpec::Forced(vec![Technique::Hash, Technique::Prompt]);
        let spec = tenant("a", Technique::Hash, 1).with_policy(policy.clone());
        // 60% of every interval on one hot key, the rest over 30 cold ones.
        let skewed = || -> Box<dyn TupleSource> {
            Box::new(|iv: Interval, out: &mut Vec<Tuple>| {
                let step = iv.len().0 / 2001;
                for i in 0..2000u64 {
                    let key = if i < 1200 { Key(0) } else { Key(1 + i % 30) };
                    out.push(Tuple::keyed(Time(iv.start.0 + step * (i + 1)), key));
                }
            })
        };
        let mut multi = MultiTenantEngine::new(c.clone(), vec![spec]);
        let res = multi.run(&mut [skewed()], 8);
        let solo_cfg = EngineConfig { policy, ..c };
        let solo = solo_oracle(solo_cfg, Technique::Hash, 1).run(&mut *skewed(), 8);
        let t = &res.tenants[0];
        assert!(!t.migrations.is_empty(), "a 60% hot key must migrate");
        assert_eq!(t.migrations, solo.migrations);
        assert_eq!(format!("{:#?}", t.batches), format!("{:#?}", solo.batches));
        assert_windows_bit_identical(&t.windows, &solo.windows);
    }

    #[test]
    fn tenant_under_sharded_ingest_matches_its_solo_oracle() {
        // Tenants build their partitioner through `StreamingEngine::new`, so
        // the ingest-parallelism knobs reach them.
        let c = EngineConfig {
            ingest_shards: 4,
            ingest_threads: 2,
            ..cfg()
        };
        let specs = vec![
            tenant("a", Technique::Prompt, 1),
            tenant("b", Technique::Prompt, 2),
        ];
        let mut multi = MultiTenantEngine::new(c.clone(), specs);
        let res = multi.run(&mut [const_source(900, 30, 0), const_source(700, 25, 4)], 6);
        for (i, (seed, rate, keys, phase)) in
            [(1, 900, 30, 0), (2, 700, 25, 4)].into_iter().enumerate()
        {
            let solo = solo_oracle(c.clone(), Technique::Prompt, seed)
                .run(&mut *const_source(rate, keys, phase), 6);
            let t = &res.tenants[i];
            assert_eq!(t.batches.len(), solo.batches.len());
            for (a, b) in t.batches.iter().zip(&solo.batches) {
                assert_eq!(a.plan_metrics, b.plan_metrics, "tenant {i} batch {}", a.seq);
            }
            assert_windows_bit_identical(&t.windows, &solo.windows);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate tenant name \"a\"")]
    fn duplicate_tenant_names_are_refused() {
        let _ = MultiTenantEngine::new(
            cfg(),
            vec![
                tenant("a", Technique::Hash, 1),
                tenant("a", Technique::Prompt, 2),
            ],
        );
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
}

//! Cell runner: one (scenario, partitioner) pair, N concurrent tenants on
//! a shared cluster, scored against the serial single-tenant oracle.
//!
//! Every cell runs the same differential protocol: spin up `tenants`
//! concurrent jobs of the same technique (distinct seeds, distinct stream
//! phases) through [`MultiTenantEngine`], then replay each tenant alone
//! through the serial [`StreamingEngine`] on the in-process backend and
//! demand bit-identical query answers and plan decisions. Timing metrics
//! (latency percentiles) come from the trace layer, not from ad-hoc
//! accounting, so the scorecard exercises the same spans the observability
//! tests verify.

use std::collections::BTreeMap;

use prompt_core::partitioner::Technique;
use prompt_core::types::Duration;
use prompt_engine::cluster::Cluster;
use prompt_engine::config::{Backend, EngineConfig, OverheadMode};
use prompt_engine::driver::StreamingEngine;
use prompt_engine::job::{Job, ReduceOp};
use prompt_engine::policy::PolicySpec;
use prompt_engine::rebalance::RebalanceSpec;
use prompt_engine::stats::percentile_sorted;
use prompt_engine::tenancy::{MultiTenantEngine, NoisyNeighbor, TenantRun, TenantSpec};
use prompt_engine::trace::{Counter, StageKind, TraceEvent, TraceLevel, PROCESSING_KINDS};
use prompt_engine::window::WindowSpec;

use crate::matrix::Scenario;

/// Configuration of one scorecard cell.
#[derive(Clone, Debug)]
pub struct CellConfig {
    /// The stream recipe.
    pub scenario: Scenario,
    /// The partitioner under test (all tenants use it). Under a non-`Fixed`
    /// [`CellConfig::policy`] this is batch 0's technique — the policy may
    /// hot-swap from there.
    pub technique: Technique,
    /// Partitioner-selection policy every tenant runs. `Fixed` (default)
    /// is the classic run-constant cell; `Adaptive` makes each tenant score
    /// and hot-swap per batch, and its oracle becomes the solo run forced
    /// through the tenant's recorded technique sequence.
    pub policy: PolicySpec,
    /// Concurrent tenant jobs sharing the cluster (≥ 1; the wall runs 2+).
    pub tenants: usize,
    /// Heartbeats to run.
    pub batches: usize,
    /// Execution substrate for the shared run (the oracle is always the
    /// serial in-process engine).
    pub backend: Backend,
    /// Base seed; tenant i derives its own stream and routing seeds.
    pub seed: u64,
    /// Inject a noisy neighbor against the last tenant for batches 2..4.
    pub noisy: bool,
    /// Key-group rebalancing every tenant runs (`Off` = the technique's
    /// own assigner). An `Auto` cell is elasticity-aware: each tenant
    /// migrates hot key-groups at batch boundaries, the scorecard records
    /// the applied moves, and the oracle becomes the solo run forced
    /// through the tenant's recorded migration plans.
    pub rebalance: RebalanceSpec,
}

impl CellConfig {
    /// A 2-tenant, 8-batch in-process cell.
    pub fn new(scenario: Scenario, technique: Technique) -> CellConfig {
        CellConfig {
            scenario,
            technique,
            policy: PolicySpec::default(),
            tenants: 2,
            batches: 8,
            backend: Backend::InProcess,
            seed: 0xC0FFEE,
            noisy: false,
            rebalance: RebalanceSpec::Off,
        }
    }
}

/// One scored cell of the wall.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Scenario name (matrix coordinates).
    pub scenario: String,
    /// Partitioner label.
    pub technique: String,
    /// Whether every tenant's answers and plan decisions matched its serial
    /// single-tenant oracle bit-for-bit.
    pub bit_identical: bool,
    /// Mean batch-size imbalance across batches and tenants.
    pub bsi: f64,
    /// Mean batch-count imbalance.
    pub bci: f64,
    /// Mean key-splitting ratio.
    pub ksr: f64,
    /// Mean max-partition imbalance.
    pub mpi: f64,
    /// Trace-derived end-to-end latency percentiles (ms).
    pub p50_ms: f64,
    /// 95th percentile latency (ms).
    pub p95_ms: f64,
    /// 99th percentile latency (ms).
    pub p99_ms: f64,
    /// Tuples ingested per second of stream time, all tenants combined.
    pub throughput: f64,
    /// Whether any tenant tripped back-pressure.
    pub backpressure: bool,
    /// Mean per-batch slot-contention penalty (ms), all tenants.
    pub slot_wait_ms: f64,
    /// Technique hot-swaps across all tenants (0 for `Fixed` cells).
    pub policy_switches: u64,
    /// Key-group moves applied across all tenants (0 for non-rebalancing
    /// cells) — the migration-decision record of the cell.
    pub migrations: u64,
}

/// Engine configuration shared by the cell run and its oracles: a small
/// 8-slot cluster so two tenants × 8 map tasks genuinely contend.
fn cell_engine_config(backend: Backend) -> EngineConfig {
    EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 8,
        reduce_tasks: 8,
        cluster: Cluster::new(1, 8),
        overhead: OverheadMode::None,
        trace: TraceLevel::Full,
        backend,
        ..EngineConfig::default()
    }
}

fn window_spec() -> WindowSpec {
    WindowSpec::sliding(Duration::from_secs(3), Duration::from_secs(1))
}

/// Tenant i's stream seed: deterministic, distinct per tenant so the
/// tenants carry different (but reproducible) streams.
fn stream_seed(base: u64, tenant: usize) -> u64 {
    base.wrapping_add(1 + tenant as u64 * 7919)
}

/// End-to-end latencies (µs) per batch, recovered from the tenant's trace:
/// batch interval + QueueWait span + the [`PROCESSING_KINDS`] spans. This
/// is the observability layer's own accounting, so a scorecard latency
/// regression and a trace regression are the same signal.
fn trace_latencies_us(run: &TenantRun, bi: Duration) -> Vec<u64> {
    let mut queue: BTreeMap<u64, u64> = BTreeMap::new();
    let mut processing: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in run.trace.events() {
        if let TraceEvent::Span {
            seq,
            kind,
            start_us,
            end_us,
        } = ev
        {
            let span = end_us - start_us;
            if kind == StageKind::QueueWait {
                *queue.entry(seq).or_default() += span;
            } else if PROCESSING_KINDS.contains(&kind) {
                *processing.entry(seq).or_default() += span;
            }
        }
    }
    run.batches
        .iter()
        .map(|b| {
            bi.0 + queue.get(&b.seq).copied().unwrap_or(0)
                + processing.get(&b.seq).copied().unwrap_or(0)
        })
        .collect()
}

/// Compare one tenant of the shared run against its serial solo oracle.
///
/// For `Fixed` cells the oracle is the classic run-constant solo engine.
/// For a non-`Fixed` cell the oracle replays the tenant's *recorded*
/// per-batch technique sequence through [`PolicySpec::Forced`] — the
/// adaptive tenant must be bit-identical to that forced solo run.
fn matches_oracle(cell: &CellConfig, tenant_idx: usize, shared: &TenantRun) -> bool {
    let mut cfg = cell_engine_config(Backend::InProcess);
    if let Some(n_groups) = cell.rebalance.n_groups() {
        // The oracle replays the tenant's recorded migration plans — an
        // `Auto` tenant must be bit-identical to the solo run forced
        // through its own routing-table history.
        cfg.rebalance = RebalanceSpec::Forced {
            n_groups,
            plans: shared.migrations.clone(),
        };
    }
    if !cell.policy.is_fixed() {
        let sequence: Vec<Technique> = shared.batches.iter().map(|b| b.technique).collect();
        if sequence.is_empty() {
            return false;
        }
        cfg.policy = PolicySpec::Forced(sequence);
    }
    let mut oracle = StreamingEngine::new(
        cfg,
        cell.technique,
        cell.seed.wrapping_add(tenant_idx as u64),
        Job::identity("oracle", ReduceOp::Count),
    )
    .with_window(window_spec());
    let mut source = cell.scenario.source(stream_seed(cell.seed, tenant_idx));
    let solo = oracle.run(&mut *source, cell.batches);
    if shared.batches.len() != solo.batches.len() || shared.windows.len() != solo.windows.len() {
        return false;
    }
    if !cell.rebalance.is_off() {
        // Routing decisions must replay exactly; with no injected noise
        // the per-worker reduce timings must too (the noisy-neighbor
        // slowdown is timing-only by design, so timings are exempted
        // under `noisy`).
        if shared.migrations != solo.migrations {
            return false;
        }
        if !cell.noisy
            && shared
                .batches
                .iter()
                .zip(&solo.batches)
                .any(|(a, b)| a.reduce_task_times != b.reduce_task_times)
        {
            return false;
        }
    }
    for (a, b) in shared.batches.iter().zip(&solo.batches) {
        if a.n_tuples != b.n_tuples
            || a.n_keys != b.n_keys
            || a.map_tasks != b.map_tasks
            || a.plan_metrics != b.plan_metrics
            || a.technique != b.technique
        {
            return false;
        }
    }
    for (a, b) in shared.windows.iter().zip(&solo.windows) {
        if a.aggregates.len() != b.aggregates.len() {
            return false;
        }
        for (k, v) in &a.aggregates {
            match b.aggregates.get(k) {
                Some(bv) if bv.to_bits() == v.to_bits() => {}
                _ => return false,
            }
        }
    }
    true
}

/// Run one cell: the shared multi-tenant run, the per-tenant oracles, and
/// the metric roll-up.
pub fn run_cell(cell: &CellConfig) -> CellOutcome {
    assert!(cell.tenants >= 1, "need at least one tenant");
    assert!(cell.batches >= 1, "need at least one batch");
    let mut cfg = cell_engine_config(cell.backend);
    cfg.rebalance = cell.rebalance.clone();
    let bi = cfg.batch_interval;
    let specs: Vec<TenantSpec> = (0..cell.tenants)
        .map(|i| {
            TenantSpec::new(
                format!("t{i}"),
                cell.technique,
                cell.seed.wrapping_add(i as u64),
                Job::identity(format!("t{i}"), ReduceOp::Count),
            )
            .with_window(window_spec())
            .with_policy(cell.policy.clone())
        })
        .collect();
    let mut engine = MultiTenantEngine::new(cfg, specs);
    if cell.noisy && cell.tenants >= 2 {
        engine = engine.with_noisy_neighbors(vec![NoisyNeighbor {
            tenant: cell.tenants - 1,
            from_seq: 2,
            until_seq: 4,
            slowdown: 4.0,
        }]);
    }
    let mut sources: Vec<_> = (0..cell.tenants)
        .map(|i| cell.scenario.source(stream_seed(cell.seed, i)))
        .collect();
    let result = engine.run(&mut sources, cell.batches);

    let mut bit_identical = true;
    let mut latencies_us: Vec<u64> = Vec::new();
    let mut bsi = 0.0;
    let mut bci = 0.0;
    let mut ksr = 0.0;
    let mut mpi = 0.0;
    let mut n_records = 0usize;
    let mut tuples = 0u64;
    let mut backpressure = false;
    let mut slot_wait_us = 0u64;
    let mut n_waits = 0usize;
    let mut policy_switches = 0u64;
    let mut migrations = 0u64;
    for (i, t) in result.tenants.iter().enumerate() {
        // The noisy-neighbor injection is timing-only; answers still have
        // to match the oracle, so victims stay in the differential too.
        bit_identical &= matches_oracle(cell, i, t);
        latencies_us.extend(trace_latencies_us(t, bi));
        for b in &t.batches {
            bsi += b.plan_metrics.bsi;
            bci += b.plan_metrics.bci;
            ksr += b.plan_metrics.ksr;
            mpi += b.plan_metrics.mpi;
            n_records += 1;
            tuples += b.n_tuples as u64;
        }
        backpressure |= t.backpressure;
        slot_wait_us += t.slot_waits.iter().map(|d| d.0).sum::<u64>();
        n_waits += t.slot_waits.len();
        policy_switches += t.trace.counter(Counter::PolicySwitches);
        migrations += t
            .migrations
            .iter()
            .map(|(_, p)| p.moves.len() as u64)
            .sum::<u64>();
    }
    let n = n_records.max(1) as f64;
    let mut sorted: Vec<f64> = latencies_us.iter().map(|&us| us as f64 / 1e3).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    CellOutcome {
        scenario: cell.scenario.name(),
        // Non-Fixed cells rank as their own wall column, not as batch 0's
        // technique.
        technique: {
            let base = match &cell.policy {
                PolicySpec::Fixed(_) => cell.technique.label(),
                PolicySpec::Adaptive(_) => "Adaptive".into(),
                PolicySpec::Forced(_) => "Forced".into(),
            };
            // Rebalancing cells rank as their own wall column.
            if cell.rebalance.is_off() {
                base
            } else {
                format!("{base}+RB")
            }
        },
        bit_identical,
        bsi: bsi / n,
        bci: bci / n,
        ksr: ksr / n,
        mpi: mpi / n,
        p50_ms: percentile_sorted(&sorted, 0.50),
        p95_ms: percentile_sorted(&sorted, 0.95),
        p99_ms: percentile_sorted(&sorted, 0.99),
        throughput: tuples as f64 / (cell.batches as f64 * bi.as_secs_f64()),
        backpressure,
        slot_wait_ms: if n_waits == 0 {
            0.0
        } else {
            slot_wait_us as f64 / n_waits as f64 / 1e3
        },
        policy_switches,
        migrations,
    }
}

/// Run the cross product of `scenarios × techniques` as cells.
pub fn run_matrix(
    scenarios: &[Scenario],
    techniques: &[Technique],
    tenants: usize,
    batches: usize,
    backend: Backend,
    seed: u64,
    noisy: bool,
) -> Vec<CellOutcome> {
    let mut out = Vec::with_capacity(scenarios.len() * techniques.len());
    for s in scenarios {
        for t in techniques {
            out.push(run_cell(&CellConfig {
                scenario: *s,
                technique: *t,
                policy: PolicySpec::default(),
                tenants,
                batches,
                backend,
                seed,
                noisy,
                rebalance: RebalanceSpec::Off,
            }));
        }
    }
    out
}

/// The partitioners a default wall run scores: the paper's subject plus
/// the two classical baselines it argues against.
pub const DEFAULT_TECHNIQUES: [Technique; 3] =
    [Technique::Hash, Technique::Shuffle, Technique::Prompt];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::pinned_subset;

    #[test]
    fn cells_are_bit_identical_to_their_oracles() {
        let s = Scenario::by_name("zipf1.0-sin-64k").expect("exists");
        for tech in DEFAULT_TECHNIQUES {
            let out = run_cell(&CellConfig::new(s, tech));
            assert!(out.bit_identical, "{} diverged from oracle", out.technique);
            assert!(out.p50_ms >= 1000.0, "latency includes the batch interval");
            assert!(out.p95_ms >= out.p50_ms);
            assert!(out.p99_ms >= out.p95_ms);
            assert!(out.throughput > 0.0);
        }
    }

    #[test]
    fn cells_are_deterministic() {
        let s = Scenario::by_name("hotchurn-bursty-1k").expect("exists");
        let cfg = CellConfig::new(s, Technique::Prompt);
        let a = run_cell(&cfg);
        let b = run_cell(&cfg);
        assert_eq!(a.p50_ms.to_bits(), b.p50_ms.to_bits());
        assert_eq!(a.p99_ms.to_bits(), b.p99_ms.to_bits());
        assert_eq!(a.mpi.to_bits(), b.mpi.to_bits());
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
    }

    #[test]
    fn noisy_cells_still_match_their_oracles() {
        let s = Scenario::by_name("zipf1.5-step-1k").expect("exists");
        let mut cfg = CellConfig::new(s, Technique::Prompt);
        cfg.noisy = true;
        let out = run_cell(&cfg);
        assert!(out.bit_identical, "interference must be timing-only");
    }

    #[test]
    fn threaded_backend_matches_the_serial_oracle() {
        let s = Scenario::by_name("drift-sin-1k").expect("exists");
        let mut cfg = CellConfig::new(s, Technique::Prompt);
        cfg.backend = Backend::Threaded { threads: 4 };
        let out = run_cell(&cfg);
        assert!(out.bit_identical, "threaded backend diverged");
    }

    #[test]
    fn drift_scenario_shows_skew_in_plan_metrics() {
        // Hash on a heavily skewed stream must have a worse max-partition
        // imbalance than Prompt — the paper's core claim, visible even in
        // the small wall cells.
        let s = Scenario::by_name("zipf1.5-step-1k").expect("exists");
        let hash = run_cell(&CellConfig::new(s, Technique::Hash));
        let prompt = run_cell(&CellConfig::new(s, Technique::Prompt));
        assert!(
            prompt.mpi <= hash.mpi,
            "Prompt mpi {} vs Hash mpi {}",
            prompt.mpi,
            hash.mpi
        );
    }

    #[test]
    fn adaptive_policy_cells_match_forced_sequence_oracles_on_all_backends() {
        use prompt_engine::policy::AdaptiveConfig;
        // The α-drift stream sweeps uniform → heavily skewed mid-run, so an
        // adaptive tenant starting on Hash must hot-swap at least once; the
        // oracle is the solo run forced through the recorded sequence.
        let s = Scenario::by_name("drift-const-64k").expect("exists");
        for backend in [
            Backend::InProcess,
            Backend::Threaded { threads: 4 },
            Backend::Distributed {
                workers: 2,
                base_port: 0,
            },
        ] {
            let mut cfg = CellConfig::new(s, Technique::Hash);
            cfg.policy = PolicySpec::Adaptive(AdaptiveConfig::default());
            cfg.backend = backend;
            let out = run_cell(&cfg);
            assert_eq!(out.technique, "Adaptive");
            assert!(
                out.bit_identical,
                "{backend:?}: adaptive tenants diverged from their forced-sequence oracles"
            );
            assert!(
                out.policy_switches >= 2,
                "{backend:?}: both tenants must hot-swap on the drift stream, \
                 saw {} switches",
                out.policy_switches
            );
        }
    }

    #[test]
    fn rebalance_cells_match_forced_migration_oracles_on_all_backends() {
        use prompt_engine::rebalance::RebalanceConfig;
        // Heavy skew piles hot key-groups onto single reduce workers, so
        // rebalancing tenants must migrate at least once; the oracle is
        // the solo run forced through each tenant's recorded plans.
        let s = Scenario::by_name("zipf1.5-step-1k").expect("exists");
        for backend in [
            Backend::InProcess,
            Backend::Threaded { threads: 4 },
            Backend::Distributed {
                workers: 2,
                base_port: 0,
            },
        ] {
            let mut cfg = CellConfig::new(s, Technique::Hash);
            cfg.rebalance = RebalanceSpec::Auto(RebalanceConfig {
                min_dwell: 1,
                trigger: 1.1,
                ..RebalanceConfig::default()
            });
            cfg.backend = backend;
            let out = run_cell(&cfg);
            assert_eq!(out.technique, "Hash+RB");
            assert!(
                out.bit_identical,
                "{backend:?}: rebalancing tenants diverged from their forced-migration oracles"
            );
            assert!(
                out.migrations >= 1,
                "{backend:?}: the skewed cell should migrate, saw none"
            );
        }
    }

    #[test]
    fn noisy_rebalance_cells_still_match_their_oracles() {
        use prompt_engine::rebalance::RebalanceConfig;
        // A noisy neighbor inflates the victim's observed busy times, which
        // may change the migration decisions — but the oracle replays the
        // recorded plans, so answers and routing must still be identical.
        let s = Scenario::by_name("zipf1.5-step-1k").expect("exists");
        let mut cfg = CellConfig::new(s, Technique::Hash);
        cfg.rebalance = RebalanceSpec::Auto(RebalanceConfig {
            min_dwell: 1,
            trigger: 1.1,
            ..RebalanceConfig::default()
        });
        cfg.noisy = true;
        let out = run_cell(&cfg);
        assert!(out.bit_identical, "noise must stay timing-only");
    }

    #[test]
    fn pinned_matrix_runs_end_to_end() {
        // One technique over the full pinned subset keeps this test fast
        // while touching every scenario recipe.
        let cells = run_matrix(
            &pinned_subset(),
            &[Technique::Prompt],
            2,
            4,
            Backend::InProcess,
            1,
            false,
        );
        assert_eq!(cells.len(), 8);
        assert!(cells.iter().all(|c| c.bit_identical));
    }
}

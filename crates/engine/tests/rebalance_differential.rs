//! The key-group rebalancer's acceptance gate: an [`RebalanceSpec::Auto`]
//! run's migration plans are a pure function of prior-commit load, so a
//! rebalanced run must be **bit-identical** — per-batch plans, stage
//! times, windows, span tiling, the migration log itself — to the same
//! workload forced through its recorded routing-table version sequence
//! ([`RebalanceSpec::Forced`]), on all three backends, including across a
//! worker kill that lands exactly on a migration batch. A stateful variant
//! checks the state slices reported as changing owner (`GroupMigrate::bytes`).
//!
//! These spawn OS processes for the distributed runs, so they live next to
//! the distributed smoke suite (CI runs both in the `distributed-smoke`
//! job) rather than the fast unit tier.

use prompt_core::partitioner::Technique;
use prompt_core::types::{Duration, Interval, Key, Time, Tuple};
use prompt_engine::prelude::*;

mod common;
use common::{assert_runs_identical, assert_spans_tile};
use prompt_engine::rebalance::RebalanceSpec;

/// Point the engine's worker-binary resolution at the freshly built
/// `prompt-worker` before any runtime launches.
fn ensure_worker_bin() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::set_var("PROMPT_WORKER_BIN", env!("CARGO_BIN_EXE_prompt-worker"));
    });
}

/// Hot-set churn: every interval puts 60% of its tuples on one hot key,
/// and the hot key itself moves every three batches — the workload the
/// grace-period auto-scaler cannot follow but the rebalancer reacts to
/// within a batch.
fn churn_source(rate: usize) -> impl TupleSource {
    move |iv: Interval, out: &mut Vec<Tuple>| {
        let step = iv.len().0 / (rate as u64 + 1);
        let seq = iv.start.0 / 1_000_000; // 1 s interval
        let hot_key = Key(100 + seq / 3);
        let hot = (rate as f64 * 0.6) as usize;
        for i in 0..rate {
            let key = if i < hot {
                hot_key
            } else {
                Key(1 + i as u64 % 30)
            };
            out.push(Tuple {
                ts: Time(iv.start.0 + step * (i as u64 + 1)),
                key,
                value: (i % 13) as f64 - 3.0,
            });
        }
    }
}

fn cfg(backend: Backend, rebalance: RebalanceSpec, trace: TraceLevel) -> EngineConfig {
    EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 4,
        reduce_tasks: 3,
        cluster: Cluster::new(2, 4),
        backend,
        trace,
        rebalance,
        ..EngineConfig::default()
    }
}

fn run(
    backend: Backend,
    rebalance: RebalanceSpec,
    trace: TraceLevel,
    faults: NetFaultPlan,
    stateful: bool,
) -> (RunResult, TraceRecorder) {
    run_at(1, backend, rebalance, trace, faults, stateful)
}

fn run_at(
    depth: usize,
    backend: Backend,
    rebalance: RebalanceSpec,
    trace: TraceLevel,
    faults: NetFaultPlan,
    stateful: bool,
) -> (RunResult, TraceRecorder) {
    ensure_worker_bin();
    let mut engine = StreamingEngine::new(
        EngineConfig {
            pipeline_depth: depth,
            ..cfg(backend, rebalance, trace)
        },
        Technique::Hash,
        11,
        Job::identity("sum", ReduceOp::Sum),
    )
    .with_window(WindowSpec::sliding(
        Duration::from_secs(3),
        Duration::from_secs(1),
    ))
    .with_net_faults(faults);
    if stateful {
        engine = engine.with_stateful(StatefulOp::SessionCount);
    }
    let mut src = churn_source(600);
    engine.run_traced(&mut src, 9)
}

fn auto() -> RebalanceSpec {
    RebalanceSpec::Auto(RebalanceConfig {
        n_groups: 24,
        ..RebalanceConfig::default()
    })
}

fn forced(oracle: &RunResult) -> RebalanceSpec {
    RebalanceSpec::Forced {
        n_groups: 24,
        plans: oracle.migrations.clone(),
    }
}

/// The migration log must be mirrored in the trace: one `Rebalance` event
/// per applied plan, one `GroupMigrate` per move, counters matching.
fn assert_migrations_traced(label: &str, res: &RunResult, rec: &TraceRecorder) {
    let events = rec.events();
    assert_eq!(
        rec.counter(Counter::Rebalances),
        res.migrations.len() as u64,
        "{label}"
    );
    let total_moves: usize = res.migrations.iter().map(|(_, p)| p.moves.len()).sum();
    assert_eq!(
        rec.counter(Counter::GroupsMoved),
        total_moves as u64,
        "{label}"
    );
    for (seq, plan) in &res.migrations {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::Rebalance { seq: s, moves, .. }
                if s == seq && *moves == plan.moves.len() as u64)),
            "{label}: migration at batch {seq} must be traced"
        );
        for mv in &plan.moves {
            assert!(
                events.iter().any(
                    |e| matches!(e, TraceEvent::GroupMigrate { seq: s, group, from, to, .. }
                        if s == seq && *group == mv.group && *from == mv.from && *to == mv.to)
                ),
                "{label}: move of group {} at batch {seq} must be traced",
                mv.group
            );
        }
    }
}

/// The core differential: the auto run migrates hot groups mid-run, and
/// replaying its recorded plan sequence through `RebalanceSpec::Forced` is
/// bit-identical on every backend — as is the auto run itself.
#[test]
fn auto_matches_forced_replay_on_all_backends() {
    let (oracle, orec) = run(
        Backend::InProcess,
        auto(),
        TraceLevel::Full,
        NetFaultPlan::none(),
        false,
    );
    assert_eq!(oracle.batches.len(), 9);
    assert!(
        !oracle.migrations.is_empty(),
        "hot-set churn must trip the rebalancer"
    );
    assert_migrations_traced("oracle", &oracle, &orec);

    for backend in [
        Backend::InProcess,
        Backend::Threaded { threads: 4 },
        Backend::Distributed {
            workers: 3,
            base_port: 0,
        },
    ] {
        let label = format!("{backend:?} auto");
        let (res, rec) = run(
            backend,
            auto(),
            TraceLevel::Full,
            NetFaultPlan::none(),
            false,
        );
        assert_runs_identical(&label, &oracle, &res);
        assert_spans_tile(&label, &res, &rec);
        assert_migrations_traced(&label, &res, &rec);

        let label = format!("{backend:?} forced replay");
        let (res, rec) = run(
            backend,
            forced(&oracle),
            TraceLevel::Full,
            NetFaultPlan::none(),
            false,
        );
        assert_runs_identical(&label, &oracle, &res);
        assert_spans_tile(&label, &res, &rec);
    }
}

/// Migration decisions may not depend on observability: `Off`, `Summary`
/// and `Full` auto runs emit the same plan sequence and numbers.
#[test]
fn migrations_are_trace_level_invariant() {
    let (oracle, _) = run(
        Backend::InProcess,
        auto(),
        TraceLevel::Full,
        NetFaultPlan::none(),
        false,
    );
    for trace in [TraceLevel::Off, TraceLevel::Summary] {
        let (res, _) = run(
            Backend::InProcess,
            auto(),
            trace,
            NetFaultPlan::none(),
            false,
        );
        assert_runs_identical(&format!("trace {trace:?}"), &oracle, &res);
    }
}

/// A worker killed exactly on a migration batch: the batch is recomputed
/// on the survivors under the *same* routing-table version and everything
/// stays bit-identical.
#[test]
fn worker_kill_on_migration_batch_recovers() {
    let (oracle, _) = run(
        Backend::InProcess,
        auto(),
        TraceLevel::Full,
        NetFaultPlan::none(),
        false,
    );
    let migration_seq = oracle
        .migrations
        .first()
        .expect("hot-set churn must trip the rebalancer")
        .0;
    let dist = Backend::Distributed {
        workers: 3,
        base_port: 0,
    };
    for (label, faults) in [
        (
            "kill-before-migration-batch",
            NetFaultPlan::none().kill_before(migration_seq, 1),
        ),
        (
            "kill-after-map-migration-batch",
            NetFaultPlan::none().kill_after_map(migration_seq, 1),
        ),
    ] {
        let (res, rec) = run(dist, auto(), TraceLevel::Full, faults, false);
        assert_runs_identical(label, &oracle, &res);
        assert_spans_tile(label, &res, &rec);
        assert_eq!(res.worker_losses, 1, "{label}: exactly one loss");
        assert_eq!(res.recoveries, 1, "{label}: exactly one recovery");
        assert!(
            rec.events()
                .iter()
                .any(|e| matches!(e, TraceEvent::WorkerLost { worker: 1, .. })),
            "{label}: loss must be traced"
        );
    }
}

/// A worker lost while batches are in flight around a migration, at depth
/// 2: killed as the batch *before* migration batch `m` dispatches, the loss
/// surfaces while `m − 2` or `m − 1` is awaited, with `m` filled under the
/// new routing version or not yet — wherever it lands it is charged once and
/// the run stays bit-identical to the undisturbed depth-2 run.
#[test]
fn worker_kill_around_a_pipelined_migration_recovers() {
    let dist = Backend::Distributed {
        workers: 3,
        base_port: 0,
    };
    let none = NetFaultPlan::none;
    let (oracle, _) = run_at(
        2,
        Backend::InProcess,
        auto(),
        TraceLevel::Full,
        none(),
        false,
    );
    let m = oracle
        .migrations
        .first()
        .expect("hot-set churn must trip the rebalancer")
        .0;
    assert!(m >= 2, "at depth 2 the first commit precedes batch 2");
    for (label, faults) in [
        ("kill-before-previous", none().kill_before(m - 1, 1)),
        ("kill-after-previous-map", none().kill_after_map(m - 1, 1)),
    ] {
        let (res, rec) = run_at(2, dist, auto(), TraceLevel::Full, faults, false);
        assert_runs_identical(label, &oracle, &res);
        assert_spans_tile(label, &res, &rec);
        assert_migrations_traced(label, &res, &rec);
        assert_eq!(res.worker_losses, 1, "{label}: exactly one loss");
        assert_eq!(res.recoveries, 1, "{label}: exactly one recovery");
    }
}

/// The stateful variant: with the keyed state store active, a migration
/// reports the size of the state slice that changes owner
/// (`GroupMigrate::bytes`, non-zero once groups carry state) — identically
/// on every backend, the driver's store being the only copy — and the run
/// stays bit-identical to the in-process oracle, including the stateful
/// emissions computed from the store.
#[test]
fn stateful_migrations_stay_bit_identical_and_report_moved_state() {
    let (oracle, orec) = run(
        Backend::InProcess,
        auto(),
        TraceLevel::Full,
        NetFaultPlan::none(),
        true,
    );
    assert!(
        !oracle.migrations.is_empty(),
        "hot-set churn must trip the rebalancer"
    );
    assert!(!oracle.stateful.is_empty(), "stateful emissions expected");
    // Migrations past warm-up carry real state: the moved group's keys
    // have in-window panes, so the slice is non-trivial.
    let migration_events = |rec: &TraceRecorder| -> Vec<TraceEvent> {
        let events = rec.events().into_iter();
        events
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Rebalance { .. } | TraceEvent::GroupMigrate { .. }
                )
            })
            .collect()
    };
    let moved = migration_events(&orec);
    let bytes: Vec<u64> = moved
        .iter()
        .filter_map(|e| match e {
            TraceEvent::GroupMigrate { bytes, .. } => Some(*bytes),
            _ => None,
        })
        .collect();
    assert!(!bytes.is_empty());
    assert!(
        bytes.iter().any(|&b| b > 0),
        "at least one migrated group must carry state: {bytes:?}"
    );
    for backend in [
        Backend::Threaded { threads: 4 },
        Backend::Distributed {
            workers: 3,
            base_port: 0,
        },
    ] {
        let label = format!("{backend:?} stateful auto");
        let (res, rec) = run(
            backend,
            auto(),
            TraceLevel::Full,
            NetFaultPlan::none(),
            true,
        );
        assert_runs_identical(&label, &oracle, &res);
        assert_migrations_traced(&label, &res, &rec);
        assert_eq!(migration_events(&rec), moved, "{label}: moved state");
    }
}

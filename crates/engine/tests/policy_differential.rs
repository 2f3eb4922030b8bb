//! The adaptive-policy acceptance gate: a [`PolicySpec::Adaptive`] run's
//! per-batch decisions are a pure function of prior-batch statistics, so an
//! adaptive run must be **bit-identical** — per-batch plans, stage times,
//! aggregates, window outputs, span tiling — to the same workload forced
//! through the recorded technique sequence ([`PolicySpec::Forced`]), on all
//! three backends, including across a worker kill that lands on the batch
//! where the policy switches strategies mid-run. Decisions must also be
//! invariant to the trace level: `Off`, `Summary` and `Full` runs pick the
//! same techniques. (Depth invariance is `pipeline_differential`'s sweep.)
//!
//! These spawn OS processes for the distributed runs, so they live next to
//! the distributed smoke suite (CI runs both in the `distributed-smoke`
//! job) rather than the fast unit tier.

use prompt_core::partitioner::Technique;
use prompt_core::types::{Duration, Interval, Key, Time, Tuple};
use prompt_engine::prelude::*;

mod common;
use common::{assert_runs_identical, assert_spans_tile};

/// Point the engine's worker-binary resolution at the freshly built
/// `prompt-worker` before any runtime launches.
fn ensure_worker_bin() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::set_var("PROMPT_WORKER_BIN", env!("CARGO_BIN_EXE_prompt-worker"));
    });
}

/// A drifting workload: the first four batches are near-uniform over 200
/// keys (where Hash wins), the rest put half the mass on one hot key (where
/// Prompt wins). An adaptive run started on Hash must switch mid-run.
fn drift_source(rate: usize) -> impl TupleSource {
    move |iv: Interval, out: &mut Vec<Tuple>| {
        let step = iv.len().0 / (rate as u64 + 1);
        let skewed = iv.start.0 >= 4_000_000; // batches 4+ on a 1 s interval
        for i in 0..rate {
            let key = if skewed {
                if i % 2 == 0 {
                    0
                } else {
                    1 + (i as u64 % 30)
                }
            } else {
                i as u64 % 200
            };
            out.push(Tuple {
                ts: Time(iv.start.0 + step * (i as u64 + 1)),
                key: Key(key),
                value: (i % 13) as f64 - 3.0,
            });
        }
    }
}

fn cfg(backend: Backend, policy: PolicySpec, trace: TraceLevel) -> EngineConfig {
    EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 4,
        reduce_tasks: 3,
        cluster: Cluster::new(2, 4),
        backend,
        trace,
        policy,
        ..EngineConfig::default()
    }
}

fn run(
    backend: Backend,
    policy: PolicySpec,
    trace: TraceLevel,
    faults: NetFaultPlan,
) -> (RunResult, TraceRecorder) {
    ensure_worker_bin();
    let mut engine = StreamingEngine::new(
        cfg(backend, policy, trace),
        Technique::Hash,
        11,
        Job::identity("sum", ReduceOp::Sum),
    )
    .with_window(WindowSpec::sliding(
        Duration::from_secs(3),
        Duration::from_secs(1),
    ))
    .with_net_faults(faults);
    let mut src = drift_source(600);
    engine.run_traced(&mut src, 8)
}

fn adaptive() -> PolicySpec {
    PolicySpec::Adaptive(AdaptiveConfig::default())
}

/// The per-batch technique sequence a run recorded.
fn techniques_of(res: &RunResult) -> Vec<Technique> {
    res.batches.iter().map(|b| b.technique).collect()
}

/// The decision log must be coherent: one decision per batch in sequence
/// order, each naming the technique the batch actually ran, with switch
/// flags mirrored in the counters and the `PolicySwitch` event stream.
fn assert_decision_log_coherent(label: &str, res: &RunResult, rec: &TraceRecorder) {
    assert_eq!(
        res.policy_decisions.len(),
        res.batches.len(),
        "{label}: one decision per batch"
    );
    for (d, b) in res.policy_decisions.iter().zip(&res.batches) {
        assert_eq!(d.seq, b.seq, "{label}");
        assert_eq!(d.technique, b.technique, "{label} batch {}", b.seq);
        assert_eq!(d.switched, d.technique != d.prev, "{label} batch {}", b.seq);
    }
    let switches: Vec<&PolicyDecision> =
        res.policy_decisions.iter().filter(|d| d.switched).collect();
    assert_eq!(
        rec.counter(Counter::PolicyDecisions),
        res.batches.len() as u64,
        "{label}"
    );
    assert_eq!(
        rec.counter(Counter::PolicySwitches),
        switches.len() as u64,
        "{label}"
    );
    let events = rec.events();
    for d in &switches {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::PolicySwitch { seq, from, to }
                if *seq == d.seq && *from == d.prev.label() && *to == d.technique.label())),
            "{label}: switch at batch {} must be traced",
            d.seq
        );
    }
}

/// A forced replay is *given* its decisions, so its log carries no scores —
/// the one thing it may not share with the run it replays. Check that it
/// made the oracle's decisions and scored nothing, then lend it the oracle's
/// evidence so the full comparison applies to everything else.
fn with_evidence_of(oracle: &RunResult, replay: RunResult) -> RunResult {
    let decided = |run: &RunResult| -> Vec<_> {
        let log = run.policy_decisions.iter();
        log.map(|d| (d.seq, d.technique, d.prev, d.switched))
            .collect()
    };
    assert_eq!(decided(oracle), decided(&replay), "replayed decisions");
    assert!(replay.policy_decisions.iter().all(|d| d.scores.is_empty()));
    RunResult {
        policy_decisions: oracle.policy_decisions.clone(),
        ..replay
    }
}

/// The core differential: the adaptive run switches techniques mid-run, and
/// replaying its recorded sequence through `PolicySpec::Forced` is
/// bit-identical on every backend — as is the adaptive run itself.
#[test]
fn adaptive_matches_forced_replay_on_all_backends() {
    let (oracle, orec) = run(
        Backend::InProcess,
        adaptive(),
        TraceLevel::Full,
        NetFaultPlan::none(),
    );
    assert_eq!(oracle.batches.len(), 8);
    assert_decision_log_coherent("oracle", &oracle, &orec);
    let sequence = techniques_of(&oracle);
    let distinct: std::collections::BTreeSet<String> = sequence.iter().map(|t| t.label()).collect();
    assert!(
        distinct.len() >= 2,
        "the drift workload must force a mid-run switch, got {sequence:?}"
    );
    assert_eq!(
        sequence[0],
        Technique::Hash,
        "batch 0 has no statistics: it keeps the constructor technique"
    );
    assert!(
        sequence.contains(&Technique::Prompt),
        "the skewed tail must drive the policy to Prompt: {sequence:?}"
    );

    for backend in [
        Backend::InProcess,
        Backend::Threaded { threads: 4 },
        Backend::Distributed {
            workers: 3,
            base_port: 0,
        },
    ] {
        let label = format!("{backend:?} adaptive");
        let (res, rec) = run(backend, adaptive(), TraceLevel::Full, NetFaultPlan::none());
        assert_runs_identical(&label, &oracle, &res);
        assert_spans_tile(&label, &res, &rec);
        assert_decision_log_coherent(&label, &res, &rec);

        let label = format!("{backend:?} forced replay");
        let (res, rec) = run(
            backend,
            PolicySpec::Forced(sequence.clone()),
            TraceLevel::Full,
            NetFaultPlan::none(),
        );
        let res = with_evidence_of(&oracle, res);
        assert_runs_identical(&label, &oracle, &res);
        assert_spans_tile(&label, &res, &rec);
    }
}

/// Decisions may not depend on observability: `Off`, `Summary` and `Full`
/// adaptive runs pick the same per-batch techniques and produce the same
/// numbers.
#[test]
fn decisions_are_trace_level_invariant() {
    let (oracle, _) = run(
        Backend::InProcess,
        adaptive(),
        TraceLevel::Full,
        NetFaultPlan::none(),
    );
    for trace in [TraceLevel::Off, TraceLevel::Summary] {
        let (res, _) = run(Backend::InProcess, adaptive(), trace, NetFaultPlan::none());
        let label = format!("trace {trace:?}");
        assert_eq!(
            techniques_of(&oracle),
            techniques_of(&res),
            "{label}: technique sequence"
        );
        assert_eq!(
            oracle.policy_decisions, res.policy_decisions,
            "{label}: full decision log"
        );
        assert_runs_identical(&label, &oracle, &res);
    }
}

/// The policy and the rebalancer compose: the policy picks how each batch
/// is partitioned, the batch's routing snapshot where its keys reduce. An
/// `Adaptive` + `Auto` run switches techniques *and* migrates groups, and is
/// bit-identical to the same workload forced through both recorded decision
/// sequences — on every backend, at depths 1 and 2 (each depth against its
/// own log: the rebalancer's feedback lags by `depth`).
#[test]
fn adaptive_policy_composes_with_the_rebalancer() {
    use prompt_engine::rebalance::RebalanceSpec;
    let combined = |backend, depth, policy, rebalance| {
        ensure_worker_bin();
        let mut c = cfg(backend, policy, TraceLevel::Full);
        c.pipeline_depth = depth;
        c.rebalance = rebalance;
        let mut engine =
            StreamingEngine::new(c, Technique::Hash, 11, Job::identity("sum", ReduceOp::Sum))
                .with_window(WindowSpec::sliding(
                    Duration::from_secs(3),
                    Duration::from_secs(1),
                ));
        engine.run_traced(&mut drift_source(600), 10)
    };
    let auto = || {
        RebalanceSpec::Auto(RebalanceConfig {
            n_groups: 24,
            ..RebalanceConfig::default()
        })
    };
    for depth in [1, 2] {
        let (oracle, orec) = combined(Backend::InProcess, depth, adaptive(), auto());
        assert_decision_log_coherent("oracle", &oracle, &orec);
        assert!(
            oracle.policy_decisions.iter().any(|d| d.switched),
            "depth {depth}: the drift must switch techniques"
        );
        assert!(
            !oracle.migrations.is_empty(),
            "depth {depth}: the hot key must trip the rebalancer"
        );
        for backend in [
            Backend::InProcess,
            Backend::Threaded { threads: 4 },
            Backend::Distributed {
                workers: 3,
                base_port: 0,
            },
        ] {
            let label = format!("{backend:?} depth {depth} adaptive+auto");
            let (res, rec) = combined(backend, depth, adaptive(), auto());
            assert_runs_identical(&label, &oracle, &res);
            assert_eq!(oracle.migrations, res.migrations, "{label}");
            assert_eq!(oracle.policy_decisions, res.policy_decisions, "{label}");
            assert_spans_tile(&label, &res, &rec);
            assert_eq!(res.worker_losses, 0, "{label}");

            let label = format!("{backend:?} depth {depth} forced replay of both logs");
            let (res, rec) = combined(
                backend,
                depth,
                PolicySpec::Forced(techniques_of(&oracle)),
                RebalanceSpec::Forced {
                    n_groups: 24,
                    plans: oracle.migrations.clone(),
                },
            );
            let res = with_evidence_of(&oracle, res);
            assert_runs_identical(&label, &oracle, &res);
            assert_eq!(oracle.migrations, res.migrations, "{label}");
            assert_spans_tile(&label, &res, &rec);
        }
    }
}

/// A worker killed exactly on the batch where the policy switches
/// strategies: the batch is re-partitioned with the *same* per-batch
/// technique on the survivors and the outputs stay bit-identical.
#[test]
fn worker_kill_on_switch_batch_recovers() {
    let (oracle, orec) = run(
        Backend::InProcess,
        adaptive(),
        TraceLevel::Full,
        NetFaultPlan::none(),
    );
    let switch_seq = oracle
        .policy_decisions
        .iter()
        .find(|d| d.switched)
        .expect("the drift workload must switch")
        .seq;
    assert_decision_log_coherent("oracle", &oracle, &orec);
    let dist = Backend::Distributed {
        workers: 3,
        base_port: 0,
    };
    for (label, faults) in [
        (
            "kill-before-switch-batch",
            NetFaultPlan::none().kill_before(switch_seq, 1),
        ),
        (
            "kill-after-map-switch-batch",
            NetFaultPlan::none().kill_after_map(switch_seq, 1),
        ),
    ] {
        let (res, rec) = run(dist, adaptive(), TraceLevel::Full, faults);
        assert_runs_identical(label, &oracle, &res);
        assert_spans_tile(label, &res, &rec);
        assert_decision_log_coherent(label, &res, &rec);
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

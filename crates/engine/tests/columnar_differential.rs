//! The columnar data plane's acceptance gate: `EngineConfig::columnar` is a
//! hot-path-only optimization (struct-of-arrays seal, range-view blocks,
//! flat-array scatter/reduce, arena-sliced wire frames), so a columnar run
//! on every backend must stay **bit-identical** to the row-path serial
//! in-process oracle — per-batch plans and plan metrics, cost-model stage
//! times, f64 aggregates, window outputs — and the recorded virtual-time
//! spans must still tile each batch's processing exactly. A worker killed
//! mid-batch under the columnar plane must be detected, the batch
//! re-dispatched from the columnar plan in hand (frames byte-identical to a
//! row run's retry), and the outputs left unchanged.
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

/// Skewed workload with a rotating hot key and non-trivial f64 values, so
/// per-key fold order is observable (f64 addition is non-associative) and
/// plans differ batch to batch.
fn source(rate: usize, keys: u64) -> impl TupleSource {
    move |iv: Interval, out: &mut Vec<Tuple>| {
        let step = iv.len().0 / (rate as u64 + 1);
        let hot = iv.start.0 / 1_000_000 % keys; // rotates every batch
        for i in 0..rate {
            let key = if i % 4 == 0 { hot } else { i as u64 % keys };
            out.push(Tuple {
                ts: Time(iv.start.0 + step * (i as u64 + 1)),
                key: Key(key),
                value: (i % 13) as f64 * 0.37 - 2.1,
            });
        }
    }
}

fn cfg(backend: Backend, depth: usize, columnar: bool) -> EngineConfig {
    EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 4,
        reduce_tasks: 3,
        cluster: Cluster::new(2, 4),
        backend,
        pipeline_depth: depth,
        columnar,
        trace: TraceLevel::Full,
        ..EngineConfig::default()
    }
}

fn run(
    backend: Backend,
    depth: usize,
    columnar: bool,
    faults: NetFaultPlan,
) -> (RunResult, TraceRecorder) {
    ensure_worker_bin();
    let mut engine = StreamingEngine::new(
        cfg(backend, depth, columnar),
        Technique::Prompt,
        11,
        Job::identity("sum", ReduceOp::Sum),
    )
    .with_window(WindowSpec::sliding(
        Duration::from_secs(3),
        Duration::from_secs(1),
    ))
    .with_net_faults(faults);
    let mut src = source(700, 19);
    engine.run_traced(&mut src, 8)
}

/// The core differential sweep: the columnar plane on all three backends
/// (and through the depth-2 pipelined distributed path) against the
/// row-path serial in-process oracle.
#[test]
fn columnar_is_bit_identical_to_rows_across_backends() {
    let (oracle, _) = run(Backend::InProcess, 1, false, NetFaultPlan::none());
    assert_eq!(oracle.batches.len(), 8);
    for (backend, depth) in [
        (Backend::InProcess, 1),
        (Backend::Threaded { threads: 4 }, 1),
        (
            Backend::Distributed {
                workers: 3,
                base_port: 0,
            },
            1,
        ),
        (
            Backend::Distributed {
                workers: 3,
                base_port: 0,
            },
            2,
        ),
    ] {
        let label = format!("columnar {backend:?} depth {depth}");
        let (res, rec) = run(backend, depth, true, NetFaultPlan::none());
        assert_runs_identical(&label, &oracle, &res);
        assert_spans_tile(&label, &res, &rec);
        assert_eq!(res.worker_losses, 0, "{label}");
        assert_eq!(res.recoveries, 0, "{label}");
        if matches!(backend, Backend::Distributed { .. }) {
            let net = res.net.expect("distributed runs report wire stats");
            assert_eq!(net.workers_lost, 0, "{label}");
        }
    }
}

/// What reads a plan besides the executors — the plan metrics, the policy's
/// `BatchObservation` and the rebalancer's group weights — reads per-block
/// fragment lists, which a sealed columnar plan holds itself (the driver
/// renders no row plan for them). Under `Adaptive` + `Auto` on a drift from
/// uniform keys (Hash, which seals rows even with the flag on) to one hot
/// key (Prompt, which seals columns), every decision either controller
/// takes and everything a `BatchRecord` reports must equal the row run's.
#[test]
fn columnar_feeds_the_policy_and_the_rebalancer_what_rows_feed_them() {
    let drift = |iv: Interval, out: &mut Vec<Tuple>| {
        // Batches 0–3 uniform, 4–7 half the mass on key 0, 8+ on key 7.
        let hot = [None, Some(0), Some(7)][(iv.start.0 / 4_000_000).min(2) as usize];
        for i in 0..600u64 {
            let key = match (hot, i % 2) {
                (None, _) => i % 200,
                (Some(hot), 0) => hot,
                (Some(_), _) => 1 + i % 30,
            };
            out.push(Tuple {
                ts: Time(iv.start.0 + 1_000 * (i + 1)),
                key: Key(key),
                value: (i % 13) as f64 - 3.0,
            });
        }
    };
    let run = |columnar: bool| {
        let cfg = EngineConfig {
            policy: PolicySpec::Adaptive(AdaptiveConfig::default()),
            rebalance: RebalanceSpec::Auto(RebalanceConfig {
                n_groups: 24,
                ..RebalanceConfig::default()
            }),
            ..cfg(Backend::InProcess, 1, columnar)
        };
        let job = Job::identity("sum", ReduceOp::Sum);
        StreamingEngine::new(cfg, Technique::Hash, 11, job)
            .with_window(WindowSpec::sliding(
                Duration::from_secs(3),
                Duration::from_secs(1),
            ))
            .run(&mut { drift }, 12)
    };
    let (row, col) = (run(false), run(true));
    // The drift exercises both readers on columnar plans: the policy moves
    // to Prompt, and the rebalancer then plans from a Prompt batch's weights.
    let switch = row
        .policy_decisions
        .iter()
        .find(|d| d.switched && d.technique == Technique::Prompt)
        .expect("the hot key must move the policy to Prompt");
    assert!(
        row.migrations.iter().any(|(seq, _)| *seq > switch.seq + 1),
        "no migration planned from a Prompt batch: switch at {}, plans at {:?}",
        switch.seq,
        row.migrations.iter().map(|(s, _)| *s).collect::<Vec<_>>()
    );
    assert_eq!(row.policy_decisions.len(), col.policy_decisions.len());
    for (a, b) in row.policy_decisions.iter().zip(&col.policy_decisions) {
        let bits = |d: &PolicyDecision| -> Vec<(Technique, u64)> {
            d.scores.iter().map(|&(t, s)| (t, s.to_bits())).collect()
        };
        assert_eq!(
            (a.seq, a.technique, a.prev, a.switched, bits(a)),
            (b.seq, b.technique, b.prev, b.switched, bits(b)),
        );
    }
    assert_eq!(row.migrations, col.migrations);
    // plan_metrics, n_keys, map_tasks, task times and windows.
    assert_runs_identical("adaptive + auto, columnar vs rows", &row, &col);
    for (a, b) in row.batches.iter().zip(&col.batches) {
        assert_eq!(a.technique, b.technique, "batch {}", a.seq);
    }
}

/// Column-sliced frames are byte-identical to row frames, so a columnar
/// distributed run must put exactly the same bytes on the wire as a row
/// run of the same workload.
#[test]
fn columnar_wire_traffic_matches_rows_byte_for_byte() {
    let dist = Backend::Distributed {
        workers: 3,
        base_port: 0,
    };
    let (row, _) = run(dist, 1, false, NetFaultPlan::none());
    let (col, _) = run(dist, 1, true, NetFaultPlan::none());
    let (rn, cn) = (row.net.expect("wire stats"), col.net.expect("wire stats"));
    assert_eq!(rn.bytes_sent, cn.bytes_sent, "sent bytes must match");
    assert_eq!(rn.frames_sent, cn.frames_sent, "frame counts must match");
}

/// A worker killed mid-batch under the columnar plane: the loss surfaces
/// through the same wait path, the batch is re-dispatched on the survivors
/// from the columnar plan still in hand, and outputs stay bit-identical.
#[test]
fn worker_kill_under_columnar_plane_recovers() {
    let (oracle, _) = run(Backend::InProcess, 1, false, NetFaultPlan::none());
    let dist = Backend::Distributed {
        workers: 3,
        base_port: 0,
    };
    for (label, depth, faults) in [
        // Killed before its Map tasks dispatch: the submit path aborts.
        ("kill-before", 1, NetFaultPlan::none().kill_before(2, 1)),
        // Killed after Map completes, mid-shuffle: the drain path aborts.
        (
            "kill-after-map",
            1,
            NetFaultPlan::none().kill_after_map(2, 1),
        ),
        // Same mid-shuffle kill while two columnar batches are in flight.
        (
            "kill-after-map-depth2",
            2,
            NetFaultPlan::none().kill_after_map(2, 1),
        ),
    ] {
        let (res, rec) = run(dist, depth, true, faults.clone());
        assert_runs_identical(label, &oracle, &res);
        assert_spans_tile(label, &res, &rec);
        assert_eq!(res.worker_losses, 1, "{label}: exactly one loss");
        assert_eq!(res.recoveries, 1, "{label}: exactly one recovery");
        let net = res.net.expect("distributed runs report wire stats");
        assert_eq!(net.workers_lost, 1, "{label}");
        assert!(
            rec.events()
                .iter()
                .any(|e| matches!(e, TraceEvent::WorkerLost { worker: 1, .. })),
            "{label}: loss must be traced"
        );
        if depth == 1 {
            // The retry's Map frames come from the columnar encoder too, so
            // the whole faulted run — first attempt, retry and all — puts
            // the same bytes on the wire as a row run under the same kill.
            // (At depth 2 how much of the window was dispatched before the
            // loss surfaced depends on timing, so only depth 1 is compared.)
            let (row, _) = run(dist, depth, false, faults);
            let rn = row.net.expect("wire stats");
            assert_eq!(rn.bytes_sent, net.bytes_sent, "{label}: sent bytes");
            assert_eq!(rn.frames_sent, net.frames_sent, "{label}: frame count");
        }
    }
}

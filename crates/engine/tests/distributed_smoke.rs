//! The distributed acceptance gate: real `prompt-worker` processes over
//! loopback TCP must be **bit-identical** to the serial in-process engine —
//! per-batch plans, stage times, aggregates and window outputs — and a
//! worker killed mid-run must be detected, its batches resubmitted to the
//! survivors from the plans in hand within the recovery budget, and leave
//! the outputs unchanged.
//!
//! These spawn OS processes, so they live in their own test binary (CI runs
//! it as the `distributed-smoke` job) rather than the fast unit tier.

use prompt_core::partitioner::Technique;
use prompt_core::types::{Duration, Interval, Key, Time, Tuple};
use prompt_engine::prelude::*;

mod common;
use common::assert_runs_identical;

/// Point the engine's worker-binary resolution at the freshly built
/// `prompt-worker` before any runtime launches. Cargo guarantees the binary
/// exists when this test binary runs.
fn ensure_worker_bin() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::set_var("PROMPT_WORKER_BIN", env!("CARGO_BIN_EXE_prompt-worker"));
    });
}

/// Skewed workload: key 0 takes ~40% of tuples, the rest spread over a
/// round-robin tail with varying values.
fn skewed_source(rate: usize, keys: u64) -> impl TupleSource {
    move |iv: Interval, out: &mut Vec<Tuple>| {
        let step = iv.len().0 / (rate as u64 + 1);
        for i in 0..rate {
            let key = if i % 5 < 2 {
                0
            } else {
                1 + (i as u64 % (keys - 1))
            };
            out.push(Tuple {
                ts: Time(iv.start.0 + step * (i as u64 + 1)),
                key: Key(key),
                value: (i % 17) as f64 - 4.5,
            });
        }
    }
}

/// Uniform workload with a drifting key set, stressing re-registration of
/// clusters across batches.
fn drifting_source(rate: usize, keys: u64) -> impl TupleSource {
    move |iv: Interval, out: &mut Vec<Tuple>| {
        let step = iv.len().0 / (rate as u64 + 1);
        let shift = iv.start.0 / 1_000_000; // one new key band per batch
        for i in 0..rate {
            out.push(Tuple {
                ts: Time(iv.start.0 + step * (i as u64 + 1)),
                key: Key((i as u64 + shift * 3) % keys),
                value: 1.0 + (i % 7) as f64,
            });
        }
    }
}

fn cfg_with(backend: Backend) -> EngineConfig {
    EngineConfig {
        batch_interval: Duration::from_secs(1),
        map_tasks: 4,
        reduce_tasks: 3,
        cluster: Cluster::new(2, 4),
        backend,
        ..EngineConfig::default()
    }
}

fn run_pair(
    technique: Technique,
    job: Job,
    source_of: impl Fn() -> Box<dyn TupleSource>,
    workers: usize,
    n_batches: usize,
) -> (RunResult, RunResult) {
    ensure_worker_bin();
    let window = WindowSpec::sliding(Duration::from_secs(3), Duration::from_secs(1));
    let mut serial = StreamingEngine::new(cfg_with(Backend::InProcess), technique, 9, job.clone())
        .with_window(window);
    let serial_res = serial.run(source_of().as_mut(), n_batches);

    let mut dist = StreamingEngine::new(
        cfg_with(Backend::Distributed {
            workers,
            base_port: 0,
        }),
        technique,
        9,
        job,
    )
    .with_window(window);
    let dist_res = dist.run(source_of().as_mut(), n_batches);
    (serial_res, dist_res)
}

#[test]
fn skewed_sum_two_processes_bit_identical() {
    let (serial, dist) = run_pair(
        Technique::Prompt,
        Job::identity("sum", ReduceOp::Sum),
        || Box::new(skewed_source(900, 23)),
        2,
        6,
    );
    assert_runs_identical("distributed vs serial", &serial, &dist);
    assert_eq!(dist.worker_losses, 0);
    assert_eq!(dist.recoveries, 0);
    let net = dist.net.expect("distributed runs report wire stats");
    assert_eq!(net.workers_lost, 0);
    assert!(net.frames_sent > 0 && net.bytes_sent > 0);
    assert!(serial.net.is_none(), "in-process runs have no wire stats");

    // The pooled data plane: across 6 batches the two workers dial each
    // other at most once per direction and reuse those connections for
    // every later fetch.
    assert!(
        net.shuffle_conns_dialed <= 2,
        "2 workers need at most one dial per direction, got {}",
        net.shuffle_conns_dialed
    );
    assert!(
        net.shuffle_conns_reused > net.shuffle_conns_dialed,
        "pool hits ({}) must dominate dials ({})",
        net.shuffle_conns_reused,
        net.shuffle_conns_dialed
    );
    assert!(net.shuffle_bytes_wire > 0, "remote fetches happened");
}

#[test]
fn drifting_count_three_processes_bit_identical() {
    let (serial, dist) = run_pair(
        Technique::Hash,
        Job::identity("count", ReduceOp::Count),
        || Box::new(drifting_source(700, 40)),
        3,
        6,
    );
    assert_runs_identical("distributed vs serial", &serial, &dist);
    assert_eq!(dist.worker_losses, 0);
}

fn ckpt_dir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!("prompt-smoke-{tag}-{}-{nanos}", std::process::id()))
}

/// The state-recovery acceptance gate: a worker killed mid-window *and* a
/// scheduled loss of the whole keyed state store, with checkpointing on,
/// must restore from the checkpoint, recompute only the post-watermark
/// suffix (fewer batches than the no-checkpoint rebuild), and leave every
/// window bit-identical to the serial engine.
#[test]
fn checkpointed_state_survives_worker_kill_and_store_loss() {
    ensure_worker_bin();
    let job = Job::identity("sum", ReduceOp::Sum);
    // The window spans the whole run so the no-checkpoint variant retains
    // every batch and recompute-from-scratch stays feasible.
    let window = WindowSpec::sliding(Duration::from_secs(8), Duration::from_secs(1));
    let n_batches = 8;

    let mut serial = StreamingEngine::new(
        cfg_with(Backend::InProcess),
        Technique::Prompt,
        5,
        job.clone(),
    )
    .with_window(window)
    .with_stateful(StatefulOp::SessionCount);
    let serial_res = serial.run(&mut skewed_source(600, 15), n_batches);

    let run_dist = |checkpoint: Option<CheckpointConfig>| {
        let mut cfg = cfg_with(Backend::Distributed {
            workers: 3,
            base_port: 0,
        });
        cfg.trace = TraceLevel::Full;
        cfg.checkpoint = checkpoint;
        let mut dist = StreamingEngine::new(cfg, Technique::Prompt, 5, job.clone())
            .with_window(window)
            .with_stateful(StatefulOp::SessionCount)
            .with_fault_tolerance(3, FaultPlan::none().lose_store_at(5))
            .with_net_faults(NetFaultPlan::none().kill_before(2, 1));
        dist.run_traced(&mut skewed_source(600, 15), n_batches)
    };

    let dir = ckpt_dir("recovery");
    let (ckpt_res, rec) = run_dist(Some(CheckpointConfig::new(&dir).interval(1)));
    let (scratch_res, _) = run_dist(None);

    // The worker kill really happened and was recovered from...
    assert_eq!(ckpt_res.worker_losses, 1, "worker 1 dies at batch 2");
    assert_eq!(ckpt_res.recoveries, 1);

    // ...the store loss restored from the checkpoint, recomputing only the
    // post-watermark suffix (nothing: the watermark covers batch 4)...
    let ckpt_stats = ckpt_res.state.expect("state layer on");
    let scratch_stats = scratch_res.state.expect("state layer on");
    assert_eq!(ckpt_stats.restores, 1);
    assert_eq!(scratch_stats.restores, 1);
    assert_eq!(
        scratch_stats.recomputed_batches, 5,
        "no checkpoint: rebuild all"
    );
    assert!(
        ckpt_stats.recomputed_batches < scratch_stats.recomputed_batches,
        "checkpoint must shrink the recompute suffix: {} vs {}",
        ckpt_stats.recomputed_batches,
        scratch_stats.recomputed_batches
    );
    assert_eq!(rec.counter(Counter::StateRestores), 1);
    assert!(
        rec.counter(Counter::Checkpoints) >= 7,
        "one commit per batch"
    );
    let events = rec.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::StateRestore { seq: 5, .. })),
        "the restore decision must be visible in the trace"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::Checkpoint { .. })),
        "checkpoint commits must be visible in the trace"
    );

    // ...and the retained inputs were truncated at the watermark while the
    // no-checkpoint run had to keep everything.
    assert!(
        ckpt_stats.max_retained_batches < scratch_stats.max_retained_batches,
        "watermark truncation must bound retention: {} vs {}",
        ckpt_stats.max_retained_batches,
        scratch_stats.max_retained_batches
    );

    // Both runs emit windows and stateful results bit-identical to serial.
    for (name, res) in [("checkpoint", &ckpt_res), ("scratch", &scratch_res)] {
        assert_eq!(serial_res.windows.len(), res.windows.len(), "{name}");
        for (a, b) in serial_res.windows.iter().zip(&res.windows) {
            assert_eq!(
                a.aggregates, b.aggregates,
                "{name} window {}",
                a.last_batch_seq
            );
        }
        assert_eq!(serial_res.stateful.len(), res.stateful.len(), "{name}");
        for (a, b) in serial_res.stateful.iter().zip(&res.stateful) {
            assert_eq!(
                a.aggregates, b.aggregates,
                "{name} stateful {}",
                a.last_batch_seq
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Elasticity beside durable state on the fleet: when the auto-scaler changes
/// the task counts mid-run, the driver's store — the only copy of keyed
/// state; the workers hold none — is left alone (`STATE_SHARDS` shards before
/// and after, no commit but the interval's, no snapshot but the first and the
/// cadence's), and the answers stay bit-identical to the serial engine
/// without checkpointing.
#[test]
fn scaling_moves_no_state_on_the_fleet() {
    ensure_worker_bin();
    let job = Job::identity("count", ReduceOp::Count);
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
    let base_cfg = |backend: Backend| {
        let mut cfg = cfg_with(backend);
        cfg.map_tasks = 2;
        cfg.reduce_tasks = 2;
        cfg.cluster = Cluster::new(4, 4);
        cfg.cost = CostModel {
            map_per_tuple: Duration::from_micros(150),
            reduce_per_tuple: Duration::from_micros(150),
            ..CostModel::default()
        };
        cfg.elasticity = Some(ScalerConfig {
            d: 2,
            ..Default::default()
        });
        cfg
    };

    let mut serial = StreamingEngine::new(
        base_cfg(Backend::InProcess),
        Technique::Prompt,
        9,
        job.clone(),
    )
    .with_window(window);
    let serial_res = serial.run(&mut source(), 20);
    assert!(
        serial_res.scale_events.iter().any(|(_, a)| a.out),
        "load ramp must trigger scale-out"
    );

    let dist_run = |tag: &str, n_batches: usize| {
        let dir = ckpt_dir(tag);
        let mut cfg = base_cfg(Backend::Distributed {
            workers: 2,
            base_port: 0,
        });
        cfg.checkpoint = Some(CheckpointConfig::new(&dir).interval(2));
        let mut dist =
            StreamingEngine::new(cfg, Technique::Prompt, 9, job.clone()).with_window(window);
        let res = dist.run(&mut source(), n_batches);
        let left = prompt_engine::state::restore(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (res, left.expect("the run committed").store.shard_count())
    };
    let (dist_res, shards_after) = dist_run("scaling", 20);

    assert_eq!(serial_res.scale_events, dist_res.scale_events);
    // 10 commits, every one the interval's: the first snapshots and the
    // `snapshot_every` cadence (8) does, a scale action does neither.
    let stats = dist_res.state.expect("state layer on");
    assert_eq!(stats.checkpoints, 20 / 2);
    assert_eq!(stats.snapshots, 1 + (stats.checkpoints - 1) / 8);
    assert_eq!(shards_after, STATE_SHARDS);
    // The same run cut short of its first scale-out.
    let (first_out, _) = dist_res.scale_events.iter().find(|(_, a)| a.out).unwrap();
    let (before, shards_before) = dist_run("scaling-before", *first_out as usize);
    assert!(before.scale_events.iter().all(|(_, a)| !a.out));
    assert_eq!(shards_before, STATE_SHARDS);
    assert_eq!(serial_res.windows.len(), dist_res.windows.len());
    for (a, b) in serial_res.windows.iter().zip(&dist_res.windows) {
        assert_eq!(
            a.aggregates, b.aggregates,
            "window at batch {} must survive scaling bit-identically",
            a.last_batch_seq
        );
    }
}

#[test]
fn killed_worker_recovers_and_outputs_match_serial() {
    ensure_worker_bin();
    let job = Job::identity("sum", ReduceOp::Sum);
    let window = WindowSpec::tumbling(Duration::from_secs(2));
    let n_batches = 6;

    let mut serial = StreamingEngine::new(
        cfg_with(Backend::InProcess),
        Technique::Prompt,
        5,
        job.clone(),
    )
    .with_window(window);
    let serial_res = serial.run(&mut skewed_source(600, 15), n_batches);

    let mut cfg = cfg_with(Backend::Distributed {
        workers: 3,
        base_port: 0,
    });
    cfg.trace = TraceLevel::Full;
    let mut dist = StreamingEngine::new(cfg, Technique::Prompt, 5, job)
        .with_window(window)
        .with_net_faults(NetFaultPlan::none().kill_before(2, 1));
    let (dist_res, rec) = dist.run_traced(&mut skewed_source(600, 15), n_batches);

    // The kill really happened and was recovered from...
    assert_eq!(dist_res.worker_losses, 1, "worker 1 dies at batch 2");
    assert_eq!(dist_res.recoveries, 1);
    assert_eq!(dist_res.net.expect("wire stats").workers_lost, 1);
    assert_eq!(rec.counter(Counter::WorkersLost), 1);
    assert_eq!(rec.counter(Counter::Recoveries), 1);
    let events = rec.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::WorkerLost { seq: 2, worker: 1 })),
        "worker-loss decision must be visible in the trace"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::Recovery { seq: 2, .. })),
        "recompute decision must be visible in the trace"
    );

    // ...and the survivors' recompute left every output bit-identical.
    assert_eq!(serial_res.batches.len(), dist_res.batches.len());
    for (a, b) in serial_res.batches.iter().zip(&dist_res.batches) {
        assert_eq!(a.n_tuples, b.n_tuples, "batch {}", a.seq);
        assert_eq!(a.plan_metrics, b.plan_metrics, "batch {} plan", a.seq);
        assert_eq!(a.map_stage, b.map_stage, "batch {} map stage", a.seq);
        assert_eq!(a.reduce_stage, b.reduce_stage, "batch {}", a.seq);
        assert_eq!(a.processing, b.processing, "batch {} processing", a.seq);
    }
    assert_eq!(serial_res.windows.len(), dist_res.windows.len());
    for (a, b) in serial_res.windows.iter().zip(&dist_res.windows) {
        assert_eq!(a.aggregates, b.aggregates, "window {}", a.last_batch_seq);
    }
}

/// Three workers, two losses on one batch: worker 0 dies before batch 2's
/// Map tasks and worker 1 right after them, under a recovery budget of
/// `budget` worker losses per execution.
fn killed_twice_in_batch_2(budget: usize) -> (RunResult, TraceRecorder) {
    ensure_worker_bin();
    let mut cfg = cfg_with(Backend::Distributed {
        workers: 3,
        base_port: 0,
    });
    cfg.trace = TraceLevel::Full;
    let faults = NetFaultPlan::none().kill_before(2, 0).kill_after_map(2, 1);
    StreamingEngine::new(
        cfg,
        Technique::Prompt,
        5,
        Job::identity("sum", ReduceOp::Sum),
    )
    .with_window(WindowSpec::tumbling(Duration::from_secs(2)))
    .with_fault_tolerance(budget, FaultPlan::none())
    .with_net_faults(faults)
    .run_traced(&mut skewed_source(600, 15), 5)
}

/// A worker loss spends the recovery budget, a count: a budget of one
/// survives batch 2's first loss and aborts the run on its second.
#[test]
#[should_panic(expected = "worker loss on batch 2 beyond recovery budget")]
fn a_second_loss_on_one_batch_exceeds_a_budget_of_one() {
    killed_twice_in_batch_2(1);
}

/// A budget of two survives both losses of batch 2 on the last worker
/// standing, bit-identical to serial, and each loss reports what is left.
#[test]
fn a_budget_of_two_survives_two_losses_on_one_batch() {
    let (dist, rec) = killed_twice_in_batch_2(2);
    let mut serial = StreamingEngine::new(
        cfg_with(Backend::InProcess),
        Technique::Prompt,
        5,
        Job::identity("sum", ReduceOp::Sum),
    )
    .with_window(WindowSpec::tumbling(Duration::from_secs(2)));
    let serial = serial.run(&mut skewed_source(600, 15), 5);
    assert_runs_identical("two losses vs serial", &serial, &dist);
    assert_eq!((dist.worker_losses, dist.recoveries), (2, 2));
    let left: Vec<(u64, usize)> = (rec.events().iter())
        .filter_map(|e| match *e {
            TraceEvent::Recovery { seq, replicas_left } => Some((seq, replicas_left)),
            _ => None,
        })
        .collect();
    assert_eq!(left, [(2, 1), (2, 0)], "1 replicas left, then 0");
}

/// Nothing reads a batch input back unless a checkpoint or a `FaultPlan` is
/// configured, so a distributed stateful run with neither retains none —
/// and still survives a worker loss, by resubmitting the plan in hand.
#[test]
fn a_distributed_run_without_checkpoint_or_fault_plan_retains_no_input() {
    ensure_worker_bin();
    let window = WindowSpec::sliding(Duration::from_secs(3), Duration::from_secs(1));
    let engine = |backend| {
        StreamingEngine::new(
            cfg_with(backend),
            Technique::Prompt,
            5,
            Job::identity("sum", ReduceOp::Sum),
        )
        .with_window(window)
        .with_stateful(StatefulOp::SessionCount)
    };
    let serial = engine(Backend::InProcess).run(&mut skewed_source(600, 15), 6);
    let dist = engine(Backend::Distributed {
        workers: 2,
        base_port: 0,
    })
    .with_net_faults(NetFaultPlan::none().kill_before(2, 1))
    .run(&mut skewed_source(600, 15), 6);
    assert_runs_identical("distributed vs serial", &serial, &dist);
    assert_eq!(dist.worker_losses, 1);
    let state = dist.state.expect("a stateful run reports state stats");
    assert_eq!(
        (state.max_retained_batches, state.max_retained_tuples),
        (0, 0)
    );
}

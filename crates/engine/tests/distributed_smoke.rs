//! What the fleet must do that no equality with the serial engine states
//! (`oracle.rs` holds every distributed run to the serial one): the
//! deprecated `columnar` flag changes no byte on the wire, a worker loss
//! spends a count and aborts past it, a kill on a batch dispatched inside an
//! older batch's execute is survived, a checkpoint shrinks the recompute a
//! store loss costs, a scale action moves no state, and nothing retains a
//! batch unless a scheduled store loss may re-run it.
//!
//! These spawn OS processes, so they live in their own test binary (CI runs
//! it as the `distributed-smoke` job) rather than the fast unit tier.

use prompt_core::partitioner::Technique;
use prompt_core::types::Duration;
use prompt_engine::prelude::*;
use prompt_workloads::prelude::RateProfile;

mod common;
use common::{assert_answers_equal, completed, ensure_worker_bin, fresh_dir, run, Case, Shape};

fn fleet(workers: usize) -> EngineConfig {
    EngineConfig {
        map_tasks: 4,
        reduce_tasks: 3,
        cluster: Cluster::new(2, 4),
        backend: Backend::Distributed {
            workers,
            base_port: 0,
        },
        trace: TraceLevel::Full,
        ..EngineConfig::default()
    }
}

/// A skewed stream: Zipf 1.2 over 15 keys, 600 tuples a batch.
fn skewed(cfg: EngineConfig, batches: usize) -> Case {
    let shape = Shape {
        alpha: (1.2, 1.2),
        ..Shape::uniform(600.0, 15)
    };
    Case::new(shape, cfg, batches)
}

/// The deprecated `columnar` flag has no effect, so a run that sets it puts
/// exactly a row run's bytes on the wire — and so does its retry after a
/// worker killed mid-shuffle (at depth 1, where how much of the window went
/// out before the loss surfaced does not depend on timing).
#[test]
#[allow(deprecated)]
fn columnar_wire_traffic_matches_rows_byte_for_byte() {
    for kills in [
        NetFaultPlan::none(),
        NetFaultPlan::none().kill_after_map(2, 1),
    ] {
        let wire = |columnar| {
            let case = skewed(
                EngineConfig {
                    columnar,
                    ..fleet(3)
                },
                6,
            );
            let (res, _) = completed(&Case {
                kills: kills.clone(),
                ..case
            });
            let net = res.net.expect("distributed runs report wire stats");
            (net.bytes_sent, net.frames_sent)
        };
        assert_eq!(wire(false), wire(true), "{kills:?}");
    }
}

/// Three workers, two losses on one batch: worker 0 dies before batch 2's
/// Map tasks and worker 1 right after them, under a recovery budget of
/// `budget` worker losses per execution.
fn killed_twice_in_batch_2(budget: usize) -> Case {
    Case {
        window: (2, 2),
        recovery: Some((budget, FaultPlan::none())),
        kills: NetFaultPlan::none().kill_before(2, 0).kill_after_map(2, 1),
        ..skewed(fleet(3), 5)
    }
}

/// A worker loss spends the recovery budget, a count: a budget of one
/// survives batch 2's first loss and aborts the run on its second.
#[test]
fn a_second_loss_on_one_batch_exceeds_a_budget_of_one() {
    let why = run(&killed_twice_in_batch_2(1)).expect_err("the run must abort");
    assert!(
        why.contains("worker loss on batch 2 beyond recovery budget"),
        "{why}"
    );
}

/// A budget of two survives both losses of batch 2 on the last worker
/// standing, and each loss reports what is left.
#[test]
fn a_budget_of_two_survives_two_losses_on_one_batch() {
    let (dist, rec) = completed(&killed_twice_in_batch_2(2));
    assert_eq!((dist.worker_losses, dist.recoveries), (2, 2));
    let left: Vec<(u64, usize)> = (rec.events().iter())
        .filter_map(|e| match *e {
            TraceEvent::Recovery { seq, replicas_left } => Some((seq, replicas_left)),
            _ => None,
        })
        .collect();
    assert_eq!(left, [(2, 1), (2, 0)], "1 replicas left, then 0");
}

/// A batch goes on the wire inside an older batch's execute: at depth 4
/// batches 1 and 2 leave in batch 0's and every later batch `b` in batch
/// `b − 2`'s. A worker killed before batch 3's Map tasks, and another before
/// batch 6's, dies while an older batch is awaited; each loss aborts the
/// window, which goes out again from the plans in hand. Each kill costs one
/// loss and one recovery, and the answers are the serial engine's.
#[test]
fn kills_on_batches_dispatched_inside_an_older_execute_are_survived_at_depth_4() {
    let case = Case {
        kills: NetFaultPlan::none().kill_before(3, 0).kill_before(6, 2),
        ..skewed(
            EngineConfig {
                pipeline_depth: 4,
                ..fleet(3)
            },
            9,
        )
    };
    let (res, _) = completed(&case);
    let (serial, _) = completed(&case.serial());
    assert_eq!(serial.first_difference(&res), None);
    assert_eq!(
        (res.worker_losses, res.recoveries),
        (2, 2),
        "one loss per kill"
    );
}

/// The state-recovery gate: a worker killed mid-window *and* a scheduled
/// loss of the whole keyed state store, with checkpointing on, restore from
/// the checkpoint and recompute only the post-watermark suffix — fewer
/// batches than the no-checkpoint rebuild — and leave the run equal to the
/// serial engine's. At depth 4 batch 4 loses its state too, so its re-run and
/// the rebuild's re-runs go on the wire while younger batches are in flight.
#[test]
fn checkpointed_state_survives_worker_kill_and_store_loss() {
    for (depth, plan) in [
        (1, FaultPlan::none().lose_store_at(5)),
        (4, FaultPlan::none().lose_store_at(5).lose_once(4)),
    ] {
        let lossy = |checkpoint: Option<CheckpointConfig>| Case {
            // The window spans the run, as a rebuild without a checkpoint
            // would replay all of it anyway.
            window: (8, 1),
            op: ReduceOp::Count,
            stateful: true,
            recovery: Some((3, plan.clone())),
            kills: NetFaultPlan::none().kill_before(2, 1),
            ..skewed(
                EngineConfig {
                    checkpoint,
                    pipeline_depth: depth,
                    ..fleet(3)
                },
                8,
            )
        };
        let ckpt = lossy(Some(CheckpointConfig::new("set by run").interval(1)));
        let (res, rec) = completed(&ckpt);
        let (scratch, _) = completed(&lossy(None));
        let (serial, _) = completed(&ckpt.serial());
        assert_eq!(serial.first_difference(&res), None, "depth {depth}");
        let (serial_scratch, _) = completed(&lossy(None).serial());
        assert_eq!(
            serial_scratch.first_difference(&scratch),
            None,
            "depth {depth}, no checkpoint"
        );
        let lost_batches = plan.lose_state.len() as u64;
        assert_eq!((res.worker_losses, res.recoveries), (1, 1 + lost_batches));
        let (ckpt, scratch) = (
            res.state.expect("state on"),
            scratch.state.expect("state on"),
        );
        assert_eq!((ckpt.restores, scratch.restores), (1, 1));
        assert_eq!(scratch.recomputed_batches, 5, "no checkpoint: rebuild all");
        assert!(
            ckpt.recomputed_batches < scratch.recomputed_batches,
            "checkpoint must shrink the recompute suffix: {ckpt:?} vs {scratch:?}"
        );
        assert!(
            ckpt.max_retained_batches < scratch.max_retained_batches,
            "watermark truncation must bound retention: {ckpt:?} vs {scratch:?}"
        );
        assert_eq!(rec.counter(Counter::StateRestores), 1);
        assert!(
            rec.counter(Counter::Checkpoints) >= 7,
            "one commit per batch"
        );
        let events = rec.events();
        let restored = |e: &TraceEvent| matches!(e, TraceEvent::StateRestore { seq: 5, .. });
        assert!(events.iter().any(restored), "the restore must be traced");
    }
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
    let window = WindowSpec::sliding(Duration::from_secs(3), Duration::from_secs(1));
    let ramp = Shape {
        rate: RateProfile::Ramp {
            start: 2400.0,
            slope: 400.0,
        },
        ..Shape::uniform(2400.0, 64)
    };
    let per_tuple = Duration::from_micros(150);
    let cfg = |backend, checkpoint| EngineConfig {
        map_tasks: 2,
        reduce_tasks: 2,
        cluster: Cluster::new(4, 4),
        cost: CostModel {
            map_per_tuple: per_tuple,
            reduce_per_tuple: per_tuple,
            ..CostModel::default()
        },
        elasticity: Some(ScalerConfig {
            d: 2,
            ..ScalerConfig::default()
        }),
        backend,
        checkpoint,
        ..EngineConfig::default()
    };
    let run_for = |backend, checkpoint, n: usize| {
        let job = Job::identity("count", ReduceOp::Count);
        let mut engine = StreamingEngine::new(cfg(backend, checkpoint), Technique::Prompt, 9, job)
            .with_window(window);
        engine.run(ramp.source(Duration::from_secs(1), 9).as_mut(), n)
    };
    let serial = run_for(Backend::InProcess, None, 20);
    let out = serial.scale_events.iter().find(|(_, a)| a.out);
    let first_out = out.expect("the ramp must scale out").0 as usize;
    let on_the_fleet = |n| {
        let dir = fresh_dir("scaling");
        let checkpoint = CheckpointConfig::new(&dir).interval(2);
        let res = run_for(fleet(2).backend, Some(checkpoint), n);
        let left = prompt_engine::state::restore(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (res, left.expect("the run committed").store.shard_count())
    };
    let (dist, shards_after) = on_the_fleet(20);
    assert_eq!(serial.scale_events, dist.scale_events);
    assert_answers_equal(&serial, &dist, ReduceOp::Count);
    // 10 commits, every one the interval's: the first snapshots and the
    // `snapshot_every` cadence (8) does, a scale action does neither.
    let stats = dist.state.expect("state layer on");
    assert_eq!(stats.checkpoints, 20 / 2);
    assert_eq!(stats.snapshots, 1 + (stats.checkpoints - 1) / 8);
    // The same run cut short of its first scale-out.
    let (before, shards_before) = on_the_fleet(first_out);
    assert!(before.scale_events.iter().all(|(_, a)| !a.out));
    assert_eq!((shards_before, shards_after), (STATE_SHARDS, STATE_SHARDS));
}

/// Nothing keeps a committed batch unless a scheduled store loss may re-run
/// it — a worker loss resubmits the plan in hand, a resume reads the
/// checkpoint — so a distributed stateful run without a `FaultPlan` retains
/// none, checkpointed or not, and still survives a worker loss.
#[test]
fn a_distributed_run_without_a_fault_plan_retains_no_input() {
    for checkpoint in [None, Some(CheckpointConfig::new("set by run").interval(2))] {
        let case = Case {
            stateful: true,
            kills: NetFaultPlan::none().kill_before(2, 1),
            ..skewed(
                EngineConfig {
                    checkpoint,
                    ..fleet(2)
                },
                6,
            )
        };
        let (res, _) = completed(&case);
        assert_eq!(res.worker_losses, 1);
        let state = res.state.expect("a stateful run reports state stats");
        let retained = (state.max_retained_batches, state.max_retained_tuples);
        assert_eq!(retained, (0, 0), "{:?}", case.cfg.checkpoint);
    }
}
